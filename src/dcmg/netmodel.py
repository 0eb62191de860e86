"""Electrical model assembly for networked DC microgrids.

Builds the continuous-time state-space model of a droop-controlled DC
network -- bus capacitor voltages, source branch currents and tie-line
currents -- and slices per-agent models out of it, in which the
neighbouring bus voltages appear as additional external inputs.

Conventions used throughout the package:

* Bus ids are 1-based and follow the order of ``NetworkSpec.buses``.
* The global state vector is ordered ``[V_1..V_n, Ig_1..Ig_n, I_l...]``
  with line currents in line-list order.  Every line carries a canonical
  orientation tail -> head where the tail is the lower bus id, regardless
  of how the line was entered.
* Agent-local states are ``[V_i, Ig_i, <incident line currents>]`` with
  each incident line current oriented *away* from the agent.  An agent
  sitting at the head of a line therefore works with the negated global
  line current; the orientation sign is recorded so measurements and
  cross-checks can map between the two frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidAgent,
    InvalidTopology,
    NonPositiveInput,
)

# default noise figures for the per-agent covariance blocks: process noise on
# every local state, measurement noise split between bus-local quantities
# (voltage, source current) and tie-line current sensors
DEFAULT_PROCESS_VAR = 10.0
DEFAULT_BUS_MEAS_VAR = 100.0
DEFAULT_LINE_MEAS_VAR = 10.0


@dataclass
class BusParams:
    """Converter-plus-filter parameters of one bus.

    ``r_internal``/``l_internal`` are the source branch impedance,
    ``c_output`` the bus capacitance, ``droop_gain`` the virtual droop
    resistance in ohms.
    """

    r_internal: float
    l_internal: float
    c_output: float
    droop_gain: float = 0.0
    v_source_nominal: float = 0.0
    rated_power: float = 0.0


@dataclass
class LineParams:
    """One tie line between buses ``tail`` and ``head`` (1-based ids)."""

    tail: int
    head: int
    r_line: float
    l_line: float


@dataclass
class NetworkSpec:
    """Buses plus the undirected tie lines connecting them."""

    buses: list[BusParams] = field(default_factory=list)
    lines: list[LineParams] = field(default_factory=list)

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_line(self) -> int:
        return len(self.lines)

    def validate(self) -> None:
        if not self.buses:
            raise InvalidTopology("network needs at least one bus")
        for idx, bus in enumerate(self.buses, start=1):
            for name, value in vars(bus).items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise InvalidTopology(f"bus {idx}: {name} must be finite")
            if bus.r_internal < 0.0:
                raise InvalidTopology(f"bus {idx}: r_internal must be >= 0")
            if bus.l_internal <= 0.0:
                raise InvalidTopology(f"bus {idx}: l_internal must be > 0")
            if bus.c_output <= 0.0:
                raise InvalidTopology(f"bus {idx}: c_output must be > 0")
            if bus.droop_gain < 0.0:
                raise InvalidTopology(f"bus {idx}: droop_gain must be >= 0")
        seen: set[frozenset[int]] = set()
        for idx, line in enumerate(self.lines):
            for end in (line.tail, line.head):
                if not (1 <= end <= self.n_bus):
                    raise InvalidTopology(
                        f"line {idx}: endpoint {end} is not a bus id in 1..{self.n_bus}"
                    )
            if line.tail == line.head:
                raise InvalidTopology(f"line {idx}: self-loop at bus {line.tail}")
            key = frozenset((line.tail, line.head))
            if key in seen:
                raise InvalidTopology(
                    f"line {idx}: duplicate line between buses {line.tail} and {line.head}"
                )
            seen.add(key)
            for name, value in vars(line).items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise InvalidTopology(f"line {idx}: {name} must be finite")
            if line.r_line < 0.0:
                raise InvalidTopology(f"line {idx}: r_line must be >= 0")
            if line.l_line <= 0.0:
                raise InvalidTopology(f"line {idx}: l_line must be > 0")

    def canonical_lines(self) -> list[LineParams]:
        """Lines with the canonical tail < head orientation applied."""
        out = []
        for line in self.lines:
            if line.tail < line.head:
                out.append(line)
            else:
                out.append(
                    LineParams(line.head, line.tail, line.r_line, line.l_line)
                )
        return out

    def lines_at(self, bus_id: int) -> list[tuple[int, LineParams, int]]:
        """Incident lines of ``bus_id`` as (line_index, canonical line, sign).

        sign is +1 when the bus is the canonical tail (current already flows
        away from it) and -1 at the head.
        """
        out = []
        for l_idx, line in enumerate(self.canonical_lines()):
            if line.tail == bus_id:
                out.append((l_idx, line, +1))
            elif line.head == bus_id:
                out.append((l_idx, line, -1))
        return out

    def neighbors(self, bus_id: int) -> list[int]:
        nbrs = []
        for _, line, sign in self.lines_at(bus_id):
            nbrs.append(line.head if sign > 0 else line.tail)
        return nbrs


@dataclass
class GlobalModel:
    """Continuous-time network model ``x' = a_c x + b_c u + e_c d``.

    Inputs ``u`` are the source voltages (one per bus) and disturbances
    ``d`` the unknown load currents drawn from each bus capacitor.
    """

    a_c: np.ndarray
    b_c: np.ndarray
    e_c: np.ndarray
    state_labels: list[str]

    @property
    def n_state(self) -> int:
        return self.a_c.shape[0]

    @property
    def n_bus(self) -> int:
        return self.b_c.shape[1]


@dataclass
class Coupling:
    """One neighbour-voltage input column of an agent model."""

    neighbor: int
    column: np.ndarray
    line_index: int
    sign: int


@dataclass
class AgentModelContinuous:
    """Per-agent slice of the network with neighbour voltages as inputs.

    States are ``[V_i, Ig_i, <line currents oriented away from agent>]``;
    ``state_index``/``state_sign`` map them onto the global state vector.
    ``c_ci`` is identity: the agent measures all of its local states.
    """

    agent_id: int
    a_ci: np.ndarray
    b_ci: np.ndarray
    e_ci: np.ndarray
    c_ci: np.ndarray
    couplings: list[Coupling]
    q_i: np.ndarray
    r_i: np.ndarray
    state_labels: list[str]
    state_index: np.ndarray
    state_sign: np.ndarray

    @property
    def n_i(self) -> int:
        return self.a_ci.shape[0]


def build_global(spec: NetworkSpec) -> GlobalModel:
    """Assemble the full-network continuous-time model.

    Bus capacitor: C_i V_i' = Ig_i - I_load_i - sum(outgoing line currents)
    Source branch: L_i Ig_i' = u_i - V_i - (R_droop_i + R_i) Ig_i
    Tie line:      L_l I_l'  = V_tail - V_head - R_l I_l
    """
    spec.validate()
    n = spec.n_bus
    lines = spec.canonical_lines()
    m = len(lines)
    size = 2 * n + m

    a = np.zeros((size, size))
    b = np.zeros((size, n))
    e = np.zeros((size, n))
    labels = (
        [f"V{i}" for i in range(1, n + 1)]
        + [f"Ig{i}" for i in range(1, n + 1)]
        + [f"I{line.tail}_{line.head}" for line in lines]
    )

    for i, bus in enumerate(spec.buses, start=1):
        v = i - 1
        ig = n + i - 1
        # capacitor node: source current in, load and line currents out
        a[v, ig] = 1.0 / bus.c_output
        e[v, i - 1] = -1.0 / bus.c_output
        # source branch with droop folded in as series resistance
        a[ig, v] = -1.0 / bus.l_internal
        a[ig, ig] = -(bus.droop_gain + bus.r_internal) / bus.l_internal
        b[ig, i - 1] = 1.0 / bus.l_internal

    for l_idx, line in enumerate(lines):
        row = 2 * n + l_idx
        vt = line.tail - 1
        vh = line.head - 1
        a[row, vt] = 1.0 / line.l_line
        a[row, vh] = -1.0 / line.l_line
        a[row, row] = -line.r_line / line.l_line
        ct = spec.buses[line.tail - 1].c_output
        ch = spec.buses[line.head - 1].c_output
        a[vt, row] = -1.0 / ct
        a[vh, row] = +1.0 / ch

    return GlobalModel(a_c=a, b_c=b, e_c=e, state_labels=labels)


def partition_agent(
    global_model: GlobalModel,
    spec: NetworkSpec,
    agent_id: int,
    q_state: float = DEFAULT_PROCESS_VAR,
    r_bus: float = DEFAULT_BUS_MEAS_VAR,
    r_line: float = DEFAULT_LINE_MEAS_VAR,
) -> AgentModelContinuous:
    """Slice agent ``agent_id``'s local model out of the network model.

    The local states are the global states at ``state_index`` times
    ``state_sign`` (S), so the local dynamics are the oriented rows
    ``S a_c`` taken at the local columns and re-oriented by S, and the
    local input and load columns are ``S b_c`` and ``S e_c`` at the bus.
    Each neighbour voltage, the only other global state these rows read,
    becomes one input column, in incident-line order.
    """
    if not (1 <= agent_id <= spec.n_bus):
        raise InvalidAgent(f"agent id {agent_id} not in 1..{spec.n_bus}")
    n = spec.n_bus
    if global_model.n_bus != n or global_model.n_state != 2 * n + spec.n_line:
        raise DimensionMismatch("global model does not match the network spec")
    if q_state < 0.0 or r_bus < 0.0 or r_line < 0.0:
        raise NonPositiveInput("noise variances must be >= 0")

    incident = spec.lines_at(agent_id)
    deg = len(incident)
    n_i = 2 + deg
    state_index = np.array(
        [agent_id - 1, n + agent_id - 1] + [2 * n + l_idx for l_idx, _, _ in incident]
    )
    state_sign = np.array([1.0, 1.0] + [float(sign) for _, _, sign in incident])
    rows = state_sign[:, None] * global_model.a_c[state_index]
    bus = slice(agent_id - 1, agent_id)
    b = state_sign[:, None] * global_model.b_c[state_index, bus]
    e = state_sign[:, None] * global_model.e_c[state_index, bus]

    couplings: list[Coupling] = []
    labels = [f"V{agent_id}", f"Ig{agent_id}"]
    for l_idx, line, sign in incident:
        nbr = line.head if sign > 0 else line.tail
        couplings.append(
            Coupling(neighbor=nbr, column=rows[:, nbr - 1], line_index=l_idx, sign=sign)
        )
        labels.append(f"I{agent_id}_{nbr}")

    q = np.diag(np.full(n_i, q_state, dtype=float))
    r = np.diag(np.array([r_bus, r_bus] + [r_line] * deg, dtype=float))

    return AgentModelContinuous(
        agent_id=agent_id,
        a_ci=rows[:, state_index] * state_sign,
        b_ci=b,
        e_ci=e,
        c_ci=np.eye(n_i),
        couplings=couplings,
        q_i=q,
        r_i=r,
        state_labels=labels,
        state_index=state_index,
        state_sign=state_sign,
    )
