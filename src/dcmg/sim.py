"""Closed-loop scenario engine.

Propagates the sampled-data network truth under seeded load profiles,
source schedules, process/measurement noise and bias attacks on the
exchanged neighbour voltages, then runs every agent's unknown-input
observer on its own measurements plus the (possibly falsified) received
voltages, and finally feeds the residual streams to the detector.

``run_scenario`` runs five stages.  ``prepare`` owns scenario validity:
it checks the fields, then builds the plan, every model and x_0, so
that a scenario whose models cannot be built fails as invalid before
any series exists.  ``_plant`` forms the physical layer, ``_metered``
each group's input block and metered layer, ``_run_observer`` each
group's observers, and ``monitor`` scans the residuals.

The truth has two layers, the standard decoupling for sampled-data
co-simulation.  A monolithic physical layer -- the wired-up network,
ZOH-discretized as one system, exact for the piecewise-constant sources
and loads -- produces the exported global state and the bus voltages the
agents exchange.  On top of it, each agent's metered reality advances by
that agent's own discretized model, driven by the received (held)
boundary voltages and sharing the physical layer's noise draws in its
own orientation.  Each observer thus reads data of its own model, which
the residual analysis relies on; the detector's guarantees cover such
data, not the physical layer's slice (ROADMAP item 6).  Feeding the
agents slices of the monolithic state instead would make the held-voltage
assumption wrong within each step (1/C is large) and swamp the line
channels with noise far above the modelled innovation covariance, while
closing the loop among the per-agent models (each integrating against
the other's held samples) is unstable at practical step sizes because
the lightly damped LC line modes get only a few samples per period.

Agents of equal models form a group, and each group's series are built
as one block with the agent axis first.  A group's inputs (source
setpoints and received voltages) are gathered once: the metered layer
forms its drive from them while they are true, then the attack biases
are added in place for the observers and ``comms``.  The gain recursion
reads the model, never the data, so one recursion serves a group's
observers: every step makes one ``uio.gain_step`` and advances all the
group's z-recursions together.  Once the covariance it updates settles
(``_run_observer`` states the rule), the rest of the group's horizon is
an LTI recursion in z with that step's gains, which all its agents run
together as one ``lti.propagate_into``.  The detector divides each
residual by sqrt(diag(Pi + M R M^T)) of its group's final Pi, with
M = I - H, never by a spread estimated from the data.  Every state
series is formed in place, x_0 and the drive rows written straight into
the state array, and scanned by ``lti.propagate_into``; a group's
metered layer and measurements read its one model.  A temporary holds
at most one block of rows (``lti.row_blocks``), so a run's working set
is its trace plus such a block: the plant's load term, each group's
input rows and metered-layer drive, each agent's products with its
measurements in the observer, and ``monitor``'s scan of the residuals
all go a block at a time, and each row comes out as in one block.
A plant state that overflows raises ``NonFinite``.  An executor's worker
draws each agent's measurement noise into its row of ``y`` while the
calling thread forms the plant and the metered layers; ``y`` is then
each metered layer plus ``sample_noise`` from the agent's own stream,
bit for bit.

All event times (segment starts, attack windows, warm-up, horizon) must
fall on multiples of the step size so scenarios are reproducible bit for
bit from their seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detect import DetectionEvent, DetectorConfig, monitor
from .errors import (
    DcmgError,
    InvalidTopology,
    NegativeVariance,
    NonFinite,
    NonPositiveInput,
    SingularInnovation,
    ValidationError,
)
from .lti import RANK_RTOL, DiscreteModel, discretize_zoh, propagate_into, row_blocks
from .netmodel import DEFAULT_BUS_MEAS_VAR, DEFAULT_LINE_MEAS_VAR, DEFAULT_PROCESS_VAR
from .netmodel import GlobalModel, NetworkSpec, build_global, partition_agent
from .uio import AgentModel, discretize_agent, gain_step

_TAG_PROCESS = 0
_TAG_MEASUREMENT = 1
_TAG_LOAD = 2

LOAD_KINDS = ("constant", "ramp", "random_walk")
INITIAL_STATES = ("steady", "zero")


@dataclass
class LoadSegment:
    """Piece of a per-bus load profile, active from ``t_start`` until the
    next segment (or the horizon).

    ``constant`` holds ``level`` amperes; ``ramp`` moves linearly from
    ``level`` to ``level_end`` across the segment; ``random_walk`` starts
    at ``level`` and accumulates N(0, walk_std^2) increments per step.
    """

    t_start: float
    kind: str = "constant"
    level: float = 0.0
    level_end: float | None = None
    walk_std: float = 0.0


@dataclass
class SourceStep:
    """Source voltage setpoint applied from ``t_start`` onwards."""

    t_start: float
    volts: float


@dataclass
class AttackSpec:
    """Constant bias added to the voltage that ``source`` reports to
    ``victim`` while ``start <= t < end``."""

    victim: int
    source: int
    start: float
    end: float
    bias: float


@dataclass
class NoiseConfig:
    """Variance figures shared by all agents.

    ``q_state`` is the per-state process noise variance, ``r_bus`` the
    measurement variance on voltage and source current, ``r_line`` the
    measurement variance on line currents.  ``inject=False`` keeps these
    values in the observer/gain design but draws no noise in the plant.
    """

    q_state: float = DEFAULT_PROCESS_VAR
    r_bus: float = DEFAULT_BUS_MEAS_VAR
    r_line: float = DEFAULT_LINE_MEAS_VAR
    inject: bool = True


@dataclass
class Seeds:
    """Root seed plus optional per-stream overrides.

    Derived streams are spawned as (root, tag, bus): one process-noise
    stream, one measurement stream per agent, one load stream per bus.
    """

    root: int = 0
    process: int | None = None
    measurement: dict[int, int] = field(default_factory=dict)
    load: dict[int, int] = field(default_factory=dict)


@dataclass
class ScenarioConfig:
    network: NetworkSpec = field(default_factory=NetworkSpec)
    ts: float = 1e-4
    horizon: float = 1.0
    warmup: float = 0.0
    initial_state: str = "steady"
    seeds: Seeds = field(default_factory=Seeds)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    load_profiles: dict[int, list[LoadSegment]] = field(default_factory=dict)
    source_schedule: dict[int, list[SourceStep]] = field(default_factory=dict)
    attacks: list[AttackSpec] = field(default_factory=list)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    # accepted and read by nothing: every group settles at one tolerance
    # (``_run_observer``)
    freeze_gains: bool = True


@dataclass
class SimulationTrace:
    """Everything a run produced, keyed by 1-based agent id where
    applicable.  Every series has one row per sample instant
    (n_steps + 1); ``comms[i][k]`` is what agent i received at step k and
    holds over [k, k+1), so its final row is never consumed.  ``x_true``
    is the monolithic network state; ``x_local[i]`` is agent i's own
    sampled-data reality (the states its sensors meter), which tracks the
    corresponding slice of ``x_true`` up to held-boundary effects."""

    times: np.ndarray
    x_true: np.ndarray
    state_labels: list[str]
    y: dict[int, np.ndarray]
    comms: dict[int, np.ndarray]
    x_local: dict[int, np.ndarray]
    x_hat: dict[int, np.ndarray]
    residuals: dict[int, np.ndarray]
    sigmas: dict[int, np.ndarray]
    alarms: list[DetectionEvent]
    alarm_flags: dict[int, np.ndarray]
    models: dict[int, AgentModel]


def _noise_std(covariance_diag) -> np.ndarray:
    """The square roots of a diagonal covariance, checked 1-D and >= 0."""
    var = np.asarray(covariance_diag, dtype=float)
    if var.ndim != 1:
        raise NegativeVariance(f"covariance diagonal must be 1-D, got {var.shape}")
    if (var < 0.0).any():
        raise NegativeVariance(f"negative variance in {var}")
    return np.sqrt(var)


def sample_noise(stream, covariance_diag, size: int | None = None) -> np.ndarray:
    """Zero-mean Gaussian draws with the given diagonal covariance.

    Returns one vector, or a (size, len(diag)) block drawn in a single
    generator call when ``size`` is given, scaled in place.
    """
    std = _noise_std(covariance_diag)
    shape = std.shape if size is None else (size, std.shape[0])
    draws = stream.standard_normal(shape)
    draws *= std
    return draws


def step_index(t: float, ts: float, what: str = "event time") -> int:
    """Map an event time onto its step index, rejecting non-finite and
    off-grid times and times whose step count overflows a float."""
    if not (math.isfinite(ts) and ts > 0.0):
        raise ValidationError(f"ts must be finite and > 0, got {ts!r}")
    if not math.isfinite(t):
        raise ValidationError(f"{what} must be finite, got {t!r}")
    if not math.isfinite(t / ts):
        raise ValidationError(f"{what} = {t!r} is too large a multiple of ts = {ts!r}")
    k = int(round(t / ts))
    if abs(t - k * ts) > 1e-6 * ts:
        raise ValidationError(
            f"{what} = {t!r} is not a multiple of ts = {ts!r} (off-grid event)"
        )
    return k


def _stream(seeds: Seeds, tag: int, bus: int = 0) -> np.random.Generator:
    if tag == _TAG_PROCESS and seeds.process is not None:
        return np.random.default_rng(seeds.process)
    if tag == _TAG_MEASUREMENT and bus in seeds.measurement:
        return np.random.default_rng(seeds.measurement[bus])
    if tag == _TAG_LOAD and bus in seeds.load:
        return np.random.default_rng(seeds.load[bus])
    return np.random.default_rng((seeds.root, tag, bus))


def validate_config(config: ScenarioConfig) -> None:
    """Check a scenario for semantic consistency; error messages name the
    offending field."""
    try:
        config.network.validate()
    except InvalidTopology as exc:
        raise ValidationError(f"network: {exc}") from exc
    n = config.network.n_bus
    if not (math.isfinite(config.ts) and config.ts > 0.0):
        raise ValidationError(f"ts must be finite and > 0, got {config.ts}")
    if config.horizon < config.ts:
        raise ValidationError(
            f"horizon must cover at least one step, got {config.horizon}"
        )
    n_steps = step_index(config.horizon, config.ts, "horizon")
    # numpy's largest array spans intp-max bytes
    if n_steps + 1 > np.iinfo(np.intp).max // np.dtype(float).itemsize:
        raise ValidationError(
            f"horizon = {config.horizon!r} at ts = {config.ts!r} makes "
            f"{config.horizon / config.ts:.3g} steps, more than one float64 "
            "series can hold"
        )
    if config.warmup < 0.0:
        raise ValidationError(f"warmup must be >= 0, got {config.warmup}")
    k_warm = step_index(config.warmup, config.ts, "warmup")
    if k_warm >= n_steps:
        raise ValidationError(
            f"warmup = {config.warmup} must end before horizon = {config.horizon}"
        )
    if config.initial_state not in INITIAL_STATES:
        raise ValidationError(
            f"initial_state must be one of {INITIAL_STATES}, got {config.initial_state!r}"
        )

    for name in ("q_state", "r_bus", "r_line"):
        value = getattr(config.noise, name)
        if not (math.isfinite(value) and value >= 0):
            raise ValidationError(f"noise.{name} must be finite and >= 0, got {value}")

    seeds = {"root": config.seeds.root}
    if config.seeds.process is not None:
        seeds["process"] = config.seeds.process
    for name in ("measurement", "load"):
        for bus, seed in sorted(getattr(config.seeds, name).items()):
            if not (1 <= bus <= n):
                raise ValidationError(f"seeds.{name}: unknown bus id {bus}")
            seeds[f"{name}[{bus}]"] = seed
    for key, seed in seeds.items():
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValidationError(f"seeds.{key} must be an integer >= 0, got {seed!r}")

    for bus, segments in sorted(config.load_profiles.items()):
        for here, seg in _schedule("load_profiles", "profile", bus, segments, config):
            if seg.kind not in LOAD_KINDS:
                raise ValidationError(
                    f"{here}.kind must be one of {LOAD_KINDS}, got {seg.kind!r}"
                )
            if seg.kind == "ramp" and seg.level_end is None:
                raise ValidationError(f"{here}: ramp segment needs level_end")
            for name in ("level", "level_end"):
                value = getattr(seg, name)
                if value is not None and not math.isfinite(value):
                    raise ValidationError(f"{here}.{name} must be finite, got {value}")
            if not (math.isfinite(seg.walk_std) and seg.walk_std >= 0.0):
                raise ValidationError(f"{here}.walk_std must be finite and >= 0")

    for bus, steps in sorted(config.source_schedule.items()):
        for here, st in _schedule("source_schedule", "schedule", bus, steps, config):
            if not math.isfinite(st.volts):
                raise ValidationError(f"{here}.volts must be finite")

    for a_idx, atk in enumerate(config.attacks):
        here = f"attacks[{a_idx}]"
        if not (1 <= atk.victim <= n):
            raise ValidationError(f"{here}.victim: unknown bus id {atk.victim}")
        if not (1 <= atk.source <= n):
            raise ValidationError(f"{here}.source: unknown bus id {atk.source}")
        if atk.source not in config.network.neighbors(atk.victim):
            raise ValidationError(
                f"{here}.source: bus {atk.source} is not a neighbour of bus {atk.victim}"
            )
        k_start = step_index(atk.start, config.ts, f"{here}.start")
        k_end = step_index(atk.end, config.ts, f"{here}.end")
        if not (0 <= k_start < k_end <= n_steps):
            raise ValidationError(
                f"{here}: window [{atk.start}, {atk.end}) must be ordered and lie "
                f"inside [0, {config.horizon}]"
            )
        if not math.isfinite(atk.bias):
            raise ValidationError(f"{here}.bias must be finite")

    try:
        config.detector.validate()
    except NonPositiveInput as exc:
        raise ValidationError(f"detector: {exc}") from exc


def _schedule(name: str, noun: str, bus: int, entries: list, config: ScenarioConfig):
    """Check a known bus, a non-empty schedule and start times from 0,
    increasing, before the horizon; yield each entry with its field path
    once its start time is checked, for the caller's remaining checks."""
    where = f"{name}[{bus}]"
    if not (1 <= bus <= config.network.n_bus):
        raise ValidationError(f"{where}: unknown bus id {bus}")
    if not entries:
        raise ValidationError(f"{where}: empty {noun}")
    n_steps = step_index(config.horizon, config.ts, "horizon")
    prev = -1
    for s_idx, entry in enumerate(entries):
        here = f"{where}[{s_idx}]"
        k = step_index(entry.t_start, config.ts, f"{here}.t_start")
        if s_idx == 0 and k != 0:
            raise ValidationError(f"{here}.t_start must be 0.0")
        if k <= prev and s_idx > 0:
            raise ValidationError(f"{here}.t_start must increase")
        if k >= n_steps and s_idx > 0:
            raise ValidationError(f"{here}.t_start must lie before the horizon")
        prev = k
        yield here, entry


def _load_series(
    segments: list[LoadSegment], n_steps: int, ts: float, rng
) -> np.ndarray:
    out = np.empty(n_steps)
    bounds = [step_index(seg.t_start, ts) for seg in segments] + [n_steps]
    for seg, k0, k1 in zip(segments, bounds[:-1], bounds[1:]):
        span = k1 - k0
        if seg.kind == "constant":
            out[k0:k1] = seg.level
        elif seg.kind == "ramp":
            out[k0:k1] = seg.level + (seg.level_end - seg.level) * (
                np.arange(span) / span
            )
        else:  # random_walk
            incr = rng.standard_normal(span) * seg.walk_std
            incr[0] = 0.0
            out[k0:k1] = seg.level + np.cumsum(incr)
    return out


def _source_series(
    steps: list[SourceStep], nominal: float, n_steps: int, ts: float
) -> np.ndarray:
    steps = steps or [SourceStep(0.0, nominal)]
    segments = [LoadSegment(st.t_start, level=st.volts) for st in steps]
    return _load_series(segments, n_steps, ts, None)


def _dc_operating_point(a: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """Fixed point ``(I - a) x = forcing`` of a held-input recursion: for a
    ZOH plant, exactly the continuous equilibrium, so a noise-free run
    started here sits still.  An ``I - a`` singular to ``RANK_RTOL``, as a
    lossless network's is, has no steady start: ``ValidationError``."""
    m = np.eye(a.shape[0]) - a
    s = np.linalg.svd(m, compute_uv=False)
    if not s[-1] > RANK_RTOL * s[0]:
        raise ValidationError(
            "initial_state = 'steady' needs a unique DC operating point, but "
            "I - A of the network is singular; use initial_state = 'zero'"
        )
    return np.linalg.solve(m, forcing)


@dataclass
class Plan:
    """What a run reads before any series exists (see ``prepare``)."""

    config: ScenarioConfig
    gm: GlobalModel
    plant: DiscreteModel
    models: dict[int, AgentModel]
    groups: list[list[int]]
    n_steps: int
    x0: np.ndarray


def prepare(config: ScenarioConfig) -> Plan:
    """Validate a scenario and build its plan: the network model and its
    ZOH plant, every agent's model and structural gains, the groups of
    equal models, the step count and x_0, nothing of horizon length.  A
    model, first gain step or steady start that fails raises ValidationError."""
    validate_config(config)
    spec, noise = config.network, config.noise
    gm = build_global(spec)
    models: dict[int, AgentModel] = {}
    for i in range(1, spec.n_bus + 1):
        cont = partition_agent(
            gm, spec, i, q_state=noise.q_state, r_bus=noise.r_bus, r_line=noise.r_line
        )
        try:
            models[i] = discretize_agent(cont, config.ts)
        except DcmgError as exc:
            raise ValidationError(f"network: bus {i}: {exc}") from exc
    try:
        plant = discretize_zoh(gm.a_c, gm.b_c, gm.e_c, config.ts)
    except DcmgError as exc:
        raise ValidationError(f"network: {exc}") from exc
    # agents of equal models propagate their metered layer and run their
    # observers as one group, which one gain recursion serves
    by_model: dict[tuple, list[int]] = {}
    for i, model in models.items():
        matrices = (model.a, model.b_x, model.e, model.c, model.q, model.r)
        key = tuple((mat.shape, mat.tobytes()) for mat in matrices)
        by_model.setdefault(key, []).append(i)
    # the gain recursion reads the model alone, so a group whose first step
    # has a singular innovation covariance would fail every run
    for model in (models[group[0]] for group in by_model.values()):
        t = model.structural[1]
        try:
            gain_step(model, t @ model.r @ t.T)
        except SingularInnovation as exc:
            raise ValidationError(f"noise: {exc}") from exc

    x0 = np.zeros(gm.n_state)
    if config.initial_state == "steady":
        # the step-0 inputs, as the plant's series hold them
        u0 = [bus.v_source_nominal for bus in spec.buses]
        d0 = [0.0] * spec.n_bus
        for i, steps in config.source_schedule.items():
            u0[i - 1] = steps[0].volts
        for i, segments in config.load_profiles.items():
            d0[i - 1] = segments[0].level
        # an overflow is the plant's to report, at step 0
        with np.errstate(over="ignore", invalid="ignore"):
            x0 = _dc_operating_point(plant.a, plant.b @ u0 + plant.e @ d0)
    n_steps = step_index(config.horizon, config.ts, "horizon")
    return Plan(config, gm, plant, models, list(by_model.values()), n_steps, x0)


def _run_observer(
    model: AgentModel,
    y: np.ndarray,
    u_x: np.ndarray,
    residuals: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Run the observers of a group of agents whose models all equal
    ``model`` over the whole horizon.

    ``y`` is (g, K + 1, m) and ``u_x`` (g, K or K + 1, n_u), one row per
    agent of the group (K is read from ``y``; row K of ``u_x`` is unused);
    ``residuals[j]`` receives row j's y - C x^.  Estimates start from the
    first measurement, x^_0 = y_0, so z_0 = y_0 - H y_0 and the covariance
    of eps = T x - z starts at Pi_0 = T R T^T.  Returns x_hat (g, K + 1, n),
    formed in place over z, and the final Pi (n, n), which the group
    shares.

    The gain recursion reads the model and Pi, never the data, so the
    group runs one recursion on one Pi: each step makes one ``gain_step``
    and advances every row of z with its gains.  Row k + 1 of z holds the
    drive T B_x u_k before step k adds F z_k + (K1 + K2) y_k.  Pi settles
    at one fixed point, and the recursion stops on the first step whose
    update moves it by at most 4 n eps max|Pi| (eps the float64 machine
    epsilon): rounding can leave Pi cycling in its last bits, so it is
    never asked to repeat bit for bit.  The rest of the horizon then runs
    with that step's gains, for every row, as one ``lti.propagate_into``,
    within 1e-13 max|x^| of stepping on with them.  A recursion that
    never settles steps to the horizon.  The products with y (the settled
    tail's drive, then x^ = z + H y) go a block of one agent's rows
    (``lti.row_blocks``) at a time.
    """
    g, n_steps = y.shape[0], y.shape[1] - 1
    h, t = model.structural
    # the products with y go a block of one agent's rows at a time: one for
    # the whole group would need a temporary as large as its rows of z
    z = np.empty((g, n_steps + 1, model.n))
    z[:, 0] = y[:, 0] - (h @ y[:, 0, :, None])[..., 0]
    np.matmul(u_x[:, :n_steps], (t @ model.b_x).T, out=z[:, 1:])
    pi = t @ model.r @ t.T
    rtol = 4 * model.n * np.finfo(float).eps
    for k in range(n_steps):
        gains, pi_next = gain_step(model, pi)
        f, k_sum = gains.f, gains.k1 + gains.k2
        settled = abs(pi_next - pi).max() <= rtol * abs(pi).max()
        pi = pi_next
        if settled:
            for zj, yj in zip(z[:, k + 1 :], y[:, k:-1]):
                for span in row_blocks(n_steps - k, y[0, 0].nbytes):
                    zj[span] += yj[span] @ k_sum.T
            propagate_into(f, z[:, k:])
            break
        z[:, k + 1] = (
            (f @ z[:, k, :, None])[..., 0] + z[:, k + 1]
        ) + (k_sum @ y[:, k, :, None])[..., 0]
    for j in range(g):
        for span in row_blocks(n_steps + 1, y[0, 0].nbytes):
            x_hat, yj = z[j, span], y[j, span]
            x_hat += yj @ h.T
            if span.start == 0:
                x_hat[0] = yj[0]
            # C = I (``AgentModel.gain_terms`` checks it), so r = y - x^
            np.subtract(yj, x_hat, out=residuals[j][span])
    return z, pi


def _by_agent(groups: list[list[int]], blocks) -> dict[int, np.ndarray]:
    """Every agent's slice of its group's block (agent axis first), keyed
    by agent id in id order."""
    views = (
        (i, block[j])
        for group, block in zip(groups, blocks)
        for j, i in enumerate(group)
    )
    return dict(sorted(views))


def _plant(plan: Plan, times: np.ndarray) -> tuple[np.ndarray, ...]:
    """The monolithic physical layer's states from x_0, and its drives:
    source setpoints u, loads d and process draws w, one row per step.
    The drive rows are formed in place in the state array; the load term
    takes one product per block of rows (``lti.row_blocks``)."""
    config, gm, plant, n_steps = plan.config, plan.gm, plan.plant, plan.n_steps
    spec, n = config.network, config.network.n_bus
    u = np.column_stack(
        [
            _source_series(
                config.source_schedule.get(i, []),
                spec.buses[i - 1].v_source_nominal,
                n_steps,
                config.ts,
            )
            for i in range(1, n + 1)
        ]
    )
    d = np.column_stack(
        [
            _load_series(
                config.load_profiles.get(i, [LoadSegment(t_start=0.0)]),
                n_steps,
                config.ts,
                _stream(config.seeds, _TAG_LOAD, i),
            )
            for i in range(1, n + 1)
        ]
    )

    # partition_agent gives every state the process noise variance q_state
    proc_var = np.full(gm.n_state, config.noise.q_state)
    if config.noise.inject:
        w = sample_noise(_stream(config.seeds, _TAG_PROCESS), proc_var, size=n_steps)
    else:
        w = np.zeros((n_steps, gm.n_state))

    # exported state and boundary voltages; an overflow is reported below
    # as the step it reached, not as warnings
    x = np.empty((n_steps + 1, gm.n_state))
    x[0] = plan.x0
    with np.errstate(over="ignore", invalid="ignore"):
        drive = x[1:]
        np.matmul(u, plant.b.T, out=drive)
        for span in row_blocks(n_steps, x[0].nbytes):
            drive[span] += d[span] @ plant.e.T
        drive += w
        propagate_into(plant.a, x)
    if not np.isfinite(x).all():
        k = int(np.argmin(np.isfinite(x).all(axis=1)))
        raise NonFinite(
            f"plant state is not finite from step {k} (t = {times[k]:g} s); "
            "a network parameter or input is too large"
        )
    return x, u, d, w


def _metered(plan: Plan, x, u, d, w) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each group's input block and metered layer, from the plant's states
    and drives.  A group's input and drive rows are formed a block at a
    time (``lti.row_blocks``), so no temporary grows with the horizon and
    each pass over the plant's series serves every agent of the group."""
    config, models, n_steps = plan.config, plan.models, plan.n_steps
    # one input block per group: row k holds each agent's source setpoint
    # and the neighbour voltages it receives at step k; the last row is
    # held but never consumed, and repeats the last setpoint
    inputs, x_local = [], []
    for group in plan.groups:
        model = models[group[0]]
        buses = np.array(group) - 1
        nbrs = [[cp.neighbor - 1 for cp in models[i].couplings] for i in group]
        block = np.empty((len(group), n_steps + 1, 1 + len(nbrs[0])))
        block[:, n_steps, 0] = u[-1, buses]
        block[:, n_steps, 1:] = x[n_steps, nbrs]
        # metered layer: each agent's sampled-data reality, advanced by the
        # group's model under the true (held) boundary voltages, sharing the
        # physical noise draws in the agent's own orientation
        index = np.stack([models[i].state_index for i in group])
        sign = np.stack([models[i].state_sign for i in group])
        loc = np.empty((len(group), n_steps + 1, model.n))
        loc[:, 0] = x[0, index] * sign
        for span in row_blocks(n_steps, loc[:, 0].nbytes):
            inp, drive = block[:, span], loc[:, span.start + 1 : span.stop + 1]
            inp[..., 0] = u[span, buses].T
            inp[..., 1:] = x[span][:, nbrs].swapaxes(0, 1)
            np.matmul(inp, model.b_x.T, out=drive)
            drive += d[span, buses].T[..., None] @ model.e.T
            noise = w[span][:, index]
            noise *= sign
            drive += noise.swapaxes(0, 1)
        propagate_into(model.a, loc)
        x_local.append(loc)
        # the metered layer has read the true voltages; the observers and
        # comms see what was sent, falsified by the attacks
        for atk in config.attacks:
            if atk.victim in group:
                j = group.index(atk.victim)
                slot = 1 + nbrs[j].index(atk.source - 1)
                k0 = step_index(atk.start, config.ts)
                k1 = step_index(atk.end, config.ts)
                block[j, k0:k1, slot] += atk.bias
        inputs.append(block)
    return inputs, x_local


def run_scenario(config: ScenarioConfig) -> SimulationTrace:
    """Simulate the network, run every agent's observer, and scan from the
    warm-up's end each residual divided by its model sigma (see ``sim``)."""
    plan = prepare(config)
    models, groups, n_steps = plan.models, plan.groups, plan.n_steps
    times = np.arange(n_steps + 1) * config.ts
    # each agent's measurement noise fills its row of its group's y block
    # on the executor's worker while this thread forms the plant and
    # metered layer
    y = [np.empty((len(g), n_steps + 1, models[g[0]].m)) for g in groups]
    jobs = [(g, _noise_std(np.diag(models[g[0]].r)), b) for g, b in zip(groups, y)]

    def draw() -> None:
        # bench/tracing.py's span stack is not thread-safe: call nothing it
        # wraps here (``sample_noise`` among them); each row is drawn as
        # ``sample_noise`` would draw it, from the agent's own stream
        for group, std, block in jobs if config.noise.inject else ():
            for i, row in zip(group, block):
                _stream(config.seeds, _TAG_MEASUREMENT, i).standard_normal(out=row)
                row *= std

    # imported here: it loads logging, which ``import dcmg`` never needs
    from concurrent.futures import ThreadPoolExecutor

    # leaving the block waits for the draws, even if the plant fails: never
    # leave them running, nor use a half-filled y
    with ThreadPoolExecutor(1) as pool:
        drawn = pool.submit(draw)
        x, *drives = _plant(plan, times)
        inputs, x_local = _metered(plan, x, *drives)
        del drives  # kept through the observers, u, d and w would raise the peak RSS
    drawn.result()
    # C = I: each agent measures its metered states, plus noise
    for y_block, loc in zip(y, x_local):
        if config.noise.inject:
            y_block += loc
        else:
            y_block[...] = loc

    k_warm = step_index(config.warmup, config.ts, "warmup")
    # every agent's residual channels side by side, so that one monitor
    # call scans them all without copying
    bounds = np.cumsum([0] + [len(model.labels) for model in models.values()])
    residual_block = np.empty((n_steps + 1, bounds[-1]))
    residuals = {
        i: residual_block[:, start:end]
        for i, start, end in zip(models, bounds[:-1], bounds[1:])
    }
    x_hat, sigma = [], []
    for group, y_block, block in zip(groups, y, inputs):
        model = models[group[0]]
        xh, pi = _run_observer(model, y_block, block, [residuals[i] for i in group])
        x_hat.append(xh)
        # C = I: r = eps + M v with M = I - H, eps independent of v
        m = np.eye(model.m) - model.structural[0]
        sd = np.sqrt(np.diag(pi + m @ model.r @ m.T))
        sigma.append(np.tile(sd, (len(group), 1)))
    sigmas = _by_agent(groups, sigma)

    alarms = monitor(
        residual_block[k_warm:],
        times[k_warm:],
        np.concatenate(list(sigmas.values())),
        list(models.values()),
        config.detector,
    )
    alarm_flags = {i: np.zeros(n_steps + 1, dtype=np.int8) for i in models}
    for ev in alarms:
        alarm_flags[ev.agent][step_index(ev.time, config.ts) :] = 1

    return SimulationTrace(
        times=times,
        x_true=x,
        state_labels=list(plan.gm.state_labels),
        y=_by_agent(groups, y),
        comms=_by_agent(groups, [block[..., 1:] for block in inputs]),
        x_local=_by_agent(groups, x_local),
        x_hat=_by_agent(groups, x_hat),
        residuals=residuals,
        sigmas=sigmas,
        alarms=alarms,
        alarm_flags=alarm_flags,
        models=models,
    )
