"""Closed-loop scenario engine.

Propagates the sampled-data network truth under seeded load profiles,
source schedules, process/measurement noise and bias attacks on the
exchanged neighbour voltages, then runs every agent's unknown-input
observer on its own measurements plus the (possibly falsified) received
voltages, and finally feeds the residual streams to the detector.

The truth has two layers, the standard decoupling for sampled-data
co-simulation.  A monolithic physical layer -- the wired-up network,
ZOH-discretized as one system, exact for the piecewise-constant sources
and loads -- produces the exported global state and the bus voltages the
agents exchange.  On top of it, each agent's metered reality advances by
that agent's own discretized model, driven by the received (held)
boundary voltages and sharing the physical layer's noise draws in its
own orientation.  This keeps every observer exactly matched to the data
it consumes, which the residual analysis relies on: feeding the agents
slices of the monolithic state instead would make the held-voltage
assumption wrong within each step (1/C is large) and swamp the line
channels with noise far above the modelled innovation covariance, while
closing the loop among the per-agent models (each integrating against
the other's held samples) is unstable at practical step sizes because
the lightly damped LC line modes get only a few samples per period.

All three layers -- the plant, the metered layer (one batched call per
group of agents with equal state count) and the observer once its gains
have frozen -- step their linear recursions with ``lti.propagate``.

All event times (segment starts, attack windows, warm-up, horizon) must
fall on multiples of the step size so scenarios are reproducible bit for
bit from their seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# ``monitor`` is unused here but stays a name of this module:
# bench/tracing.py times the detector by wrapping ``dcmg.sim.monitor``
from .detect import (  # noqa: F401
    DetectionEvent,
    DetectorConfig,
    _latch_events,
    ewma_statistic,
    monitor,
)
from .errors import (
    DimensionMismatch,
    NegativeVariance,
    NonPositiveInput,
    ValidationError,
)
from .lti import discretize_zoh, propagate
from .netmodel import NetworkSpec, build_global, partition_agent
from .uio import AgentModel, discretize_agent, gain_step, init_observer

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

    q_state: float = 10.0
    r_bus: float = 100.0
    r_line: float = 10.0
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
    freeze_gains: bool = True
    freeze_tol: float = 1e-12


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


def sample_noise(stream, covariance_diag, size: int | None = None) -> np.ndarray:
    """Zero-mean Gaussian draws with the given diagonal covariance.

    Returns one vector, or a (size, len(diag)) block drawn in a single
    generator call when ``size`` is given.
    """
    var = np.asarray(covariance_diag, dtype=float)
    if var.ndim != 1:
        raise NegativeVariance(f"covariance diagonal must be 1-D, got {var.shape}")
    if (var < 0.0).any():
        raise NegativeVariance(f"negative variance in {var}")
    std = np.sqrt(var)
    if size is None:
        return stream.standard_normal(var.shape[0]) * std
    return stream.standard_normal((size, var.shape[0])) * std


def lift_received_inputs(
    model: AgentModel, local_inputs, received_voltages
) -> np.ndarray:
    """Stack [local control inputs; received neighbour voltages] in the
    column order of ``model.b_x``."""
    local_inputs = np.asarray(local_inputs, dtype=float)
    received_voltages = np.asarray(received_voltages, dtype=float)
    if local_inputs.shape != (model.n_inputs,):
        raise DimensionMismatch(
            f"local inputs must have shape ({model.n_inputs},), got {local_inputs.shape}"
        )
    if received_voltages.shape != (model.n_neighbors,):
        raise DimensionMismatch(
            f"received voltages must have shape ({model.n_neighbors},), "
            f"got {received_voltages.shape}"
        )
    return np.concatenate([local_inputs, received_voltages])


def step_index(t: float, ts: float, what: str = "event time") -> int:
    """Map an event time onto its step index, rejecting non-finite and
    off-grid times."""
    if not (math.isfinite(ts) and ts > 0.0):
        raise ValidationError(f"ts must be finite and > 0, got {ts!r}")
    if not math.isfinite(t):
        raise ValidationError(f"{what} must be finite, got {t!r}")
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
    config.network.validate()
    n = config.network.n_bus
    if not (math.isfinite(config.ts) and config.ts > 0.0):
        raise ValidationError(f"ts must be finite and > 0, got {config.ts}")
    if config.horizon < config.ts:
        raise ValidationError(
            f"horizon must cover at least one step, got {config.horizon}"
        )
    n_steps = step_index(config.horizon, config.ts, "horizon")
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
    if config.freeze_tol < 0.0:
        raise ValidationError(f"freeze_tol must be >= 0, got {config.freeze_tol}")

    if config.noise.q_state < 0 or config.noise.r_bus < 0 or config.noise.r_line < 0:
        raise ValidationError("noise: variances must be >= 0")

    for bus in sorted(config.seeds.measurement):
        if not (1 <= bus <= n):
            raise ValidationError(f"seeds.measurement: unknown bus id {bus}")
    for bus in sorted(config.seeds.load):
        if not (1 <= bus <= n):
            raise ValidationError(f"seeds.load: unknown bus id {bus}")

    for bus, segments in sorted(config.load_profiles.items()):
        where = f"load_profiles[{bus}]"
        if not (1 <= bus <= n):
            raise ValidationError(f"{where}: unknown bus id {bus}")
        if not segments:
            raise ValidationError(f"{where}: empty profile")
        prev = -1
        for s_idx, seg in enumerate(segments):
            here = f"{where}[{s_idx}]"
            k = step_index(seg.t_start, config.ts, f"{here}.t_start")
            if s_idx == 0 and k != 0:
                raise ValidationError(f"{here}.t_start must be 0.0")
            if k <= prev and s_idx > 0:
                raise ValidationError(f"{here}.t_start must increase")
            if k >= n_steps and s_idx > 0:
                raise ValidationError(f"{here}.t_start must lie before the horizon")
            prev = k
            if seg.kind not in LOAD_KINDS:
                raise ValidationError(
                    f"{here}.kind must be one of {LOAD_KINDS}, got {seg.kind!r}"
                )
            if seg.kind == "ramp" and seg.level_end is None:
                raise ValidationError(f"{here}: ramp segment needs level_end")
            if seg.walk_std < 0.0:
                raise ValidationError(f"{here}.walk_std must be >= 0")

    for bus, steps in sorted(config.source_schedule.items()):
        where = f"source_schedule[{bus}]"
        if not (1 <= bus <= n):
            raise ValidationError(f"{where}: unknown bus id {bus}")
        if not steps:
            raise ValidationError(f"{where}: empty schedule")
        prev = -1
        for s_idx, st in enumerate(steps):
            here = f"{where}[{s_idx}]"
            k = step_index(st.t_start, config.ts, f"{here}.t_start")
            if s_idx == 0 and k != 0:
                raise ValidationError(f"{here}.t_start must be 0.0")
            if k <= prev and s_idx > 0:
                raise ValidationError(f"{here}.t_start must increase")
            if k >= n_steps and s_idx > 0:
                raise ValidationError(f"{here}.t_start must lie before the horizon")
            prev = k
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
    if config.detector.sigma_source == "warmup" and k_warm == 0:
        raise ValidationError(
            "detector.sigma_source = 'warmup' needs a positive warmup window"
        )


def _load_series(
    segments: list[LoadSegment], n_steps: int, ts: float, rng
) -> np.ndarray:
    out = np.empty(n_steps)
    bounds = [step_index(seg.t_start, ts) for seg in segments] + [n_steps]
    for seg, k0, k1 in zip(segments, bounds[:-1], bounds[1:]):
        span = k1 - k0
        if span <= 0:
            continue
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
    if not steps:
        return np.full(n_steps, nominal)
    out = np.empty(n_steps)
    bounds = [step_index(st.t_start, ts) for st in steps] + [n_steps]
    for st, k0, k1 in zip(steps, bounds[:-1], bounds[1:]):
        out[k0:k1] = st.volts
    return out


def _dc_operating_point(a: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """Fixed point ``(I - a) x = forcing`` of a held-input recursion.

    For a ZOH-discretized system this coincides exactly with the
    continuous equilibrium, so a noise-free run started here sits still.
    Falls back to zeros when the network has no unique DC operating
    point (singular ``I - a``).
    """
    try:
        return np.linalg.solve(np.eye(a.shape[0]) - a, forcing)
    except np.linalg.LinAlgError:
        return np.zeros(a.shape[0])


def _run_observer(
    model: AgentModel, y: np.ndarray, u_x: np.ndarray, config: ScenarioConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run one agent's observer over the whole horizon.

    The gain recursion converges geometrically, so once the covariance
    trace stops moving (|delta| < freeze_tol * max(1, |trace|)) the gains
    are frozen and the remaining z-recursion runs as one ``propagate``
    call; until then it is stepped together with the gains.  Returns
    (x_hat, residuals, final covariance).
    """
    n_steps = u_x.shape[0]
    state = init_observer(model, y[0])
    h, t = model.structural
    tbu = u_x @ (t @ model.b_x).T
    z = np.empty((n_steps + 1, model.n))
    z[0] = state.z
    p = state.p
    tr_prev = np.trace(p)
    for k in range(n_steps):
        gains, p = gain_step(model, p)
        tr = np.trace(p)
        k_sum = gains.k1 + gains.k2
        if config.freeze_gains and abs(tr - tr_prev) < config.freeze_tol * max(
            1.0, abs(tr)
        ):
            z[k:] = propagate(gains.f, z[k], tbu[k:] + y[k:n_steps] @ k_sum.T)
            break
        tr_prev = tr
        z[k + 1] = gains.f @ z[k] + tbu[k] + k_sum @ y[k]
    x_hat = z + y @ h.T
    x_hat[0] = state.x_hat
    return x_hat, y - x_hat @ model.c.T, p


def run_scenario(config: ScenarioConfig) -> SimulationTrace:
    """Simulate the network, run every agent's observer, scan residuals."""
    validate_config(config)
    spec = config.network
    n = spec.n_bus
    gm = build_global(spec)
    models: dict[int, AgentModel] = {}
    for i in range(1, n + 1):
        cont = partition_agent(
            gm,
            spec,
            i,
            q_state=config.noise.q_state,
            r_bus=config.noise.r_bus,
            r_line=config.noise.r_line,
        )
        models[i] = discretize_agent(cont, config.ts)
    plant = discretize_zoh(gm.a_c, gm.b_c, gm.e_c, config.ts)

    n_steps = step_index(config.horizon, config.ts, "horizon")
    times = np.arange(n_steps + 1) * config.ts

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

    # canonical per-state process noise variances from the agents' Q blocks;
    # line entries take the variance assigned by their canonical tail agent
    proc_var = np.zeros(2 * n + spec.n_line)
    for i, model in models.items():
        proc_var[i - 1] = model.q[0, 0]
        proc_var[n + i - 1] = model.q[1, 1]
        for j, cp in enumerate(model.couplings):
            if cp.sign > 0:
                proc_var[2 * n + cp.line_index] = model.q[2 + j, 2 + j]
    if config.noise.inject:
        w = sample_noise(_stream(config.seeds, _TAG_PROCESS), proc_var, size=n_steps)
    else:
        w = np.zeros((n_steps, proc_var.shape[0]))

    # monolithic physical layer: exported state and boundary voltages
    if config.initial_state == "steady":
        x0 = _dc_operating_point(plant.a, plant.b @ u[0] + plant.e @ d[0])
    else:
        x0 = np.zeros(gm.n_state)
    x = propagate(plant.a, x0, u @ plant.b.T + d @ plant.e.T + w)

    comms: dict[int, np.ndarray] = {}
    u_x: dict[int, np.ndarray] = {}
    for i, model in models.items():
        received = x[:, [cp.neighbor - 1 for cp in model.couplings]]
        for atk in config.attacks:
            if atk.victim != i:
                continue
            slot = next(
                j for j, cp in enumerate(model.couplings) if cp.neighbor == atk.source
            )
            k0 = step_index(atk.start, config.ts)
            k1 = step_index(atk.end, config.ts)
            received[k0:k1, slot] += atk.bias
        comms[i] = received
        # the observer consumes the telemetered (possibly falsified) voltages
        u_x[i] = np.hstack([u[:, i - 1 : i], received[:n_steps]])

    # per-agent layer: each agent's sampled-data reality, advanced by its
    # own model under the true (held) boundary voltages, sharing the
    # physical noise draws in the agent's orientation; agents with equal
    # state counts propagate as one batch
    x_local: dict[int, np.ndarray] = {}
    for n_loc in sorted({model.n for model in models.values()}):
        group = [i for i, model in models.items() if model.n == n_loc]
        drive = np.empty((len(group), n_steps, n_loc))
        x0_loc = np.empty((len(group), n_loc))
        for g, i in enumerate(group):
            model = models[i]
            x0_loc[g] = x[0, model.state_index] * model.state_sign
            boundary = x[:n_steps, [cp.neighbor - 1 for cp in model.couplings]]
            u_phys = np.hstack([u[:, i - 1 : i], boundary])
            w_loc = w[:, model.state_index] * model.state_sign
            drive[g] = u_phys @ model.b_x.T + d[:, i - 1 : i] @ model.e.T + w_loc
        loc = propagate(np.stack([models[i].a for i in group]), x0_loc, drive)
        del drive
        x_local.update(zip(group, loc))
    x_local = dict(sorted(x_local.items()))
    # the physical inputs are spent; the observers read only u_x and y
    del u, d, w

    y: dict[int, np.ndarray] = {}
    for i, model in models.items():
        if config.noise.inject:
            v = sample_noise(
                _stream(config.seeds, _TAG_MEASUREMENT, i),
                np.diag(model.r),
                size=n_steps + 1,
            )
        else:
            v = 0.0
        y[i] = x_local[i] @ model.c.T + v

    x_hat: dict[int, np.ndarray] = {}
    sigmas: dict[int, np.ndarray] = {}
    k_warm = step_index(config.warmup, config.ts, "warmup")
    # every agent's residual channels side by side, so that one EWMA call
    # covers them all without copying
    bounds = np.cumsum([0] + [len(model.labels) for model in models.values()])
    residual_block = np.empty((n_steps + 1, bounds[-1]))
    residuals = {
        i: residual_block[:, start:end]
        for i, start, end in zip(models, bounds[:-1], bounds[1:])
    }
    for i, model in models.items():
        xh, res, p_end = _run_observer(model, y[i], u_x[i], config)
        x_hat[i] = xh
        residuals[i][:] = res
        if config.detector.sigma_source == "warmup":
            stop = max(k_warm + 1, 2)
            sigmas[i] = np.std(res[1:stop], axis=0)
        else:
            sigmas[i] = np.sqrt(np.diag(model.c @ p_end @ model.c.T + model.r))

    # free the observer inputs before the detector's arrays
    del u_x, res
    stat = ewma_statistic(
        residual_block[k_warm:],
        np.concatenate(list(sigmas.values())),
        config.detector.ewma_alpha,
    )
    alarms: list[DetectionEvent] = []
    alarm_flags: dict[int, np.ndarray] = {}
    for (i, model), start, end in zip(models.items(), bounds[:-1], bounds[1:]):
        events = _latch_events(
            stat[:, start:end], times[k_warm:], model, config.detector
        )
        alarms.extend(events)
        flags = np.zeros(n_steps + 1, dtype=np.int8)
        for ev in events:
            flags[step_index(ev.time, config.ts) :] = 1
        alarm_flags[i] = flags
    alarms.sort(key=lambda ev: (ev.time, ev.agent, ev.component))

    return SimulationTrace(
        times=times,
        x_true=x,
        state_labels=list(gm.state_labels),
        y=y,
        comms=comms,
        x_local=x_local,
        x_hat=x_hat,
        residuals=residuals,
        sigmas=sigmas,
        alarms=alarms,
        alarm_flags=alarm_flags,
        models=models,
    )
