"""Correctness checks on the outputs of one workload call.

Every expected value is computed here from the scenario file alone, or
from a property the method must have; nothing is compared against a
stored copy of an earlier output.  The network and agent models are
rebuilt from the bus and line parameters and discretized with
``scipy.linalg.expm``, without ``dcmg.lti`` or ``dcmg.netmodel``.  The only
program code the checks run is ``dcmg.uio.gain_step``, iterated to
convergence on an ``AgentModel`` holding those independent matrices, for
the bias-response prediction.

Noise bounds are six standard errors.  Means of autocorrelated residual
windows use batch means (the observer's error decays with spectral
radius about 0.73, so residual autocorrelation is gone within a few
steps and 50-step batches are independent).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

Z = 6.0  # noise bound in standard errors
SETTLE_STEPS = 200  # observer transient after an attack edge: 0.73**200 ~ 1e-27
LATENCY_S = 0.1  # an accusation must follow its attack onset within this
MIN_BATCH = 50


@dataclass
class Event:
    agent: int
    accused: int | None
    component: str
    time: float


@dataclass
class Outputs:
    """What a workload call produced, in the program's documented layout.

    ``labels[i]`` are agent i's channel labels as the program names them.
    ``dcmg run`` exports neither ``y`` nor ``x_local``; for its outputs
    ``y`` is r + x_hat (C = I) and ``x_local`` is rebuilt by
    ``metered_layer``.
    """

    times: np.ndarray
    state_labels: list[str]
    x_true: np.ndarray
    labels: dict[int, list[str]]
    residuals: dict[int, np.ndarray]
    events: list[Event]
    y: dict[int, np.ndarray]
    x_local: dict[int, np.ndarray]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# independent model of the scenario


def _canonical_lines(scn: dict) -> list[tuple[int, int, float, float]]:
    out = []
    for line in scn["network"]["lines"]:
        tail, head = sorted((line["tail"], line["head"]))
        out.append((tail, head, line["r_line"], line["l_line"]))
    return out


def global_model(scn: dict):
    """Continuous network model from the circuit equations.

    C V' = Ig - I_load - sum(outgoing line currents),
    L Ig' = u - V - (R_droop + R) Ig,  L_l I_l' = V_tail - V_head - R_l I_l.
    States [V_1..V_n, Ig_1..Ig_n, line currents tail -> head].
    """
    buses = scn["network"]["buses"]
    lines = _canonical_lines(scn)
    n = len(buses)
    size = 2 * n + len(lines)
    a = np.zeros((size, size))
    b = np.zeros((size, n))
    e = np.zeros((size, n))
    for i, bus in enumerate(buses):
        c, ll = bus["c_output"], bus["l_internal"]
        a[i, n + i] = 1.0 / c
        e[i, i] = -1.0 / c
        a[n + i, i] = -1.0 / ll
        a[n + i, n + i] = -(bus["droop_gain"] + bus["r_internal"]) / ll
        b[n + i, i] = 1.0 / ll
    for k, (tail, head, r, ll) in enumerate(lines):
        row = 2 * n + k
        a[row, tail - 1] = 1.0 / ll
        a[row, head - 1] = -1.0 / ll
        a[row, row] = -r / ll
        a[tail - 1, row] = -1.0 / buses[tail - 1]["c_output"]
        a[head - 1, row] = 1.0 / buses[head - 1]["c_output"]
    labels = (
        [f"V{i}" for i in range(1, n + 1)]
        + [f"Ig{i}" for i in range(1, n + 1)]
        + [f"I{t}_{h}" for t, h, _, _ in lines]
    )
    return a, b, e, labels


@dataclass
class LocalModel:
    """Agent i's continuous local model: states [V, Ig, incident line
    currents oriented away from the agent, in line-list order], inputs
    [u, one neighbour voltage per incident line], disturbance = the load."""

    a: np.ndarray
    b_x: np.ndarray
    e: np.ndarray
    labels: list[str]
    neighbours: list[int]
    lines: list[int]
    signs: list[float]


def agent_model(scn: dict, agent: int) -> LocalModel:
    bus = scn["network"]["buses"][agent - 1]
    incident = [
        (k, tail, head, r, ll)
        for k, (tail, head, r, ll) in enumerate(_canonical_lines(scn))
        if agent in (tail, head)
    ]
    size = 2 + len(incident)
    a = np.zeros((size, size))
    b = np.zeros((size, size - 1))
    e = np.zeros((size, 1))
    c, ll_i = bus["c_output"], bus["l_internal"]
    a[0, 1] = 1.0 / c
    e[0, 0] = -1.0 / c
    a[1, 0] = -1.0 / ll_i
    a[1, 1] = -(bus["droop_gain"] + bus["r_internal"]) / ll_i
    b[1, 0] = 1.0 / ll_i
    out = LocalModel(a, b, e, [f"V{agent}", f"Ig{agent}"], [], [], [])
    for j, (k, tail, head, r, ll) in enumerate(incident):
        row = 2 + j
        nbr = head if tail == agent else tail
        a[0, row] = -1.0 / c
        a[row, 0] = 1.0 / ll
        a[row, row] = -r / ll
        b[row, 1 + j] = -1.0 / ll
        out.labels.append(f"I{agent}_{nbr}")
        out.neighbours.append(nbr)
        out.lines.append(k)
        out.signs.append(1.0 if tail == agent else -1.0)
    return out


def zoh(a_c: np.ndarray, b_c: np.ndarray, ts: float):
    """Exact held-input discretization through one augmented exponential."""
    n, nb = a_c.shape[0], b_c.shape[1]
    aug = np.zeros((n + nb, n + nb))
    aug[:n, :n] = a_c * ts
    aug[:n, n:] = b_c * ts
    ex = scipy.linalg.expm(aug)
    return ex[:n, :n], ex[:n, n:]


def step_of(t: float, ts: float) -> int:
    return int(round(t / ts))


def n_steps(scn: dict) -> int:
    return step_of(scn["horizon"], scn["ts"])


def input_series(scn: dict, steps: int):
    """Held source voltages u and loads d, (steps, n_bus) each.  The
    benchmark's scenarios use constant segments only."""
    buses = scn["network"]["buses"]
    ts = scn["ts"]
    u = np.empty((steps, len(buses)))
    d = np.zeros((steps, len(buses)))
    for i, bus in enumerate(buses, start=1):
        u[:, i - 1] = bus["v_source_nominal"]
        for st in scn["source_schedule"].get(str(i), []):
            u[step_of(st["t_start"], ts) :, i - 1] = st["volts"]
        for seg in scn["load_profiles"].get(str(i), []):
            if seg["kind"] != "constant":
                raise ValueError(f"load segment kind {seg['kind']!r} is not modelled")
            d[step_of(seg["t_start"], ts) :, i - 1] = seg["level"]
    return u, d


def edges(scn: dict) -> list[float]:
    """Times after t = 0 at which an attack or a load changes."""
    out = {s["t_start"] for segs in scn["load_profiles"].values() for s in segs}
    for atk in scn["attacks"]:
        out.update((atk["start"], atk["end"]))
    return sorted(t for t in out if 0.0 < t < scn["horizon"])


def load_steps(scn: dict) -> list[float]:
    out = {s["t_start"] for segs in scn["load_profiles"].values() for s in segs}
    return sorted(t for t in out if t > 0.0)


def phases(scn: dict) -> list[tuple[int, int]]:
    """Sample windows [k0, k1) between consecutive edges after warm-up,
    each starting SETTLE_STEPS after its opening edge."""
    ts = scn["ts"]
    cuts = [scn["warmup"]] + [t for t in edges(scn) if t > scn["warmup"]]
    ks = [step_of(t, ts) for t in cuts] + [n_steps(scn) + 1]
    return [(k0 + SETTLE_STEPS, k1) for k0, k1 in zip(ks[:-1], ks[1:])]


def mean_se(x: np.ndarray):
    """Window mean and its batch-means standard error, per column."""
    nb = min(50, x.shape[0] // MIN_BATCH)
    if nb < 10:
        raise ValueError(f"window of {x.shape[0]} samples is too short")
    size = x.shape[0] // nb
    bm = x[: nb * size].reshape(nb, size, -1).mean(axis=1)
    return bm.mean(axis=0), bm.std(axis=0, ddof=1) / math.sqrt(nb)


def _labels_ok(scn: dict, out: Outputs) -> str:
    for i in out.labels:
        mine = agent_model(scn, i).labels
        if out.labels[i] != mine:
            return f"agent {i} channels {out.labels[i]} != {mine}"
    return ""


# ---------------------------------------------------------------------------
# checks


def plant_noise(scn: dict, x_true: np.ndarray) -> np.ndarray:
    """x_true increments minus the ZOH prediction, (steps, n_state)."""
    a_c, b_c, e_c, _ = global_model(scn)
    a, bd = zoh(a_c, np.hstack([b_c, e_c]), scn["ts"])
    u, d = input_series(scn, x_true.shape[0] - 1)
    return x_true[1:] - x_true[:-1] @ a.T - np.hstack([u, d]) @ bd.T


def metered_layer(scn: dict, x_true: np.ndarray) -> dict[int, np.ndarray]:
    """Each agent's metered reality as the README describes it: the
    agent's own ZOH model driven by its source, its load, the true
    neighbour voltages and the plant's noise draws in its orientation,
    started from its slice of the initial network state."""
    n = len(scn["network"]["buses"])
    w = plant_noise(scn, x_true)
    u, d = input_series(scn, w.shape[0])
    out = {}
    for i in range(1, n + 1):
        loc = agent_model(scn, i)
        a, bd = zoh(loc.a, np.hstack([loc.b_x, loc.e]), scn["ts"])
        index = [i - 1, n + i - 1] + [2 * n + k for k in loc.lines]
        sign = np.array([1.0, 1.0] + loc.signs)
        inputs = np.column_stack([u[:, i - 1], x_true[:-1, [nb - 1 for nb in loc.neighbours]], d[:, i - 1]])
        drive = inputs @ bd.T + w[:, index] * sign
        x = np.empty((w.shape[0] + 1, a.shape[0]))
        x[0] = x_true[0, index] * sign
        for k in range(w.shape[0]):
            x[k + 1] = a @ x[k] + drive[k]
        out[i] = x
    return out


def check_plant(scn: dict, out: Outputs) -> Check:
    """x_true increments minus the ZOH prediction are the process noise:
    mean 0 and variance q_state in every state."""
    labels = global_model(scn)[3]
    if labels != out.state_labels:
        return Check("plant", False, f"state labels {out.state_labels} != {labels}")
    w = plant_noise(scn, out.x_true)
    steps = w.shape[0]
    q = scn["noise"]["q_state"]
    z_mean = w.mean(axis=0) / math.sqrt(q / steps)
    var = w.var(axis=0)
    z_var = (var / q - 1.0) / math.sqrt(2.0 / steps)
    worst = int(np.argmax(np.maximum(abs(z_mean), abs(z_var))))
    ok = bool(np.all(abs(z_mean) < Z) and np.all(abs(z_var) < Z))
    detail = (
        f"noise variance {var.min():.3f}..{var.max():.3f} for q_state = {q:g}; "
        f"worst state {labels[worst]}: mean z = {z_mean[worst]:.2f}, "
        f"variance z = {z_var[worst]:.2f}"
    )
    return Check("plant", ok, detail)


def check_metered(scn: dict, out: Outputs) -> Check:
    """y - C x_local (C = I) is the measurement noise: mean 0 and variance
    r_bus on V and Ig, r_line on every line current."""
    if msg := _labels_ok(scn, out):
        return Check("metered", False, msg)
    noise = scn["noise"]
    worst, detail = 0.0, ""
    for i, labels in out.labels.items():
        r = np.array([noise["r_bus"]] * 2 + [noise["r_line"]] * (len(labels) - 2))
        v = out.y[i] - out.x_local[i]
        k = v.shape[0]
        z_mean = v.mean(axis=0) / np.sqrt(r / k)
        z_var = (v.var(axis=0) / r - 1.0) / math.sqrt(2.0 / k)
        z = np.maximum(abs(z_mean), abs(z_var))
        c = int(np.argmax(z))
        if z[c] >= worst:
            worst = float(z[c])
            detail = f"worst channel {labels[c]}: variance {v[:, c].var():.3f} for {r[c]:g}"
    return Check("metered", worst < Z, f"{detail}, |z| = {worst:.2f}")


def check_attribution(scn: dict, out: Outputs) -> Check:
    """Every agent accuses exactly the neighbours attacking it, each within
    LATENCY_S of its onset; bus-local (unattributed) events are ignored."""
    attacks = {(a["victim"], a["source"]): a["start"] for a in scn["attacks"]}
    seen: dict[tuple[int, int], float] = {}
    problems = []
    for ev in out.events:
        if ev.accused is None:
            continue
        key = (ev.agent, ev.accused)
        if key in seen:
            problems.append(f"agent {ev.agent} accuses bus {ev.accused} twice")
        seen[key] = ev.time
        if key not in attacks:
            problems.append(f"agent {ev.agent} falsely accuses bus {ev.accused} at {ev.time:g} s")
        elif not 0.0 <= ev.time - attacks[key] <= LATENCY_S:
            problems.append(
                f"agent {ev.agent} accuses bus {ev.accused} at {ev.time:g} s, "
                f"attack began at {attacks[key]:g} s"
            )
    for key in sorted(set(attacks) - set(seen)):
        problems.append(f"agent {key[0]} never accuses attacking bus {key[1]}")
    latency = {f"{v}<-{s}": seen[(v, s)] - attacks[(v, s)] for v, s in attacks if (v, s) in seen}
    detail = "; ".join(problems) or "latencies " + ", ".join(
        f"{k}: {1e3 * v:.1f} ms" for k, v in sorted(latency.items())
    )
    return Check("attribution", not problems, detail, {"latency_s": latency})


def check_load_step(scn: dict, out: Outputs) -> Check:
    """No residual mean moves across a load step and no event follows it."""
    steps = load_steps(scn)
    if not steps:
        return Check("load_step", True, "no load step in this workload")
    ts = scn["ts"]
    windows = phases(scn)
    problems, worst = [], 0.0
    for t in steps:
        k = step_of(t, ts)
        before = next(w for w in windows if w[1] == k)
        after = (k, next(w for w in windows if w[0] == k + SETTLE_STEPS)[1])
        late = [ev for ev in out.events if ev.time >= t]
        problems += [f"agent {ev.agent} {ev.component} fires at {ev.time:g} s" for ev in late]
        for i, res in out.residuals.items():
            m0, s0 = mean_se(res[before[0] : before[1]])
            m1, s1 = mean_se(res[after[0] : after[1]])
            z = abs(m1 - m0) / np.hypot(s0, s1)
            worst = max(worst, float(z.max()))
            for c in np.nonzero(z >= Z)[0]:
                problems.append(
                    f"agent {i} {out.labels[i][c]} mean moves {m0[c]:.3f} -> {m1[c]:.3f} "
                    f"at the {t:g} s load step"
                )
    detail = "; ".join(problems) or f"largest mean shift {worst:.2f} standard errors"
    return Check("load_step", not problems, detail)


def converged_gains(scn: dict, agent: int, tol: float = 1e-13, max_steps: int = 2000):
    """Observer gains and covariance of ``agent`` from iterating the
    program's ``uio.gain_step`` on the independently discretized model."""
    from dcmg.netmodel import Coupling
    from dcmg.uio import AgentModel, gain_step

    loc = agent_model(scn, agent)
    n_bus = len(scn["network"]["buses"])
    ts = scn["ts"]
    a, bd = zoh(loc.a, np.hstack([loc.b_x, loc.e]), ts)
    m = a.shape[0]
    noise = scn["noise"]
    model = AgentModel(
        agent_id=agent,
        a=a,
        b_x=bd[:, :-1],
        e=bd[:, -1:],
        c=np.eye(m),
        q=np.eye(m) * noise["q_state"],
        r=np.diag([noise["r_bus"]] * 2 + [noise["r_line"]] * (m - 2)),
        ts=ts,
        n_inputs=1,
        labels=list(loc.labels),
        couplings=[
            Coupling(neighbor=nb, column=loc.b_x[:, 1 + j], line_index=k, sign=int(sg))
            for j, (nb, k, sg) in enumerate(zip(loc.neighbours, loc.lines, loc.signs))
        ],
        state_index=np.array([agent - 1, n_bus + agent - 1] + [2 * n_bus + k for k in loc.lines]),
        state_sign=np.array([1.0, 1.0] + loc.signs),
    )
    p = np.eye(m)
    tr_prev = np.trace(p)
    for _ in range(max_steps):
        gains, p = gain_step(model, p)
        tr = np.trace(p)
        if abs(tr - tr_prev) < tol * max(1.0, abs(tr)):
            break
        tr_prev = tr
    return model, gains, p


def check_bias_response(scn: dict, out: Outputs) -> Check:
    """Between attack edges, each attacked agent's residual mean equals
    C (I - F)^-1 (-T B_x a) for the active bias vector a."""
    if msg := _labels_ok(scn, out):
        return Check("bias_response", False, msg)
    ts = scn["ts"]
    problems, worst = [], 0.0
    for victim in sorted({a["victim"] for a in scn["attacks"]}):
        model, g, _ = converged_gains(scn, victim)
        nbrs = agent_model(scn, victim).neighbours
        res = out.residuals[victim]
        for k0, k1 in phases(scn):
            bias = np.zeros(model.b_x.shape[1])
            for atk in scn["attacks"]:
                if atk["victim"] == victim and step_of(atk["start"], ts) < k0 <= step_of(atk["end"], ts):
                    bias[1 + nbrs.index(atk["source"])] += atk["bias"]
            expect = model.c @ np.linalg.solve(
                np.eye(model.n) - g.f, -(g.t @ model.b_x @ bias)
            )
            mean, se = mean_se(res[k0:k1])
            z = abs(mean - expect) / se
            worst = max(worst, float(z.max()))
            for c in np.nonzero(z >= Z)[0]:
                problems.append(
                    f"agent {victim} {model.labels[c]} over [{k0 * ts:g}, {k1 * ts:g}) s: "
                    f"mean {mean[c]:.3f}, predicted {expect[c]:.3f}"
                )
    detail = "; ".join(problems) or f"largest deviation {worst:.2f} standard errors"
    return Check("bias_response", not problems, detail)


def calibration(scn: dict, out: Outputs) -> dict:
    """Per channel: residual std over the attack-free part after warm-up,
    divided by the "innovation" sigma sqrt(diag(C P C^T + R)) of the
    converged covariance.  A diagnostic, not a check."""
    first = min([a["start"] for a in scn["attacks"]] + [scn["horizon"]])
    k0, k1 = step_of(scn["warmup"], scn["ts"]), step_of(first, scn["ts"])
    ratios = {}
    for i in sorted(out.residuals):
        model, _, p = converged_gains(scn, i)
        sigma = np.sqrt(np.diag(model.c @ p @ model.c.T + model.r))
        std = out.residuals[i][k0:k1].std(axis=0)
        ratios[i] = {lab: float(std[c] / sigma[c]) for c, lab in enumerate(model.labels)}
    return ratios


def outputs_from_trace(trace) -> Outputs:
    """Outputs of a ``run_scenario`` call."""
    return Outputs(
        times=trace.times,
        state_labels=trace.state_labels,
        x_true=trace.x_true,
        labels={i: m.labels for i, m in trace.models.items()},
        residuals=trace.residuals,
        events=[Event(ev.agent, ev.accused_neighbor, ev.component, ev.time) for ev in trace.alarms],
        y=trace.y,
        x_local=trace.x_local,
    )


def run_checks(scn: dict, out: Outputs) -> list[Check]:
    return [
        check_plant(scn, out),
        check_metered(scn, out),
        check_attribution(scn, out),
        check_load_step(scn, out),
        check_bias_response(scn, out),
    ]


# ---------------------------------------------------------------------------
# the artifacts of `dcmg run`


def trace_header(scn: dict) -> list[str]:
    """The documented trace.csv columns: time, network states, every
    agent's estimates, every agent's residuals, one alarm flag per agent."""
    n = len(scn["network"]["buses"])
    agents = [agent_model(scn, i).labels for i in range(1, n + 1)]
    return (
        ["time"]
        + global_model(scn)[3]
        + [f"xhat_{lab}" for labels in agents for lab in labels]
        + [f"r_{lab}" for labels in agents for lab in labels]
        + [f"alarm{i}" for i in range(1, n + 1)]
    )


def read_events_csv(path: Path) -> list[Event]:
    lines = path.read_text().splitlines()
    if lines[0] != "agent,accused_neighbor,component,time,statistic":
        raise ValueError(f"unexpected events.csv header {lines[0]!r}")
    out = []
    for row in lines[1:]:
        agent, accused, component, time, _ = row.split(",")
        out.append(Event(int(agent), int(accused) if accused else None, component, float(time)))
    return out


@dataclass
class CliArtifacts:
    header: list[str]
    data: np.ndarray
    events: list[Event]


def read_cli_artifacts(out_dir: Path) -> CliArtifacts:
    trace = out_dir / "trace.csv"
    with trace.open() as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(trace, delimiter=",", skiprows=1, ndmin=2)
    return CliArtifacts(header, data, read_events_csv(out_dir / "events.csv"))


def outputs_from_cli(scn: dict, art: CliArtifacts) -> Outputs:
    col = {name: j for j, name in enumerate(art.header)}
    n = len(scn["network"]["buses"])
    state_labels = global_model(scn)[3]
    labels = {i: agent_model(scn, i).labels for i in range(1, n + 1)}
    pick = lambda names: art.data[:, [col[c] for c in names]]  # noqa: E731
    x_true = pick(state_labels)
    residuals = {i: pick([f"r_{lab}" for lab in labels[i]]) for i in labels}
    return Outputs(
        times=art.data[:, col["time"]],
        state_labels=[lab for lab in art.header if lab in state_labels],
        x_true=x_true,
        labels=labels,
        residuals=residuals,
        events=art.events,
        y={i: residuals[i] + pick([f"xhat_{lab}" for lab in labels[i]]) for i in labels},
        x_local=metered_layer(scn, x_true),
    )


def check_trace_file(scn: dict, art: CliArtifacts) -> Check:
    """trace.csv has the documented columns and n_steps + 1 rows on the
    time grid, and each alarm flag switches to 1 exactly at that agent's
    first time in events.csv."""
    want = trace_header(scn)
    if art.header != want:
        return Check("trace_file", False, f"header {art.header} != {want}")
    steps, ts = n_steps(scn), scn["ts"]
    if art.data.shape != (steps + 1, len(want)):
        return Check("trace_file", False, f"shape {art.data.shape} != {(steps + 1, len(want))}")
    problems = []
    if np.abs(art.data[:, 0] - np.arange(steps + 1) * ts).max() > 1e-9:
        problems.append("time column is off the ts grid")
    for i in range(1, len(scn["network"]["buses"]) + 1):
        flag = art.data[:, want.index(f"alarm{i}")]
        first = [ev.time for ev in art.events if ev.agent == i]
        expect = np.zeros(steps + 1)
        if first:
            expect[step_of(min(first), ts) :] = 1.0
        if not np.array_equal(flag, expect):
            on = np.nonzero(flag)[0]
            problems.append(
                f"alarm{i} switches at step {on[0] if on.size else None}, "
                f"events.csv says {step_of(min(first), ts) if first else None}"
            )
    detail = "; ".join(problems) or f"{len(want)} columns, {steps + 1} rows"
    return Check("trace_file", not problems, detail)


def file_digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def array_digest(*parts) -> str:
    """sha256 over arrays (their raw bytes) and strings."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()
