"""End-to-end acceptance gate.

Each test prints one ``criterion N: PASS/FAIL`` line (bypassing capture)
with the measured numbers, then asserts.  Criteria cover: the observer's
structural decoupling identities, disturbance decoupling in closed loop,
equivalence to a standard optimal predictor when nothing needs
decoupling, reproduction of the three-bus attack scenario, the settled
covariance against an independent Lyapunov solve, the steady-state
residual prediction under a constant bias, bitwise determinism of
exported artifacts, and the discretization numerics."""

import hashlib
import time

import numpy as np
import pytest
import scipy.linalg

import dcmg.cli as cli
import dcmg.sim as sim
from dcmg.lti import discretize_zoh, matrix_exponential
from dcmg.netmodel import build_global, partition_agent
from dcmg.sim import (
    LoadSegment,
    NoiseConfig,
    AttackSpec,
    run_scenario,
    step_index,
)
from dcmg.uio import AgentModel, discretize_agent, gain_step
from networks import (
    SCENARIO,
    bundled_scenario,
    heterogeneous_network,
    path_network,
    threebus_network,
)
from oracles import predictor_step, zoh_series


@pytest.fixture
def announce(capsys):
    def _announce(criterion: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
        assert ok, f"criterion {criterion}: {detail}"

    return _announce


@pytest.fixture(scope="module")
def attack_run():
    config = bundled_scenario()
    t0 = time.perf_counter()
    trace = run_scenario(config)
    wall = time.perf_counter() - t0
    return config, trace, wall


def converged_gains(model: AgentModel, steps: int = 500):
    p = np.eye(model.n)
    for _ in range(steps):
        gains, p = gain_step(model, p)
    return gains, p


def test_criterion_1_decoupling_identities(agent_models, announce):
    worst = 0.0
    for model in agent_models.values():
        gains, _ = converged_gains(model, steps=50)
        eye = np.eye(model.n)
        residuals = [
            (eye - gains.h @ model.c) @ model.e,
            gains.t - (eye - gains.h @ model.c),
            gains.f - ((eye - gains.h @ model.c) @ model.a - gains.k1 @ model.c),
            gains.k2 - gains.f @ gains.h,
        ]
        worst = max(worst, max(np.max(np.abs(r)) for r in residuals))
    announce(
        1,
        worst <= 1e-10,
        f"all four gain identities on every agent, max abs {worst:.3e} (tol 1e-10)",
    )


def test_criterion_2_load_decoupling(announce):
    rng_profiles = {
        1: [
            LoadSegment(t_start=0.0, level=900.0),
            LoadSegment(t_start=0.5, kind="ramp", level=900.0, level_end=2400.0),
            LoadSegment(t_start=1.3, kind="random_walk", level=2400.0, walk_std=10.0),
        ],
        2: [
            LoadSegment(t_start=0.0, kind="random_walk", level=1200.0, walk_std=20.0),
        ],
        3: [
            LoadSegment(t_start=0.0, level=600.0),
            LoadSegment(t_start=1.0, level=1800.0),
        ],
    }
    config = bundled_scenario()
    config.horizon = 2.0
    config.warmup = 0.1
    config.attacks = []
    config.noise = NoiseConfig(inject=False)
    config.load_profiles = rng_profiles
    trace = run_scenario(config)
    k0 = step_index(config.warmup, config.ts)
    worst = max(
        float(np.max(np.abs(trace.residuals[i][k0:]))) for i in (1, 2, 3)
    )
    announce(
        2,
        worst < 1e-6,
        f"noise-free random load profiles leave max residual {worst:.3e} "
        "after 0.1 s (tol 1e-6)",
    )


def test_criterion_3_predictor_equivalence(agent_models, announce):
    base = agent_models[1]
    model = AgentModel(
        agent_id=base.agent_id,
        a=base.a,
        b_x=base.b_x,
        e=np.zeros((base.n, 0)),
        c=base.c,
        q=base.q,
        r=base.r,
        ts=base.ts,
        n_inputs=base.n_inputs,
        labels=base.labels,
        couplings=base.couplings,
        state_index=base.state_index,
        state_sign=base.state_sign,
    )
    p = np.eye(model.n)
    p_ref = np.eye(model.n)
    worst = 0.0
    for _ in range(100):
        gains, p = gain_step(model, p)
        k_ref, f_ref, p_ref = predictor_step(model.a, model.c, model.q, model.r, p_ref)
        worst = max(
            worst,
            float(np.max(np.abs(gains.k1 - k_ref))),
            float(np.max(np.abs(gains.f - f_ref))),
            float(np.max(np.abs(p - p_ref))),
        )
    announce(
        3,
        worst <= 1e-9,
        f"E = 0 recursion vs independent one-step predictor, max abs "
        f"deviation {worst:.3e} over 100 steps (tol 1e-9)",
    )


def test_criterion_4_attack_scenario(attack_run, announce):
    config, trace, wall = attack_run
    agent1 = [ev for ev in trace.alarms if ev.agent == 1]
    ok_count = len(agent1) == 3
    found = {(ev.accused_neighbor, ev.component): ev.time for ev in agent1}
    ok_first = all(
        4.0 <= found.get(key, -1.0) <= 4.1 for key in ((3, "I1_3"), (None, "V1"))
    )
    ok_second = 6.0 <= found.get((2, "I1_2"), -1.0) <= 6.1
    late = [ev for ev in trace.alarms if 8.0 <= ev.time <= 10.0]
    ok_quiet = not late

    k3, k4 = step_index(3.0, config.ts), step_index(4.0, config.ts)
    k9, k10 = step_index(9.0, config.ts), step_index(10.0, config.ts)
    res1 = trace.residuals[1]
    sig1 = trace.sigmas[1]
    # V1, then the two line channels
    attacked = np.abs(res1[k9 : k10 + 1, [0, 2, 3]].mean(axis=0)) / sig1[[0, 2, 3]]
    quiet = np.abs(res1[k3 : k4 + 1, 2:4].mean(axis=0)) / sig1[2:4]
    ok_means = bool(np.all(attacked > 5.0) and np.all(quiet < 1.0))

    described = ", ".join(
        f"t={ev.time:.4f} {ev.component} accuses {ev.accused_neighbor}" for ev in agent1
    )
    announce(
        4,
        ok_count and ok_first and ok_second and ok_quiet and ok_means,
        f"agent-1 events [{described}], {len(late)} events in [8,10] s, "
        f"V1 and line-residual means {np.round(attacked, 2).tolist()}σ over "
        f"[9,10] s vs lines {np.round(quiet, 2).tolist()}σ over [3,4] s "
        f"(wall {wall:.2f} s)",
    )


def test_bundled_residual_table(attack_run):
    # agent 1's |mean(r)| / sigma over the second half of each span between
    # the scenario's events; [7, 8) s and [9, 10) s lie either side of the
    # load step, and their equal rows are the load decoupling
    config, trace, wall = attack_run
    both = "bias 150 V on V3->1 + bias 100 V on V2->1"
    expected = [
        (2.0, 4.0, "no attack", [0.00, 0.00, 0.00, 0.00]),
        (5.0, 6.0, "bias 150 V on V3->1", [6.24, 0.08, 0.63, 9.20]),
        (7.0, 8.0, both, [10.42, 0.11, 6.76, 9.64]),
        (9.0, 10.0, both, [10.44, 0.10, 6.78, 9.64]),
    ]
    rows = cli.build_report(config, trace, wall).residual_windows[1]
    assert [row[:3] for row in rows] == [row[:3] for row in expected]
    for (*_, means), (*_, printed) in zip(rows, expected):
        assert list(means) == ["V1", "Ig1", "I1_2", "I1_3"]
        np.testing.assert_allclose(list(means.values()), printed, atol=0.01)


def test_criterion_5_covariance_health(monkeypatch, announce):
    # each group's recursion stops once Pi settles; there Pi must be the
    # fixed point of its own gains, Pi = F Pi F^T + K R K^T + T Q T^T with
    # K = K1 + K2, which scipy solves independently of the recursion
    steps = []
    run_observer = sim._run_observer

    def recorded(model, pi):
        gains, pi_next = gain_step(model, pi)
        steps.append(gains)
        return gains, pi_next

    settled = []

    def observed(model, *args):
        steps.clear()
        x_hat, pi = run_observer(model, *args)
        settled.append((model, steps[-1], pi, len(steps)))
        return x_hat, pi

    monkeypatch.setattr(sim, "gain_step", recorded)
    monkeypatch.setattr(sim, "_run_observer", observed)
    for network in (threebus_network(), heterogeneous_network(), path_network()):
        config = bundled_scenario()
        config.network = network
        config.horizon = 0.05
        config.warmup = 0.01
        config.attacks = []
        config.load_profiles = {}
        run_scenario(config)
    worst_rel = worst_neg = 0.0
    for model, gains, pi, _ in settled:
        k = gains.k1 + gains.k2
        drive = k @ model.r @ k.T + gains.t @ model.q @ gains.t.T
        expected = scipy.linalg.solve_discrete_lyapunov(gains.f, drive)
        worst_rel = max(worst_rel, np.max(np.abs(pi - expected)) / np.max(np.abs(expected)))
        worst_neg = min(worst_neg, np.linalg.eigvalsh(pi)[0] / np.max(np.abs(pi)))
    symmetric = all(np.array_equal(pi, pi.T) for _, _, pi, _ in settled)
    # 500 steps: every recursion settled before the horizon
    calls = [count for *_, count in settled]
    ok = (
        len(settled) == 6
        and max(calls) < 500
        and worst_rel <= 1e-12
        and symmetric
        and worst_neg >= -1e-12
    )
    announce(
        5,
        ok,
        f"{len(settled)} groups of three networks settled after {calls} gain "
        f"steps: Pi vs Lyapunov solve {worst_rel:.2e} relative (tol 1e-12), "
        f"symmetric {symmetric}, least eigenvalue / max|Pi| {worst_neg:.2e}",
    )


def test_criterion_6_steady_bias_oracle(agent_models, announce):
    config = bundled_scenario()
    config.horizon = 3.0
    config.warmup = 0.1
    config.noise = NoiseConfig(inject=False)
    config.load_profiles = {
        i: [LoadSegment(t_start=0.0, level=1000.0)] for i in (1, 2, 3)
    }
    config.attacks = [AttackSpec(victim=1, source=3, start=1.0, end=3.0, bias=150.0)]
    trace = run_scenario(config)

    model = trace.models[1]
    gains, _ = converged_gains(model)
    bias = np.zeros(model.b_x.shape[1])
    slot = next(j for j, cp in enumerate(model.couplings) if cp.neighbor == 3)
    bias[model.n_inputs + slot] = 150.0
    e_bar = np.linalg.solve(np.eye(model.n) - gains.f, -gains.t @ model.b_x @ bias)
    r_bar = model.c @ e_bar

    rel = float(
        np.max(np.abs(trace.residuals[1][-1] - r_bar)) / np.max(np.abs(r_bar))
    )
    announce(
        6,
        rel <= 1e-6,
        f"steady residual under 150 V bias matches linear solve to "
        f"{rel:.3e} relative (tol 1e-6); prediction {np.round(r_bar, 3).tolist()}",
    )


def test_criterion_7_bitwise_determinism(tmp_path, announce):
    digests = []
    sizes = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code = cli.run(SCENARIO, out_dir, quiet=True)
        assert code == 0
        blob = (out_dir / "trace.csv").read_bytes()
        digests.append(hashlib.sha256(blob).hexdigest())
        sizes.append(len(blob))
    ok = digests[0] == digests[1] and sizes[0] > 1_000_000
    announce(
        7,
        ok,
        f"two runs export byte-identical trace.csv "
        f"(sha256 {digests[0][:16]}…, {sizes[0] / 1e6:.1f} MB)",
    )


def test_criterion_8_discretization_numerics(threebus, global_model, announce):
    worst_zoh = 0.0
    ts = 1e-4
    for i in (1, 2, 3):
        cont = partition_agent(global_model, threebus, i)
        model = discretize_agent(cont, ts)
        b_x_c = np.hstack(
            [cont.b_ci] + [cp.column[:, None] for cp in cont.couplings]
        )
        a_ref, b_ref, e_ref = zoh_series(cont.a_ci, b_x_c, cont.e_ci, ts)
        worst_zoh = max(
            worst_zoh,
            float(np.max(np.abs(model.a - a_ref))),
            float(np.max(np.abs(model.b_x - b_ref))),
            float(np.max(np.abs(model.e - e_ref))),
        )
    plant = discretize_zoh(global_model.a_c, global_model.b_c, global_model.e_c, ts)
    a_ref, b_ref, e_ref = zoh_series(
        global_model.a_c, global_model.b_c, global_model.e_c, ts
    )
    worst_zoh = max(
        worst_zoh,
        float(np.max(np.abs(plant.a - a_ref))),
        float(np.max(np.abs(plant.b - b_ref))),
        float(np.max(np.abs(plant.e - e_ref))),
    )

    m = global_model.a_c * ts
    worst_inv = float(
        np.max(
            np.abs(
                matrix_exponential(m) @ matrix_exponential(-m) - np.eye(m.shape[0])
            )
        )
    )
    ok = worst_zoh <= 1e-9 and worst_inv <= 1e-9
    announce(
        8,
        ok,
        f"ZOH vs 30-term series {worst_zoh:.3e} on every model (tol 1e-9), "
        f"exp(M)exp(-M)=I to {worst_inv:.3e}",
    )
