import dataclasses
import tracemalloc

import numpy as np
import pytest

import dcmg.lti as lti
import dcmg.sim as sim
from dcmg.errors import NegativeVariance, ValidationError
from dcmg.lti import propagate_into
from dcmg.netmodel import LineParams, NetworkSpec, build_global, partition_agent
from dcmg.sim import (
    AttackSpec,
    LoadSegment,
    NoiseConfig,
    ScenarioConfig,
    Seeds,
    SourceStep,
    _dc_operating_point,
    _run_observer,
    run_scenario,
    sample_noise,
    step_index,
    validate_config,
)
from dcmg.uio import discretize_agent, gain_step
from networks import (
    bundled_scenario,
    example_bus,
    heterogeneous_network,
    path_network,
    ring_network,
    threebus_network,
)
from oracles import observer_loop, propagate_loop, zoh_series


def small_scenario(**overrides) -> ScenarioConfig:
    cfg = ScenarioConfig(
        network=threebus_network(),
        ts=1e-4,
        horizon=0.05,
        warmup=0.01,
        seeds=Seeds(root=7),
        load_profiles={
            i: [LoadSegment(t_start=0.0, level=1000.0)] for i in (1, 2, 3)
        },
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


# ---------------------------------------------------------------------------
# small helpers


def test_sample_noise_is_deterministic_per_seed():
    a = sample_noise(np.random.default_rng(3), [1.0, 4.0], size=8)
    b = sample_noise(np.random.default_rng(3), [1.0, 4.0], size=8)
    assert np.array_equal(a, b)
    assert a.shape == (8, 2)
    single = sample_noise(np.random.default_rng(3), [1.0, 4.0])
    assert np.array_equal(single, a[0])


def test_sample_noise_variance_scaling():
    draws = sample_noise(
        np.random.default_rng(11), [100.0, 100.0, 10.0, 10.0], size=1_000_000
    )
    assert np.allclose(draws.var(axis=0), [100.0, 100.0, 10.0, 10.0], rtol=0.02)
    assert np.allclose(draws.mean(axis=0), 0.0, atol=0.05)


def test_sample_noise_zero_variance_and_errors():
    draws = sample_noise(np.random.default_rng(0), [0.0, 1.0], size=50)
    assert np.array_equal(draws[:, 0], np.zeros(50))
    with pytest.raises(NegativeVariance):
        sample_noise(np.random.default_rng(0), [1.0, -1.0])
    with pytest.raises(NegativeVariance):
        sample_noise(np.random.default_rng(0), np.eye(2))


def test_step_index_snaps_within_tolerance():
    assert step_index(3e-4 + 1e-11, 1e-4) == 3
    assert step_index(0.0, 1e-4) == 0
    with pytest.raises(ValidationError, match="off-grid"):
        step_index(3.5e-4, 1e-4)
    with pytest.raises(ValidationError, match="ts must be finite and > 0"):
        step_index(1.0, 0.0)


# ---------------------------------------------------------------------------
# physics of the monolithic layer


def test_symmetric_network_settles_at_source_voltage():
    # equal sources, no loads, zero start: voltages converge together to
    # the source setpoint and the tie lines carry nothing
    cfg = small_scenario(
        horizon=0.5,
        warmup=0.0,
        initial_state="zero",
        noise=NoiseConfig(inject=False),
        load_profiles={},
    )
    trace = run_scenario(cfg)
    v_final = trace.x_true[-1, :3]
    assert np.ptp(v_final) < 1e-6
    assert np.allclose(v_final, 12_000.0, rtol=0, atol=0.5)
    assert np.max(np.abs(trace.x_true[-1, 6:])) < 1e-5


def test_steady_start_is_stationary():
    cfg = small_scenario(noise=NoiseConfig(inject=False))
    trace = run_scenario(cfg)
    x0 = trace.x_true[0]
    assert np.max(np.abs(trace.x_true - x0)) < 1e-8 * np.max(np.abs(x0))
    # each agent's local layer sits on its slice of the same operating point
    for i, model in trace.models.items():
        slice_i = x0[model.state_index] * model.state_sign
        assert np.max(np.abs(trace.x_local[i] - slice_i)) < 1e-6


def test_truth_is_exact_under_step_refinement():
    # held inputs are genuinely piecewise constant here, so the sampled
    # truth is the continuous solution and halving ts changes nothing
    def final_state(ts):
        cfg = small_scenario(
            ts=ts,
            horizon=0.3,
            warmup=0.0,
            initial_state="zero",
            noise=NoiseConfig(inject=False),
        )
        return run_scenario(cfg).x_true[-1]

    coarse = final_state(1e-4)
    fine = final_state(5e-5)
    assert np.max(np.abs(coarse - fine)) < 1e-9 * np.max(np.abs(fine))


def test_noise_free_loads_leave_no_residual():
    # arbitrary load shapes (steps, ramps, random walks) are unknown
    # inputs by construction and must not excite any residual channel
    profiles = {
        1: [
            LoadSegment(t_start=0.0, level=800.0),
            LoadSegment(t_start=0.4, kind="ramp", level=800.0, level_end=2200.0),
            LoadSegment(t_start=1.2, kind="random_walk", level=2200.0, walk_std=8.0),
        ],
        2: [
            LoadSegment(t_start=0.0, level=1500.0),
            LoadSegment(t_start=0.7, kind="constant", level=400.0),
        ],
        3: [LoadSegment(t_start=0.0, kind="random_walk", level=1000.0, walk_std=15.0)],
    }
    cfg = small_scenario(
        horizon=2.0,
        warmup=0.1,
        noise=NoiseConfig(inject=False),
        load_profiles=profiles,
    )
    trace = run_scenario(cfg)
    k0 = step_index(0.1, cfg.ts)
    for i in (1, 2, 3):
        assert np.max(np.abs(trace.residuals[i][k0:])) < 1e-6
    assert trace.alarms == []


def test_load_step_does_not_shift_residual_means():
    # network-wide +2000 A step at 8 s under full noise: window means
    # before/after agree within 3 long-run standard errors (the residual
    # stream is mildly autocorrelated, so the i.i.d. sigma/sqrt(N) scale
    # would be too tight)
    def long_run_std(x, lags=100):
        x = x - x.mean()
        n = x.size
        v = np.dot(x, x) / n
        for k in range(1, lags + 1):
            v += 2.0 * (1.0 - k / (lags + 1.0)) * np.dot(x[:-k], x[k:]) / n
        return np.sqrt(max(v, 0.0))

    cfg = bundled_scenario()
    cfg.attacks = []
    trace = run_scenario(cfg)
    assert trace.alarms == []
    k7, k8, k9 = (step_index(t, cfg.ts) for t in (7.0, 8.0, 9.0))
    n = k8 - k7
    for i in (1, 2, 3):
        pre = trace.residuals[i][k7:k8]
        post = trace.residuals[i][k9 : k9 + n]
        for c in range(pre.shape[1]):
            se = long_run_std(pre[:, c]) * np.sqrt(2.0 / n)
            assert abs(post[:, c].mean() - pre[:, c].mean()) < 3.0 * se


# ---------------------------------------------------------------------------
# attacks and the communication layer


def attack_scenario(horizon=3.0, start=1.5, bias=150.0):
    cfg = small_scenario(horizon=horizon, warmup=0.1)
    cfg.attacks = [
        AttackSpec(victim=1, source=3, start=start, end=horizon, bias=bias)
    ]
    return cfg


def test_comms_carry_bias_window_exactly():
    cfg = attack_scenario()
    trace = run_scenario(cfg)
    slot = next(
        j for j, cp in enumerate(trace.models[1].couplings) if cp.neighbor == 3
    )
    k0 = step_index(1.5, cfg.ts)
    v3 = trace.x_true[:, 2]
    received = trace.comms[1][:, slot]
    assert np.array_equal(received[:k0], v3[:k0])
    # window is [start, end): the trailing row is held but never consumed,
    # so an attack running to the horizon leaves it untouched
    assert np.array_equal(received[k0:-1], v3[k0:-1] + 150.0)
    assert received[-1] == v3[-1]
    # the other slot and the other agents are verbatim copies
    other = 1 - slot
    nbr = trace.models[1].couplings[other].neighbor
    assert np.array_equal(trace.comms[1][:, other], trace.x_true[:, nbr - 1])


def test_attacks_leave_other_agents_untouched():
    cfg = attack_scenario()
    clean = attack_scenario()
    clean.attacks = []
    trace = run_scenario(cfg)
    base = run_scenario(clean)
    assert np.array_equal(trace.x_true, base.x_true)
    for i in (2, 3):
        assert np.array_equal(trace.residuals[i], base.residuals[i])
        assert np.array_equal(trace.y[i], base.y[i])
    # the victim's metered layer runs on the true voltages; only what it
    # receives is falsified
    assert np.array_equal(trace.x_local[1], base.x_local[1])
    assert np.array_equal(trace.y[1], base.y[1])
    k0 = step_index(1.5, cfg.ts)
    assert np.array_equal(trace.residuals[1][: k0 + 1], base.residuals[1][: k0 + 1])
    assert not np.array_equal(trace.residuals[1], base.residuals[1])


def test_alarm_flags_latch_from_event_time():
    cfg = attack_scenario()
    trace = run_scenario(cfg)
    assert trace.alarms, "bias attack must raise at least one event"
    assert all(ev.agent == 1 for ev in trace.alarms)
    # the V1 event is bus-local and accuses no neighbour
    accusing = [ev for ev in trace.alarms if ev.accused_neighbor is not None]
    assert accusing and all(ev.accused_neighbor == 3 for ev in accusing)
    k_first = min(step_index(ev.time, cfg.ts) for ev in trace.alarms)
    flags = trace.alarm_flags[1]
    assert not flags[:k_first].any()
    assert flags[k_first:].all()
    assert not trace.alarm_flags[2].any()
    assert not trace.alarm_flags[3].any()


def test_attack_inside_warmup_is_attributed_after_it():
    # sigma is the model's, not the warm-up's spread, so a bias that is
    # already on when the warm-up ends cannot hide in it
    cfg = attack_scenario(horizon=1.0, start=0.05)
    trace = run_scenario(cfg)
    accusing = [ev for ev in trace.alarms if ev.accused_neighbor is not None]
    assert accusing
    assert all(ev.agent == 1 and ev.accused_neighbor == 3 for ev in accusing)
    assert cfg.warmup <= accusing[0].time <= cfg.warmup + 0.01


# ---------------------------------------------------------------------------
# the observer engine, one run per group of equal models, against the
# per-agent loop


def settle_rtol(model):
    """The engine's settle tolerance relative to max|Pi|, written out."""
    return 4 * model.n * np.finfo(float).eps


@pytest.mark.parametrize(
    "ids, scales, settles, groups",
    [
        # scaled noise figures give the three agents models of their own,
        # whose gains settle at different steps
        pytest.param(
            (1, 2, 3), (1.0, 30.0, 0.3), True, ((0,), (1,), (2,)), id="True"
        ),
        # no Pi of these three models settles within the 300 steps, so each
        # group steps every step
        pytest.param(
            (1, 2, 3), (0.1, 0.05, 0.03), False, ((0,), (1,), (2,)), id="False"
        ),
        # agents 1 and 3 are identical: one group runs rows 0 and 2
        pytest.param(
            (1, 2, 3), (1.0, 30.0, 1.0), True, ((0, 2), (1,)), id="apart-True"
        ),
        # rows 0, 1 and 3 hold equal models, row 2 a model of its own
        pytest.param(
            (1, 2, 3, 1), (1.0, 1.0, 30.0, 1.0), True, ((0, 1, 3), (2,)), id="runs-True"
        ),
    ],
)
def test_batched_observer_matches_per_agent_loop(
    agent_models, ids, scales, settles, groups
):
    rng = np.random.default_rng(11)
    models = [
        dataclasses.replace(model, q=model.q * scale, r=model.r / scale)
        for model, scale in zip((agent_models[i] for i in ids), scales)
    ]
    g, n_steps = len(models), 300
    y = 12_000.0 + 40.0 * rng.standard_normal((g, n_steps + 1, 4))
    u_x = 12_000.0 + 40.0 * rng.standard_normal((g, n_steps, 3))
    res = np.empty_like(y)
    settled_at = []
    for group in groups:
        rows = list(group)
        x_hat, pi_end = _run_observer(
            models[rows[0]], y[rows], u_x[rows], [res[j] for j in rows]
        )
        for row, j in enumerate(rows):
            xh_ref, res_ref, pi_ref, k_ref = observer_loop(
                models[j], y[j], u_x[j], settle_rtol(models[j]), propagate_into
            )
            assert np.array_equal(x_hat[row], xh_ref)
            assert np.array_equal(res[j], res_ref)
            assert np.array_equal(pi_end, pi_ref)
            settled_at.append(k_ref)
    # every group settles within the horizon, or none does
    assert {k is None for k in settled_at} == {not settles}


@pytest.mark.parametrize("settles", [True, False])
def test_blocked_observer_matches_per_agent_loop(agent_models, monkeypatch, settles):
    # blocks of 7 rows per agent: the settled tail's drive, the estimates
    # and the residuals go a block at a time, bit for bit as in one piece;
    # only the first block starts from x^_0 = y_0.  The gains settle on
    # step 51, after the shorter horizon
    monkeypatch.setattr(lti, "BLOCK_BYTES", 7 * 4 * 8)
    rng = np.random.default_rng(12)
    model, n_steps = agent_models[1], 305 if settles else 47
    y = 12_000.0 + 40.0 * rng.standard_normal((2, n_steps + 1, 4))
    u_x = 12_000.0 + 40.0 * rng.standard_normal((2, n_steps, 3))
    res = np.empty_like(y)
    x_hat, pi_end = _run_observer(model, y, u_x, list(res))
    for j in range(2):
        xh_ref, res_ref, pi_ref, k_ref = observer_loop(
            model, y[j], u_x[j], settle_rtol(model), propagate_into
        )
        # the rows and the settled tail each end in a partial block, of
        # more than one row (numpy forms a one-row product by another BLAS
        # routine, which may round differently)
        assert (k_ref is not None) == settles
        assert (n_steps + 1) % 7 > 1
        assert k_ref is None or (n_steps - k_ref) % 7 > 1
        assert np.array_equal(x_hat[j], xh_ref)
        assert np.array_equal(res[j], res_ref)
        assert np.array_equal(pi_end, pi_ref)


def test_run_in_blocks_matches_one_block(monkeypatch):
    # 300 steps of the bundled network.  A block of one row would go
    # through numpy's matrix-vector path, so a one-row remainder takes a
    # row of the block before it and every row comes out as in one block.  Rows per
    # block of the plant (72 B), the group's metered layer (96 B) and each
    # agent's observer products (32 B):
    #   936 B:  13 plant rows, 300 = 23 * 13 + 1
    #   1248 B: 13 metered rows
    #   3200 B: 100 observer rows, 301 = 3 * 100 + 1
    #   256 B:  8 observer rows, and a settled tail with one row over
    #   2048 B: no one-row remainder anywhere
    cfg = bundled_scenario()
    cfg.horizon, cfg.warmup = 0.03, 0.01
    cfg.load_profiles = {i: segs[:1] for i, segs in cfg.load_profiles.items()}
    cfg.attacks = [AttackSpec(victim=1, source=3, start=0.01, end=0.03, bias=150.0)]

    def arrays(trace) -> dict:
        out = {"x_true": trace.x_true}
        for name in ("y", "x_local", "x_hat", "residuals"):
            out.update((f"{name}{i}", a) for i, a in getattr(trace, name).items())
        return out

    monkeypatch.setattr(lti, "BLOCK_BYTES", 1 << 40)
    whole = arrays(run_scenario(cfg))
    for block_bytes in (936, 1248, 3200, 256, 2048):
        monkeypatch.setattr(lti, "BLOCK_BYTES", block_bytes)
        blocked = arrays(run_scenario(cfg))
        differ = [k for k, a in whole.items() if not np.array_equal(a, blocked[k])]
        assert differ == [], block_bytes


@pytest.mark.parametrize(
    "scales, n_steps, groups, settles",
    [
        # Pi of the unscaled model settles on step 51
        pytest.param(
            (1.0, 1.0, 1.0), 2000, ((0, 1, 2),), "all", id="equal-models"
        ),
        # Pi of the three models settles on steps 51, 5 and 167
        pytest.param(
            (1.0, 30.0, 0.3), 2000, ((0,), (1,), (2,)), "apart", id="scaled-models"
        ),
        # the settle comes on the last step, whose tail is one step
        pytest.param(
            (1.0, 1.0, 1.0), 52, ((0, 1, 2),), "last", id="hit-on-last-step"
        ),
        # every agent has its own gains: Pi of agent 2 settles on step 51,
        # those of agents 1 and 3 on step 52
        pytest.param(
            None, 2000, ((0,), (1,), (2,)), "apart", id="heterogeneous"
        ),
        # the horizon ends before the gains settle on step 51, so the
        # recursion steps to the end
        pytest.param(
            (1.0, 1.0, 1.0), 40, ((0, 1, 2),), "none", id="never-settles"
        ),
    ],
)
def test_settle_step_and_gain_step_calls_match_per_agent_loop(
    agent_models, monkeypatch, scales, n_steps, groups, settles
):
    # once Pi settles, its gains repeat with period 1: the engine runs the
    # rest of the horizon with them, instead of calling gain_step, and
    # matches the per-agent loop stepping every step to rounding
    calls = []

    def counted(*args):
        calls.append(None)
        return gain_step(*args)

    monkeypatch.setattr(sim, "gain_step", counted)
    rng = np.random.default_rng(11)
    if scales is None:
        models = heterogeneous_models()
    else:
        models = [
            dataclasses.replace(model, q=model.q * scale, r=model.r / scale)
            for model, scale in zip(agent_models.values(), scales)
        ]
    y = 12_000.0 + 40.0 * rng.standard_normal((3, n_steps + 1, 4))
    u_x = 12_000.0 + 40.0 * rng.standard_normal((3, n_steps, 3))
    res = np.empty_like(y)
    settled_at = []
    for group in groups:
        rows = list(group)
        calls.clear()
        x_hat, pi_end = _run_observer(
            models[rows[0]], y[rows], u_x[rows], [res[j] for j in rows]
        )
        for row, j in enumerate(rows):
            xh_ref, res_ref, _, _ = observer_loop(
                models[j], y[j], u_x[j], None, propagate_into
            )
            bound = 1e-13 * np.max(np.abs(xh_ref))
            assert np.max(np.abs(x_hat[row] - xh_ref)) <= bound
            assert np.max(np.abs(res[j] - res_ref)) <= bound
            # the settle step of the loop with the engine's rule
            *_, pi_ref, k_ref = observer_loop(
                models[j], y[j], u_x[j], settle_rtol(models[j]), propagate_into
            )
            assert np.array_equal(pi_end, pi_ref)
        assert len(calls) == (n_steps if k_ref is None else k_ref + 1)
        settled_at.append(k_ref)
    if settles == "all":
        assert None not in settled_at and max(settled_at) < n_steps - 1
    elif settles == "apart":
        assert None not in settled_at and len(set(settled_at)) > 1
    elif settles == "last":
        assert settled_at == [n_steps - 1]
    else:
        assert settled_at == [None] * len(groups)


def heterogeneous_models():
    network = heterogeneous_network()
    gm = build_global(network)
    return [
        discretize_agent(partition_agent(gm, network, i), 1e-4) for i in (1, 2, 3)
    ]


def observer_every_step(model, y, u_x, residuals):
    """``_run_observer`` of a group, met by the per-agent loop stepping
    every step."""
    n_steps = y.shape[1] - 1
    x_hat = np.empty(y.shape[:2] + (model.n,))
    for j, res in enumerate(residuals):
        x_hat[j], res[...], pi, _ = observer_loop(
            model, y[j], u_x[j, :n_steps], None, propagate_into
        )
    return x_hat, pi


@pytest.mark.parametrize(
    "network",
    [None, heterogeneous_network(), path_network()],
    ids=["bundled", "heterogeneous", "path"],
)
def test_settled_tail_matches_stepping_every_step(monkeypatch, network):
    # 0.3 s: the loop stepping every step costs about 70 us per agent-step
    if network is None:
        # the bundled scenario with its first attack moved to 0.2 s
        cfg = bundled_scenario()
        cfg.load_profiles = {
            i: segments[:1] for i, segments in cfg.load_profiles.items()
        }
        cfg.attacks = [dataclasses.replace(cfg.attacks[0], start=0.2, end=0.3)]
    else:
        cfg = small_scenario(network=network, load_profiles={})
        cfg.attacks = [AttackSpec(victim=2, source=3, start=0.1, end=0.3, bias=150.0)]
    cfg.horizon = 0.3
    trace = run_scenario(cfg)
    monkeypatch.setattr(sim, "_run_observer", observer_every_step)
    ref = run_scenario(cfg)
    for i in trace.models:
        bound = 1e-13 * np.max(np.abs(ref.x_hat[i]))
        assert np.max(np.abs(trace.x_hat[i] - ref.x_hat[i])) <= bound
        assert np.max(np.abs(trace.residuals[i] - ref.residuals[i])) <= bound
        assert np.array_equal(trace.alarm_flags[i], ref.alarm_flags[i])
    events = [(ev.agent, ev.accused_neighbor, ev.component, ev.time) for ev in trace.alarms]
    assert events
    assert events == [
        (ev.agent, ev.accused_neighbor, ev.component, ev.time) for ev in ref.alarms
    ]


def test_path_network_splits_into_groups_matching_per_agent_loop(monkeypatch):
    # the end agents of a 4-bus path have one neighbour (n = 3), the
    # middle ones two (n = 4): two groups of two equal models each; every
    # agent of the heterogeneous triangle has a model, so a group, of its own
    path = path_network()
    runs = []

    def recorded(model, y, *args):
        x_hat, pi_end = _run_observer(model, y, *args)
        runs.append((model.agent_id, len(y), pi_end))
        return x_hat, pi_end

    monkeypatch.setattr(sim, "_run_observer", recorded)
    cases = (
        (path, [3, 4, 4, 3], [[1, 4], [2, 3]]),
        (heterogeneous_network(), [4, 4, 4], [[1], [2], [3]]),
    )
    for network, sizes, groups in cases:
        cfg = small_scenario(network=network, load_profiles={})
        cfg.attacks = [AttackSpec(victim=2, source=3, start=0.02, end=0.05, bias=150.0)]
        runs.clear()
        trace = run_scenario(cfg)
        assert [model.n for model in trace.models.values()] == sizes
        n_steps = trace.times.shape[0] - 1
        pi_ref = {}
        for i, model in trace.models.items():
            nominal = network.buses[i - 1].v_source_nominal
            u_x = np.column_stack([np.full(n_steps, nominal), trace.comms[i][:-1]])
            xh_ref, res_ref, pi_ref[i], _ = observer_loop(
                model,
                trace.y[i],
                u_x,
                settle_rtol(model),
                propagate_into,
            )
            assert np.array_equal(trace.x_hat[i], xh_ref)
            assert np.array_equal(trace.residuals[i], res_ref)
            # r = eps + M v with M = I - H (C = I)
            m = np.eye(model.m) - model.structural[0]
            cov = pi_ref[i] + m @ model.r @ m.T
            assert np.array_equal(trace.sigmas[i], np.sqrt(np.diag(cov)))
        # one engine run per group, named by its first agent, and the
        # final covariance it returns
        assert [run[:2] for run in runs] == [(group[0], len(group)) for group in groups]
        for (_, _, pi_end), group in zip(runs, groups):
            for i in group:
                assert np.array_equal(pi_end, pi_ref[i])


@pytest.mark.parametrize(
    "network", [None, heterogeneous_network()], ids=["bundled", "heterogeneous"]
)
def test_residual_spread_matches_sigma(network):
    # Monte Carlo: with noise on and no attack, every channel's residual
    # spread after warm-up matches its model sigma
    cfg = bundled_scenario()
    cfg.horizon = 3.0
    cfg.attacks = []
    cfg.load_profiles = {i: segments[:1] for i, segments in cfg.load_profiles.items()}
    if network is not None:
        cfg.network = network
    trace = run_scenario(cfg)
    k_warm = step_index(cfg.warmup, cfg.ts)
    for i in trace.models:
        ratio = np.std(trace.residuals[i][k_warm:], axis=0) / trace.sigmas[i]
        assert np.all((0.95 <= ratio) & (ratio <= 1.05)), (i, ratio)


def test_singular_plant_has_no_steady_start():
    with pytest.raises(ValidationError, match="initial_state.*'zero'"):
        _dc_operating_point(np.eye(3), np.ones(3))


def test_lossless_network_has_no_steady_start():
    # with no resistance anywhere, I - A is singular but for rounding
    # (sigma_min / sigma_max 2.6e-18), which a solve would accept
    cfg = small_scenario(noise=NoiseConfig(inject=False))
    for bus in cfg.network.buses:
        bus.r_internal = bus.droop_gain = 0.0
    for line in cfg.network.lines:
        line.r_line = 0.0
    with pytest.raises(ValidationError, match="initial_state"):
        run_scenario(cfg)


def test_observer_starts_from_first_measurement():
    trace = run_scenario(small_scenario())
    for i in trace.models:
        assert np.array_equal(trace.x_hat[i][0], trace.y[i][0])


def test_measurements_equal_local_truth_without_noise():
    cfg = attack_scenario(horizon=0.5, start=0.2)
    cfg.noise = NoiseConfig(inject=False)
    trace = run_scenario(cfg)
    for i in (1, 2, 3):
        assert np.array_equal(trace.y[i], trace.x_local[i])


def test_local_truth_follows_agent_model():
    # replay agent 2's recursion by hand from the trace: its own model,
    # the true boundary voltages, its own load
    cfg = small_scenario(noise=NoiseConfig(inject=False))
    trace = run_scenario(cfg)
    model = trace.models[2]
    loc = trace.x_local[2]
    d = 1000.0
    u_bus = 12_000.0
    for k in range(0, loc.shape[0] - 1, 7):
        boundary = [trace.x_true[k, cp.neighbor - 1] for cp in model.couplings]
        u_x = np.array([u_bus] + boundary)
        step = model.a @ loc[k] + model.b_x @ u_x + model.e[:, 0] * d
        assert np.allclose(step, loc[k + 1], rtol=0, atol=1e-6)


def unequal_loads(**overrides) -> ScenarioConfig:
    """The triangle under loads of 500 / 1500 / 1000 A: its steady line
    currents are far from zero, so each line's orientation shows."""
    loads = {1: 500.0, 2: 1500.0, 3: 1000.0}
    profiles = {i: [LoadSegment(t_start=0.0, level=v)] for i, v in loads.items()}
    return small_scenario(horizon=0.2, load_profiles=profiles, **overrides)


def oriented(model, agent: int, state_labels: list[str]):
    """Agent's states as (index, sign) into the network state, read from
    the labels: a line the network orients towards the agent is negated."""
    index, sign = [], []
    for label in model.labels:
        if label not in state_labels:
            label = f"I{label.split('_')[1]}_{agent}"
            sign.append(-1.0)
        else:
            sign.append(1.0)
        index.append(state_labels.index(label))
    return np.array(index), np.array(sign)


def plant_draws(cfg: ScenarioConfig, trace) -> np.ndarray:
    """x_true's increments less the series-ZOH prediction: the process
    draws, under constant sources and loads."""
    gm = build_global(cfg.network)
    a, b, e = zoh_series(gm.a_c, gm.b_c, gm.e_c, cfg.ts)
    u = np.array([bus.v_source_nominal for bus in cfg.network.buses])
    d = np.array([cfg.load_profiles[i][0].level for i in trace.models])
    x = trace.x_true
    return x[1:] - x[:-1] @ a.T - (b @ u + e @ d)


def test_metered_layer_matches_a_per_step_replay_from_the_plant():
    # each agent's own model, stepped one sample at a time from its slice
    # of x_true[0] under its source, load and the true neighbour voltages,
    # plus the plant's draws, oriented by state label
    cfg = unequal_loads()
    trace = run_scenario(cfg)
    w, x = plant_draws(cfg, trace), trace.x_true
    for i, model in trace.models.items():
        index, sign = oriented(model, i, trace.state_labels)
        nbrs = [cp.neighbor - 1 for cp in model.couplings]
        source = cfg.network.buses[i - 1].v_source_nominal
        u_x = np.column_stack([np.full(len(w), source), x[:-1, nbrs]])
        drive = u_x @ model.b_x.T + model.e[:, 0] * cfg.load_profiles[i][0].level
        ref = propagate_loop(model.a, x[0, index] * sign, drive + w[:, index] * sign)
        assert np.max(np.abs(trace.x_local[i] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_steady_start_orients_every_agents_slice_and_draws():
    # from the DC operating point, each agent starts on its oriented slice
    # of it, and its first step takes the plant's first draw in the same
    # orientation: the drive of step 0 is the same with noise on or off
    noisy = run_scenario(unequal_loads())
    quiet = run_scenario(unequal_loads(noise=NoiseConfig(inject=False)))
    x0 = noisy.x_true[0]
    assert np.array_equal(x0, quiet.x_true[0])
    assert np.min(np.abs(x0[6:])) > 100.0  # line currents, in A
    for i, model in noisy.models.items():
        index, sign = oriented(model, i, noisy.state_labels)
        assert np.array_equal(noisy.x_local[i][0], x0[index] * sign)
        draw = noisy.x_true[1] - quiet.x_true[1]
        step = noisy.x_local[i][1] - quiet.x_local[i][1]
        assert np.max(np.abs(step - draw[index] * sign)) < 1e-9


def test_measurements_are_local_truth_plus_each_agents_own_draws():
    # y is drawn row by row into place; each agent's row equals its metered
    # layer plus sample_noise from that agent's own stream, bit for bit
    cfg = small_scenario(network=path_network(), load_profiles={})
    trace = run_scenario(cfg)
    assert [model.n for model in trace.models.values()] == [3, 4, 4, 3]
    n_steps = step_index(cfg.horizon, cfg.ts)
    for i, model in trace.models.items():
        stream = sim._stream(cfg.seeds, sim._TAG_MEASUREMENT, i)
        draws = sample_noise(stream, np.diag(model.r), size=n_steps + 1)
        assert np.array_equal(trace.y[i], trace.x_local[i] + draws)


# ---------------------------------------------------------------------------
# seeding


def test_runs_are_bitwise_reproducible():
    a = run_scenario(small_scenario())
    b = run_scenario(small_scenario())
    assert np.array_equal(a.x_true, b.x_true)
    for i in (1, 2, 3):
        assert np.array_equal(a.y[i], b.y[i])
        assert np.array_equal(a.residuals[i], b.residuals[i])
    assert a.alarms == b.alarms


def test_root_seed_changes_draws():
    a = run_scenario(small_scenario())
    b = run_scenario(small_scenario(seeds=Seeds(root=8)))
    assert not np.array_equal(a.x_true, b.x_true)


def test_measurement_override_isolates_one_agent():
    a = run_scenario(small_scenario())
    b = run_scenario(small_scenario(seeds=Seeds(root=7, measurement={2: 999})))
    assert np.array_equal(a.x_true, b.x_true)
    assert np.array_equal(a.y[1], b.y[1])
    assert np.array_equal(a.y[3], b.y[3])
    assert not np.array_equal(a.y[2], b.y[2])


def test_process_override_leaves_measurement_noise():
    a = run_scenario(small_scenario())
    b = run_scenario(small_scenario(seeds=Seeds(root=7, process=5)))
    assert not np.array_equal(a.x_true, b.x_true)
    for i in (1, 2, 3):
        # y - x_local is the measurement draw rounded at the magnitude of
        # x_local, which the process draws move; another draw differs by ~sigma
        noise_a = a.y[i] - a.x_local[i]
        noise_b = b.y[i] - b.x_local[i]
        assert np.abs(noise_a - noise_b).max() < 1e-9


def test_load_override_reaches_only_random_walk_profiles():
    def scenario(**seeds):
        cfg = small_scenario(seeds=Seeds(root=7, **seeds))
        cfg.load_profiles[3] = [
            LoadSegment(t_start=0.0, kind="random_walk", level=1000.0, walk_std=5.0)
        ]
        return cfg

    base = run_scenario(scenario())
    walk = run_scenario(scenario(load={3: 11}))
    constant = run_scenario(scenario(load={1: 11}))
    assert not np.array_equal(base.x_true, walk.x_true)
    assert np.array_equal(base.x_true, constant.x_true)
    for i in (1, 2, 3):
        assert np.array_equal(base.x_local[i], constant.x_local[i])
        assert np.array_equal(base.y[i], constant.y[i])
        assert np.array_equal(base.residuals[i], constant.residuals[i])
    assert base.alarms == constant.alarms


# ---------------------------------------------------------------------------
# trace layout


def test_trace_shapes():
    cfg = small_scenario(horizon=0.02, warmup=0.005)
    trace = run_scenario(cfg)
    n1 = step_index(cfg.horizon, cfg.ts) + 1
    assert trace.times.shape == (n1,)
    assert trace.x_true.shape == (n1, 9)
    assert trace.state_labels == [
        "V1", "V2", "V3", "Ig1", "Ig2", "Ig3", "I1_2", "I1_3", "I2_3",
    ]
    assert sorted(trace.models) == [1, 2, 3]
    for i in (1, 2, 3):
        assert trace.y[i].shape == (n1, 4)
        assert trace.x_local[i].shape == (n1, 4)
        assert trace.x_hat[i].shape == (n1, 4)
        assert trace.residuals[i].shape == (n1, 4)
        assert trace.comms[i].shape == (n1, 2)
        assert trace.sigmas[i].shape == (4,)
        assert trace.alarm_flags[i].shape == (n1,)
        assert trace.alarm_flags[i].dtype == np.int8


def trace_nbytes(trace) -> int:
    """Bytes of the trace's arrays, each base array counted once (the
    per-agent series are views of their group's blocks)."""
    arrays = [trace.times, trace.x_true]
    for name in ("y", "comms", "x_local", "x_hat", "residuals", "sigmas", "alarm_flags"):
        arrays += getattr(trace, name).values()
    bases = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        bases[id(a)] = a.nbytes
    return sum(bases.values())


def test_working_set_beyond_the_trace_does_not_grow_with_the_horizon():
    # the detector holds one block of its statistic and the drives are
    # formed a block of rows at a time, so the peak above the returned
    # trace stays put while the trace triples; a whole-horizon statistic
    # or horizon-length drive temporaries would add about 2.6 MiB
    network = ring_network(10)

    def excess(horizon: float) -> int:
        cfg = small_scenario(
            network=network,
            horizon=horizon,
            load_profiles={i: [LoadSegment(0.0, level=1000.0)] for i in range(1, 11)},
        )
        tracemalloc.start()
        try:
            trace = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - trace_nbytes(trace)

    excess(0.05)  # the first run loads what a run imports; leave that out
    short, long = excess(0.4), excess(1.2)
    assert long - short < 2**18, (short, long)


# ---------------------------------------------------------------------------
# validation


def chain_network() -> NetworkSpec:
    return NetworkSpec(
        buses=[example_bus(), example_bus(), example_bus()],
        lines=[
            LineParams(tail=1, head=2, r_line=0.1, l_line=5e-4),
            LineParams(tail=2, head=3, r_line=0.1, l_line=5e-4),
        ],
    )


def test_validate_rejects_late_first_segment():
    cfg = small_scenario()
    cfg.load_profiles[1] = [LoadSegment(t_start=0.01, level=1.0)]
    with pytest.raises(ValidationError, match=r"load_profiles\[1\]\[0\].t_start must be 0.0"):
        validate_config(cfg)


def test_validate_rejects_off_grid_attack():
    cfg = small_scenario()
    cfg.attacks = [AttackSpec(victim=1, source=2, start=0.040005, end=0.05, bias=1.0)]
    with pytest.raises(ValidationError, match=r"attacks\[0\].start.*off-grid"):
        validate_config(cfg)


def test_validate_rejects_non_neighbor_attack():
    cfg = small_scenario(network=chain_network())
    cfg.attacks = [AttackSpec(victim=1, source=3, start=0.01, end=0.05, bias=1.0)]
    with pytest.raises(ValidationError, match="not a neighbour"):
        validate_config(cfg)


def test_validate_rejects_unordered_attack_window():
    cfg = small_scenario()
    cfg.attacks = [AttackSpec(victim=1, source=2, start=0.03, end=0.03, bias=1.0)]
    with pytest.raises(ValidationError, match="ordered"):
        validate_config(cfg)


def test_validate_wraps_detector_errors():
    cfg = small_scenario()
    cfg.detector.kappa = -1.0
    with pytest.raises(ValidationError, match="detector: kappa"):
        validate_config(cfg)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda c: setattr(c, "horizon", 1e-5), "horizon"),
        (lambda c: setattr(c, "warmup", 0.05), "warmup"),
        (lambda c: setattr(c, "initial_state", "warm"), "initial_state"),
        (
            lambda c: c.load_profiles.__setitem__(
                7, [LoadSegment(t_start=0.0, level=1.0)]
            ),
            r"load_profiles\[7\]",
        ),
        (lambda c: c.load_profiles.__setitem__(2, []), "empty profile"),
        (
            lambda c: c.load_profiles.__setitem__(
                1, [LoadSegment(t_start=0.0, kind="ramp", level=1.0)]
            ),
            "needs level_end",
        ),
        (
            lambda c: c.load_profiles.__setitem__(
                1,
                [
                    LoadSegment(t_start=0.0, level=1.0),
                    LoadSegment(t_start=0.0, level=2.0),
                ],
            ),
            "must increase",
        ),
        (
            lambda c: c.source_schedule.__setitem__(
                1, [SourceStep(t_start=0.01, volts=12_000.0)]
            ),
            r"source_schedule\[1\]\[0\].t_start must be 0.0",
        ),
        (
            lambda c: setattr(c, "noise", NoiseConfig(q_state=-1.0)),
            r"noise\.q_state must be finite and >= 0",
        ),
        (
            lambda c: setattr(c, "noise", NoiseConfig(r_line=float("inf"))),
            "noise.r_line must be finite",
        ),
        (
            lambda c: setattr(c.network.buses[0], "l_internal", float("inf")),
            "bus 1: l_internal must be finite",
        ),
        (
            lambda c: c.load_profiles.__setitem__(
                1, [LoadSegment(t_start=0.0, level=float("inf"))]
            ),
            r"load_profiles\[1\]\[0\].level must be finite",
        ),
        (
            lambda c: c.load_profiles.__setitem__(
                1,
                [LoadSegment(t_start=0.0, kind="ramp", level=1.0, level_end=float("nan"))],
            ),
            r"load_profiles\[1\]\[0\].level_end must be finite",
        ),
        (lambda c: setattr(c, "seeds", Seeds(root=0, load={9: 1})), "unknown bus"),
        (lambda c: setattr(c, "seeds", Seeds(root=1.5)), "seeds.root must be an int"),
        (
            lambda c: setattr(c, "seeds", Seeds(root=0, load={2: -1})),
            r"seeds.load\[2\] must be an integer >= 0",
        ),
        (lambda c: setattr(c, "warmup", -1e-4), "warmup must be >= 0"),
        (lambda c: setattr(c, "horizon", float("nan")), "horizon must be finite"),
        (
            lambda c: c.load_profiles.__setitem__(
                1, [LoadSegment(t_start=0.0, kind="step", level=1.0)]
            ),
            r"load_profiles\[1\]\[0\].kind must be one of",
        ),
        (
            lambda c: c.load_profiles.__setitem__(
                1, [LoadSegment(t_start=0.0, kind="random_walk", walk_std=-1.0)]
            ),
            r"load_profiles\[1\]\[0\].walk_std must be finite and >= 0",
        ),
        (
            lambda c: c.load_profiles.__setitem__(
                1,
                [
                    LoadSegment(t_start=0.0, level=1.0),
                    LoadSegment(t_start=0.05, level=2.0),
                ],
            ),
            r"load_profiles\[1\]\[1\].t_start must lie before the horizon",
        ),
        (
            lambda c: c.source_schedule.__setitem__(
                1, [SourceStep(t_start=0.0, volts=float("inf"))]
            ),
            r"source_schedule\[1\]\[0\].volts must be finite",
        ),
        (
            lambda c: c.attacks.append(
                AttackSpec(victim=9, source=2, start=0.0, end=0.01, bias=1.0)
            ),
            r"attacks\[0\].victim: unknown bus id 9",
        ),
        (
            lambda c: c.attacks.append(
                AttackSpec(victim=1, source=9, start=0.0, end=0.01, bias=1.0)
            ),
            r"attacks\[0\].source: unknown bus id 9",
        ),
        (
            lambda c: c.attacks.append(
                AttackSpec(victim=1, source=2, start=0.0, end=0.01, bias=float("nan"))
            ),
            r"attacks\[0\].bias must be finite",
        ),
    ],
)
def test_validate_rejects_bad_fields(mutate, message):
    cfg = small_scenario()
    mutate(cfg)
    with pytest.raises(ValidationError, match=message):
        validate_config(cfg)


def test_run_scenario_validates_first():
    cfg = small_scenario(ts=-1.0)
    with pytest.raises(ValidationError):
        run_scenario(cfg)
