import dataclasses

import numpy as np
import pytest
import scipy.linalg

from dcmg.errors import (
    DecouplingInfeasible,
    DimensionMismatch,
    SingularInnovation,
)
from dcmg import sim
from dcmg.netmodel import partition_agent
from dcmg.uio import (
    AgentModel,
    discretize_agent,
    gain_step,
    structural_gains,
)
from oracles import predictor_step

RNG = np.random.default_rng(7)


def toy_model(a, e, c, q=None, r=None, b_x=None):
    n = a.shape[0]
    m = c.shape[0]
    return AgentModel(
        agent_id=1,
        a=a,
        b_x=np.zeros((n, 1)) if b_x is None else b_x,
        e=e,
        c=c,
        q=np.eye(n) if q is None else q,
        r=np.eye(m) if r is None else r,
        ts=1e-4,
        n_inputs=1,
        labels=[f"x{k}" for k in range(n)],
        couplings=[],
        state_index=np.arange(n),
        state_sign=np.ones(n),
    )


# ---------------------------------------------------------------------------
# structural gains


def test_structural_gains_unit_disturbance_direction():
    # C = I, E = alpha e1: the scaling cancels and H is the projector onto e1
    n = 3
    e = np.zeros((n, 1))
    e[0, 0] = 2.5
    model = toy_model(np.zeros((n, n)), e, np.eye(n))
    h, t = structural_gains(model)
    proj = np.zeros((n, n))
    proj[0, 0] = 1.0
    assert np.allclose(h, proj, rtol=0, atol=1e-14)
    assert np.allclose(t, np.eye(n) - proj, rtol=0, atol=1e-14)


def test_structural_gains_no_disturbance():
    model = toy_model(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2))
    h, t = structural_gains(model)
    assert np.array_equal(h, np.zeros((2, 2)))
    assert np.array_equal(t, np.eye(2))


def test_structural_gains_infeasible_direction():
    # the measurement hides the disturbance direction entirely
    e = np.array([[1.0], [0.0], [0.0]])
    c = np.array([[0.0, 1.0, 0.0]])
    model = toy_model(np.zeros((3, 3)), e, c, r=np.eye(1))
    with pytest.raises(DecouplingInfeasible):
        structural_gains(model)


def test_gain_conditions_hold_for_every_agent(agent_models):
    for model in agent_models.values():
        p = np.eye(model.n)
        for _ in range(5):
            gains, p = gain_step(model, p)
            eye = np.eye(model.n)
            c1 = (eye - gains.h @ model.c) @ model.e
            c2 = gains.t - (eye - gains.h @ model.c)
            c3 = gains.f - ((eye - gains.h @ model.c) @ model.a - gains.k1 @ model.c)
            c4 = gains.k2 - gains.f @ gains.h
            for cond in (c1, c2, c3, c4):
                assert np.max(np.abs(cond)) <= 1e-10


# ---------------------------------------------------------------------------
# gain recursion


def test_zero_uncertainty_step(agent_models):
    # Pi = 0 and Q = 0: eps = T x - z is known exactly, and only the
    # measurement noise in e = eps - H v is left, so K1's rule reads
    # P = H R H^T and Pi' = K R K^T with K = K1 + K2
    model = agent_models[1]
    zeros = np.zeros((model.n, model.n))
    gains, pi1 = gain_step(dataclasses.replace(model, q=zeros), zeros)
    h, t = structural_gains(model)
    p = h @ model.r @ h.T
    k1 = t @ model.a @ p @ np.linalg.inv(p + model.r)  # C = I
    assert np.allclose(gains.k1, k1, rtol=0, atol=1e-12 * np.max(np.abs(k1)))
    assert np.allclose(gains.f, t @ model.a - k1, rtol=0, atol=1e-12)
    k = gains.k1 + gains.k2
    expected = k @ model.r @ k.T
    assert np.allclose(pi1, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))
    assert np.array_equal(pi1, pi1.T)
    # without a disturbance channel H = 0, so nothing is uncertain at all:
    # no correction and a zero update, exactly
    blind = toy_model(model.a, np.zeros((model.n, 0)), model.c, q=zeros, r=model.r)
    gains, pi1 = gain_step(blind, zeros)
    assert np.array_equal(gains.k1, np.zeros((model.n, model.m)))
    assert np.array_equal(pi1, zeros)


def test_covariance_stays_symmetric_psd(agent_models):
    model = agent_models[2]
    p = np.eye(model.n)
    for _ in range(200):
        _, p = gain_step(model, p)
        assert np.array_equal(p, p.T)
        assert np.linalg.eigvalsh(p)[0] >= -1e-12


def test_trace_converges_to_frozen_constant(agent_models):
    # from the observer's start Pi_0 = T R T^T the trace settles, and the
    # settled Pi is the fixed point of its own gains, which scipy solves
    # independently of the recursion
    model = agent_models[1]
    _, t = structural_gains(model)
    pi = t @ model.r @ t.T
    tr_prev = np.trace(pi)
    for k in range(10_000):
        gains, pi = gain_step(model, pi)
        tr = np.trace(pi)
        if abs(tr - tr_prev) < 1e-12:
            break
        tr_prev = tr
    else:
        pytest.fail("trace(Pi) did not converge")
    assert k < 500
    gain = gains.k1 + gains.k2
    drive = gain @ model.r @ gain.T + t @ model.q @ t.T
    expected = scipy.linalg.solve_discrete_lyapunov(gains.f, drive)
    assert np.max(np.abs(pi - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.linalg.eigvalsh(pi)[0] >= -1e-12 * np.max(np.abs(pi))
    # regression constant recorded from the first verified run of this update
    assert abs(tr - 75.92512113555014) < 1e-8


def test_reduces_to_standard_predictor_without_disturbance(agent_models):
    # E = 0 collapses H to zero and the recursion to the textbook optimal
    # one-step predictor
    base = agent_models[1]
    model = toy_model(
        base.a, np.zeros((base.n, 0)), base.c, q=base.q, r=base.r, b_x=base.b_x
    )
    p = np.eye(model.n)
    p_oracle = np.eye(model.n)
    for _ in range(100):
        gains, p = gain_step(model, p)
        k_o, f_o, p_oracle = predictor_step(
            model.a, model.c, model.q, model.r, p_oracle
        )
        assert np.max(np.abs(gains.k1 - k_o)) < 1e-9
        assert np.max(np.abs(gains.f - f_o)) < 1e-9
        assert np.max(np.abs(p - p_oracle)) < 1e-9


def test_singular_innovation_detected():
    model = toy_model(np.eye(2), np.zeros((2, 1)), np.eye(2), r=np.zeros((2, 2)))
    with pytest.raises(SingularInnovation):
        gain_step(model, np.zeros((2, 2)))


@pytest.mark.parametrize(
    "break_agent_2, message",
    [
        (lambda model, p: (dataclasses.replace(model, r=np.zeros((2, 2))), p),
         "agent 2: innovation covariance is singular"),
        (lambda model, p: (model, np.full_like(p, np.nan)),
         "agent 2: innovation solve produced non-finite gains"),
    ],
)
def test_batch_failure_names_the_agent(break_agent_2, message):
    # the failure names the model's agent
    healthy = toy_model(np.eye(2), np.zeros((2, 1)), np.eye(2))
    model, p = break_agent_2(
        dataclasses.replace(healthy, agent_id=2), np.zeros((2, 2))
    )
    with pytest.raises(SingularInnovation, match=message):
        gain_step(model, p)


def test_gain_step_shape_checks(agent_models):
    model = agent_models[1]
    with pytest.raises(DimensionMismatch):
        gain_step(model, np.eye(3))
    with pytest.raises(DimensionMismatch):
        gain_step(dataclasses.replace(model, r=np.eye(3)), np.eye(4))
    with pytest.raises(DimensionMismatch):
        gain_step(dataclasses.replace(model, q=np.eye(5)), np.eye(4))


@pytest.mark.parametrize(
    "c",
    [
        pytest.param(np.diag([1.0, 1.0, 1.0, 2.0]), id="scaled"),
        pytest.param(np.eye(4)[:3], id="fewer-rows"),
    ],
)
def test_gain_step_needs_identity_measurement(agent_models, c):
    # the observer starts from x^_0 = y_0, and Pi_0 = T R T^T is its
    # covariance only when C = I
    model = dataclasses.replace(
        agent_models[1], agent_id=7, c=c, r=np.eye(c.shape[0])
    )
    with pytest.raises(DimensionMismatch, match="agent 7: c must be the 4x4 identity"):
        gain_step(model, np.eye(4))


# ---------------------------------------------------------------------------
# observer recursion


def run_observer(model, y, u_x):
    """(x_hat, residuals, final P) of the simulator's observer engine run
    on a group of one agent."""
    res = np.empty_like(y)
    x_hat, p = sim._run_observer(model, y[None], u_x[None], [res])
    return x_hat[0], res, p


def test_zero_everything_stays_zero(agent_models):
    model = agent_models[1]
    x_hat, res, _ = run_observer(
        model, np.zeros((11, model.m)), np.zeros((10, model.b_x.shape[1]))
    )
    assert np.array_equal(x_hat, np.zeros((11, model.n)))
    assert np.array_equal(res, np.zeros((11, model.m)))


def test_matched_cosimulation_decouples_loads(agent_models):
    # truth follows the observer's own model; the load sequence is
    # arbitrary and must leave no trace in the residual
    model = agent_models[1]
    n_steps = 500
    u_x = np.column_stack(
        [
            12_000.0 + 50.0 * RNG.standard_normal(n_steps),
            12_000.0 + 50.0 * RNG.standard_normal(n_steps),
            12_000.0 + 50.0 * RNG.standard_normal(n_steps),
        ]
    )
    d = 1000.0 + 500.0 * RNG.standard_normal(n_steps)
    x = np.zeros((n_steps + 1, model.n))
    x[0, 0] = 12_000.0
    for k in range(n_steps):
        x[k + 1] = model.a @ x[k] + model.b_x @ u_x[k] + model.e[:, 0] * d[k]
    _, res, _ = run_observer(model, x, u_x)
    assert np.max(np.abs(res)) < 1e-6


def converged_gains(model, steps=500):
    p = np.eye(model.n)
    for _ in range(steps):
        gains, p = gain_step(model, p)
    return gains, p


def test_steady_bias_matches_linear_solve(agent_models):
    # constant bias on the neighbour-3 voltage channel: the residual
    # settles onto r = C (I - F)^-1 (-T B_x a)
    model = agent_models[1]
    gains, _ = converged_gains(model)
    bias = np.array([0.0, 0.0, 150.0])  # input order [u1, V2, V3]
    u_x = np.array([12_000.0, 12_000.0, 12_000.0])
    d = 1000.0

    x = np.linalg.solve(
        np.eye(model.n) - model.a, model.b_x @ u_x + model.e[:, 0] * d
    )
    # the observer starts at x, freezes its gains and then settles
    n_steps = 500
    _, res, _ = run_observer(
        model, np.tile(x, (n_steps + 1, 1)), np.tile(u_x + bias, (n_steps, 1))
    )

    e_bar = np.linalg.solve(
        np.eye(model.n) - gains.f, -gains.t @ model.b_x @ bias
    )
    r_bar = model.c @ e_bar
    assert np.max(np.abs(res[-1] - r_bar)) / np.max(np.abs(r_bar)) < 1e-6
    # attribution structure: the bias lands dominantly on the I1_3 channel
    assert abs(r_bar[3]) > 3.0 * abs(r_bar[2])
    assert abs(r_bar[3]) > 3.0 * abs(r_bar[0])
    assert abs(r_bar[3]) > 3.0 * abs(r_bar[1])


def test_attack_sensitivity_every_neighbor(agent_models):
    # any nonzero bias with T B_x a != 0 leaves a nonzero steady residual
    for model in agent_models.values():
        gains, _ = converged_gains(model)
        for j, cp in enumerate(model.couplings):
            bias = np.zeros(model.b_x.shape[1])
            bias[model.n_inputs + j] = 25.0
            assert np.max(np.abs(gains.t @ model.b_x @ bias)) > 0.0
            e_bar = np.linalg.solve(
                np.eye(model.n) - gains.f, -gains.t @ model.b_x @ bias
            )
            r_bar = model.c @ e_bar
            # the accused line channel carries the largest magnitude
            assert np.argmax(np.abs(r_bar)) == 2 + j


def test_discretize_agent_stacks_couplings(threebus, global_model):
    cont = partition_agent(global_model, threebus, 1)
    model = discretize_agent(cont, 1e-4)
    assert model.b_x.shape == (4, 3)
    assert model.n_inputs == 1
    assert len(model.couplings) == 2
    assert model.labels == ["V1", "Ig1", "I1_2", "I1_3"]
    # discrete local dynamics must be stable on their own (passive slice)
    assert np.max(np.abs(np.linalg.eigvals(model.a))) < 1.0
