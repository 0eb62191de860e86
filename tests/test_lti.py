import importlib
import pkgutil
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dcmg
import dcmg.lti as lti
import dcmg.sim as sim
from dcmg.cli import scenario_from_dict
from dcmg.errors import (
    DimensionMismatch,
    NonFinite,
    NonPositiveInput,
    NonSquare,
    RankDeficient,
)
from dcmg.lti import (
    BLOCK_BYTES,
    PAIR_MAX_N,
    SCAN_BLOCK,
    discretize_zoh,
    left_pinv,
    matrix_exponential,
    propagate_into,
    row_blocks,
)
from oracles import expm_series, propagate_loop, zoh_series

RNG = np.random.default_rng(20240817)
ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# matrix_exponential


def test_expm_zero_matrix_is_identity():
    assert np.array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal_case():
    m = np.diag([0.3, -1.7])
    expected = np.diag(np.exp([0.3, -1.7]))
    assert np.allclose(matrix_exponential(m), expected, rtol=0, atol=1e-14)


def test_expm_matches_series_oracle_small_norm():
    # random 4x4 with ||m|| <= 1 against a 50-term series
    for _ in range(20):
        m = RNG.standard_normal((4, 4))
        m /= max(1.0, np.linalg.norm(m, 2))
        diff = matrix_exponential(m) - expm_series(m, terms=50)
        assert np.max(np.abs(diff)) < 1e-12


def test_expm_inverse_property():
    # exp(m) exp(-m) = I; the achievable accuracy degrades like e^(2||m||)
    for norm, tol in ((5.0, 1e-9), (10.0, 1e-7)):
        for _ in range(20):
            m = RNG.standard_normal((5, 5))
            m *= norm / np.linalg.norm(m, 2)
            prod = matrix_exponential(m) @ matrix_exponential(-m)
            assert np.max(np.abs(prod - np.eye(5))) < tol


def test_expm_matches_scipy_on_every_workload_model(monkeypatch):
    # the augmented ZOH matrix of every agent and plant of the benchmark's
    # workloads, against scipy's independent implementation
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    seen = []

    def recorded(m):
        seen.append(m)
        return matrix_exponential(m)

    monkeypatch.setattr(lti, "matrix_exponential", recorded)
    for workload in workloads.WORKLOADS:
        sim.prepare(scenario_from_dict(workloads.make_scenario(workload, 1, ROOT)))
    assert len(seen) >= len(workloads.WORKLOADS) * 2
    for m in seen:
        ref = scipy.linalg.expm(m)
        assert np.max(np.abs(matrix_exponential(m) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_expm_matches_scipy_on_random_matrices():
    # 1-norms up to 1, where neither side squares.  Above that, scipy's own
    # error on such matrices reaches 1e-12 relative (against a 40-digit
    # reference), so the next test takes over with an exact reference
    for norm in np.logspace(-3, 0, 16):
        for n in (2, 5, 9):
            m = RNG.standard_normal((n, n))
            m *= norm / np.linalg.norm(m, 1)
            ref = scipy.linalg.expm(m)
            assert np.max(np.abs(matrix_exponential(m) - ref)) <= 1e-14 * np.max(
                np.abs(ref)
            )


def test_expm_matches_closed_form_on_normal_matrices():
    # m = Q D Q^T, Q orthogonal and D of 1x1 blocks and 2x2 blocks
    # [[a, w], [-w, a]], whose exponentials are e^a and e^a times a
    # rotation by w.  exp's relative condition number at a normal m is
    # ||m||_2, so above 1-norm 1 the bound grows with the norm
    for norm in np.logspace(-3, 2, 21):
        for n in (2, 5, 9):
            q = np.linalg.qr(RNG.standard_normal((n, n)))[0]
            d = np.diag(RNG.uniform(-1.0, 1.0, n))
            for j in range(0, n - 1, 2):
                w = RNG.uniform(-1.0, 1.0)
                d[j + 1, j + 1] = d[j, j]
                d[j, j + 1], d[j + 1, j] = w, -w
            d *= norm / np.linalg.norm(q @ d @ q.T, 1)
            ed = np.diag(np.exp(np.diag(d)))
            for j in range(0, n - 1, 2):
                c, s = np.cos(d[j, j + 1]), np.sin(d[j, j + 1])
                ed[j : j + 2, j : j + 2] = ed[j, j] * np.array([[c, s], [-s, c]])
            ref = q @ ed @ q.T
            bound = 1e-14 * max(1.0, norm) * np.max(np.abs(ref))
            assert np.max(np.abs(matrix_exponential(q @ d @ q.T) - ref)) <= bound


def test_expm_rejects_nonsquare_and_nonfinite():
    with pytest.raises(NonSquare):
        matrix_exponential(np.zeros((2, 3)))
    with pytest.raises(NonSquare):
        matrix_exponential(np.zeros(4))
    bad = np.zeros((2, 2))
    bad[0, 1] = np.nan
    with pytest.raises(NonFinite):
        matrix_exponential(bad)


# ---------------------------------------------------------------------------
# discretize_zoh


def test_zoh_integrator_case():
    # a_c = 0: pure integrator, A = I and B = ts * b_c
    b_c = np.array([[2.0], [0.5], [-1.0]])
    dm = discretize_zoh(np.zeros((3, 3)), b_c, np.zeros((3, 0)), 1e-3)
    assert np.allclose(dm.a, np.eye(3), rtol=0, atol=1e-15)
    assert np.allclose(dm.b, 1e-3 * b_c, rtol=1e-12, atol=0)
    assert dm.e.shape == (3, 0)


def test_zoh_scalar_decay():
    dm = discretize_zoh(
        np.array([[-200.0]]), np.zeros((1, 1)), np.zeros((1, 1)), 1e-4
    )
    assert abs(dm.a[0, 0] - np.exp(-0.02)) < 1e-12
    assert abs(dm.a[0, 0] - 0.98019867) < 1e-7


def test_zoh_matches_series_oracle_random():
    for _ in range(10):
        a_c = RNG.standard_normal((4, 4)) * 50.0
        b_c = RNG.standard_normal((4, 2))
        e_c = RNG.standard_normal((4, 1))
        dm = discretize_zoh(a_c, b_c, e_c, 1e-3)
        a_o, b_o, e_o = zoh_series(a_c, b_c, e_c, 1e-3)
        assert np.max(np.abs(dm.a - a_o)) < 1e-9
        assert np.max(np.abs(dm.b - b_o)) < 1e-9
        assert np.max(np.abs(dm.e - e_o)) < 1e-9


def test_zoh_semigroup_property():
    a_c = RNG.standard_normal((5, 5)) * 100.0
    b_c = RNG.standard_normal((5, 2))
    e_c = RNG.standard_normal((5, 1))
    full = discretize_zoh(a_c, b_c, e_c, 2e-4)
    half = discretize_zoh(a_c, b_c, e_c, 1e-4)
    assert np.max(np.abs(full.a - half.a @ half.a)) < 1e-9
    assert np.max(np.abs(full.b - (half.a @ half.b + half.b))) < 1e-9
    assert np.max(np.abs(full.e - (half.a @ half.e + half.e))) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    lams=st.lists(
        st.floats(min_value=-2000.0, max_value=-1e-3), min_size=1, max_size=5
    ),
    ts=st.floats(min_value=1e-6, max_value=1e-2),
)
@example(lams=[-0.03125], ts=1e-6)
def test_zoh_diagonal_closed_form(lams, ts):
    # decoupled stable states have the closed form A = e^(lam ts),
    # B = (e^(lam ts) - 1)/lam per state; expm1 keeps the reference's
    # digits when lam ts is tiny
    lam = np.array(lams)
    a_c = np.diag(lam)
    b_c = np.ones((lam.size, 1))
    dm = discretize_zoh(a_c, b_c, np.zeros((lam.size, 0)), ts)
    assert np.allclose(np.diag(dm.a), np.exp(lam * ts), rtol=1e-10, atol=0)
    expected_b = np.expm1(lam * ts) / lam
    assert np.allclose(dm.b[:, 0], expected_b, rtol=1e-9, atol=1e-18)


def test_zoh_rejects_bad_inputs():
    a = np.zeros((2, 2))
    b = np.zeros((2, 1))
    e = np.zeros((2, 1))
    with pytest.raises(NonPositiveInput):
        discretize_zoh(a, b, e, 0.0)
    with pytest.raises(NonPositiveInput):
        discretize_zoh(a, b, e, -1e-4)
    with pytest.raises(NonSquare):
        discretize_zoh(np.zeros((2, 3)), b, e, 1e-4)
    with pytest.raises(DimensionMismatch):
        discretize_zoh(a, np.zeros((3, 1)), e, 1e-4)
    with pytest.raises(DimensionMismatch):
        discretize_zoh(a, b, np.zeros((3, 1)), 1e-4)
    # an LC pair with C = 1e-200: rates of 1e200 per second leave no
    # finite ZOH at ts = 1e-4, which is reported instead of returned
    with pytest.raises(NonFinite, match="zero-order hold at ts = 0.0001"):
        discretize_zoh(np.array([[0.0, 1e200], [-1e200, 0.0]]), b, e, 1e-4)


# ---------------------------------------------------------------------------
# propagate_into


def stable_matrix(rng, batch, n, radius):
    """Random real normal (batch, n, n) matrices with spectral radius
    ``radius``: a random orthogonal similarity of a block diagonal of
    scaled 2x2 rotations and signed scalars, moduli in [0, radius]."""
    out = np.empty(batch + (n, n))
    for idx in np.ndindex(batch):
        mods = rng.uniform(0.0, radius, n)
        mods[0] = radius
        blocks = np.zeros((n, n))
        j = 0
        while j < n:
            if j + 1 < n and rng.random() < 0.5:
                theta = rng.uniform(0.0, np.pi)
                c, s = np.cos(theta), np.sin(theta)
                blocks[j : j + 2, j : j + 2] = mods[j] * np.array([[c, -s], [s, c]])
                j += 2
            else:
                blocks[j, j] = mods[j] * rng.choice([-1.0, 1.0])
                j += 1
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        out[idx] = q @ blocks @ q.T
    return out


@settings(max_examples=40, deadline=None)
@given(
    batch=st.sampled_from([(), (1,), (3,), (2, 3)]),
    shared=st.booleans(),
    n=st.integers(min_value=1, max_value=6),
    n_steps=st.sampled_from(
        [0, 1, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 3 * SCAN_BLOCK + 7]
    ),
    radius=st.floats(min_value=0.0, max_value=0.999),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_propagate_matches_loop(batch, shared, n, n_steps, radius, seed):
    # ``shared``: one (n, n) ``a`` for every index of the batch axes
    rng = np.random.default_rng(seed)
    a = stable_matrix(rng, () if shared else batch, n, radius)
    a_before = a.copy()
    x0 = rng.standard_normal(batch + (n,)) * 1e4
    drive = rng.standard_normal(batch + (n_steps, n)) * 1e2
    out = np.concatenate([x0[..., None, :], drive], axis=-2)
    propagate_into(a, out)
    ref = propagate_loop(np.broadcast_to(a, batch + (n, n)), x0, drive)
    assert np.array_equal(out[..., 0, :], x0)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(a, a_before)


def test_propagate_long_odd_horizon_matches_loop():
    # 10001 steps: every halving of the reduction leaves an odd row over
    rng = np.random.default_rng(101)
    a = stable_matrix(rng, (), 4, 0.999)
    x0 = rng.standard_normal(4) * 1e4
    drive = rng.standard_normal((10_001, 4)) * 1e2
    out = np.concatenate([x0[None], drive])
    propagate_into(a, out)
    ref = propagate_loop(a, x0, drive)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_propagate_bundled_plant_matches_loop(global_model):
    # the bundled network's plant is far from normal and has entries of
    # 4.7, so its powers grow before they decay
    a = discretize_zoh(global_model.a_c, global_model.b_c, global_model.e_c, 1e-4).a
    assert np.max(np.abs(a)) > 4.0
    assert np.max(np.abs(a @ a.T - a.T @ a)) > 1.0
    rng = np.random.default_rng(102)
    x0 = rng.standard_normal(a.shape[0]) * 1e2
    drive = rng.standard_normal((3 * SCAN_BLOCK + 5, a.shape[0]))
    out = np.concatenate([x0[None], drive])
    propagate_into(a, out)
    ref = propagate_loop(a, x0, drive)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_propagate_scalar_a_scales_every_column():
    # a 1x1 ``a`` runs 300 scalar systems side by side, as the EWMA does
    rng = np.random.default_rng(103)
    x0 = rng.standard_normal(300)
    drive = rng.standard_normal((2 * SCAN_BLOCK + 1, 300))
    out = np.concatenate([x0[None], drive])
    propagate_into(np.full((1, 1), 0.95), out)
    ref = propagate_loop(0.95 * np.eye(300), x0, drive)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_propagate_allocates_one_slice_and_the_powers():
    # the ring30 plant's shape: no temporary as large as the series, only
    # one SCAN_BLOCK-row product, one n x n power per halving and the
    # buffers numpy's in-place add iterates with
    rng = np.random.default_rng(104)
    n, rows = 90, 10_001
    a = stable_matrix(rng, (), n, 0.99)
    out = rng.standard_normal((rows, n))
    propagate_into(a, out.copy())
    halvings = int(np.ceil(np.log2(rows)))
    tracemalloc.start()
    try:
        propagate_into(a, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffers = 3 * np.getbufsize()
    assert peak <= 8 * (SCAN_BLOCK * n + halvings * n * n + buffers)
    assert peak < out.nbytes / 4


@pytest.mark.parametrize("n", [2, 4, PAIR_MAX_N])
@pytest.mark.parametrize("g", [1, 3, 30])
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 2 * SCAN_BLOCK + 1, 2 * SCAN_BLOCK + 4])
def test_propagate_batch_rows_match_each_row_alone(n, g, rows):
    # the engine scans a group's series as one batch and the per-agent
    # oracles scan each agent alone; they agree bit for bit only if no
    # product's shape depends on the batch
    rng = np.random.default_rng(105)
    a = stable_matrix(rng, (), n, 0.999)
    out = rng.standard_normal((g, rows, n)) * 1e2
    alone = [row.copy() for row in out]
    propagate_into(a, out)
    for j, row in enumerate(alone):
        propagate_into(a, row)
        assert np.array_equal(out[j], row)


@pytest.mark.parametrize("n", [PAIR_MAX_N, PAIR_MAX_N + 1])
def test_propagate_crossover_width_matches_loop(n):
    # the widest matrix scanned by row-pair products and the narrowest
    # scanned by product-then-add
    rng = np.random.default_rng(106)
    a = stable_matrix(rng, (), n, 0.999)
    x0 = rng.standard_normal((3, n)) * 1e4
    drive = rng.standard_normal((3, 3 * SCAN_BLOCK + 7, n)) * 1e2
    out = np.concatenate([x0[:, None], drive], axis=1)
    propagate_into(a, out)
    ref = propagate_loop(np.broadcast_to(a, (3, n, n)), x0, drive)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_propagate_strided_state_columns_match_loop():
    # a series whose states are not adjacent in memory cannot be copied
    # as whole rows, and takes the product-then-add pass
    rng = np.random.default_rng(107)
    a = stable_matrix(rng, (), 4, 0.99)
    x0 = rng.standard_normal((2, 4))
    drive = rng.standard_normal((2, SCAN_BLOCK + 3, 4))
    wide = np.zeros((2, SCAN_BLOCK + 4, 8))
    out = wide[..., ::2]
    out[:, 0], out[:, 1:] = x0, drive
    propagate_into(a, out)
    ref = propagate_loop(np.broadcast_to(a, (2, 4, 4)), x0, drive)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert not wide[..., 1::2].any()


def test_propagate_narrow_series_allocates_no_half_series():
    # ring30's metered-layer shape: the row pairs are staged two slices at
    # a time, so the temporaries stay far below the half series that a
    # copy of the even rows would take
    rng = np.random.default_rng(108)
    g, rows, n = 30, 10_001, 4
    a = stable_matrix(rng, (), n, 0.99)
    out = rng.standard_normal((g, rows, n))
    propagate_into(a, out.copy())
    slice_bytes = g * SCAN_BLOCK * n * out.itemsize
    tracemalloc.start()
    try:
        propagate_into(a, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes / 2 + slice_bytes
    assert peak < 3 * slice_bytes


# ---------------------------------------------------------------------------
# left_pinv


def test_left_pinv_unit_column():
    e1 = np.array([[1.0], [0.0], [0.0]])
    assert np.allclose(left_pinv(e1), e1.T, rtol=0, atol=1e-15)


def test_left_pinv_identity():
    assert np.allclose(left_pinv(np.eye(4)), np.eye(4), rtol=0, atol=1e-14)


def test_left_pinv_reconstructs_identity():
    for _ in range(10):
        m = RNG.standard_normal((6, 3))
        assert np.max(np.abs(left_pinv(m) @ m - np.eye(3))) < 1e-10


def test_left_pinv_duplicate_columns_rejected():
    col = RNG.standard_normal((4, 1))
    with pytest.raises(RankDeficient):
        left_pinv(np.hstack([col, col]))


def test_left_pinv_subnormal_singular_values_rejected():
    # well conditioned, but 1 / 1e-309 overflows: an error, not a warning
    # and an infinite inverse; at 1e-300 the inverse is still exact
    m = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 2)))[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RankDeficient, match="too small to invert"):
            left_pinv(m * 1e-309)
        assert np.abs(left_pinv(m * 1e-300) @ (m * 1e-300) - np.eye(2)).max() < 1e-12


def test_left_pinv_wide_matrix_rejected():
    with pytest.raises(RankDeficient):
        left_pinv(np.ones((2, 3)))


def test_left_pinv_zero_columns_degenerate():
    out = left_pinv(np.zeros((3, 0)))
    assert out.shape == (0, 3)


def test_left_pinv_rejects_non_2d():
    with pytest.raises(DimensionMismatch):
        left_pinv(np.ones(3))


# ---------------------------------------------------------------------------
# row_blocks


@pytest.mark.parametrize("row_nbytes", [0, 96, 1 << 18, 1 << 30])
def test_row_blocks_cut_the_rows_in_order(row_nbytes):
    # a full block holds about BLOCK_BYTES of rows, and at least three rows
    rows = max(3, BLOCK_BYTES // max(row_nbytes, 1))
    for n in (0, 1, 2, rows - 1, rows, rows + 1, 3 * rows + 1):
        blocks = list(row_blocks(n, row_nbytes))
        edges = [0] + [block.stop for block in blocks]
        assert blocks == [slice(a, b) for a, b in zip(edges, edges[1:])]
        assert edges[-1] == n  # so n = 0 gives no block
        lengths = np.diff(edges)
        assert (lengths <= lengths[:1]).all(), n  # none longer than the first
        assert (lengths >= 2).all() or n == 1, n  # no block of one row
        if n >= rows + 2:
            assert lengths[0] == rows


def test_only_lti_holds_block_bytes():
    # the tests cut small blocks by patching lti.BLOCK_BYTES: a module that
    # held a copy of its own would go on cutting full ones, and a test that
    # patched it would pass without testing blocks
    names = ["dcmg"] + [m.name for m in pkgutil.iter_modules(dcmg.__path__, "dcmg.")]
    holders = [n for n in names if hasattr(importlib.import_module(n), "BLOCK_BYTES")]
    assert holders == ["dcmg.lti"]
