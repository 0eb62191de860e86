"""Dense LTI helpers: matrix exponential, exact zero-order-hold
discretization, a rank-checked left pseudo-inverse and state propagation
by odd-even reduction.

The reduction has two passes, chosen by the width of the state matrix.
A narrow shared matrix (2 to PAIR_MAX_N states: every agent group's
metered layer and observer tail) forms each new row as one BLAS product
of the adjacent row pair, [x_prev | d] @ [a^T; I], written straight into
the destination rows.  A wide matrix (the network plants) or a 1x1 one
(the EWMA) multiplies and then adds the product into rows two apart,
which costs half the multiply-adds of the pair product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFinite,
    NonPositiveInput,
    NonSquare,
    RankDeficient,
)

# rank test threshold on the singular values of m^T m, relative to the largest
RANK_RTOL = 1e-12

# rows per slice of each propagation pass
SCAN_BLOCK = 256

# bytes of one block of rows that a stage outside the propagation forms or
# scans at a time (``row_blocks``): the plant's load term, the metered
# layers' drives, the observers' products with y, the detector's statistic,
# the report's reductions and the trace export's formatting and compaction
BLOCK_BYTES = 1 << 20

# the widest shared state matrix that propagate_into scans by row-pair products
PAIR_MAX_N = 8


def row_blocks(n: int, row_nbytes: int):
    """Slices over n rows of ``row_nbytes`` each, in order, of about
    BLOCK_BYTES and at least three rows.  None is longer than the first,
    which sizes every buffer, and a one-row remainder takes a row of the
    block before it, as numpy rounds a one-row product by another path."""
    rows, k = max(3, BLOCK_BYTES // max(row_nbytes, 1)), 0
    while k < n:
        stop = min(k + rows, n) - (n - k == rows + 1)
        yield slice(k, stop)
        k = stop


@dataclass
class DiscreteModel:
    """Sampled model ``x_{k+1} = a x_k + b u_k + e d_k`` at step ``ts``."""

    a: np.ndarray
    b: np.ndarray
    e: np.ndarray
    ts: float


def _pade_coefficients(q: int) -> list[float]:
    """b_0..b_q of the degree-q Pade approximant to exp,
    r(x) = sum b_j x^j / sum b_j (-x)^j, scaled so that b_q = 1."""
    f = math.factorial
    return [float(f(2 * q - j) // (f(q - j) * f(j))) for j in range(q + 1)]


# the largest bound on ||m^k||^(1/k) at which each Pade degree meets double
# precision, in ascending order (Higham 2005, Table 2.3)
PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068,
    13: 5.371920351148152,
}


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(m) of a square matrix, by scaling and squaring a Pade
    approximant of degree 3, 5, 7, 9 or 13 (Higham 2005, SIAM J. Matrix
    Anal. Appl. 26(4); Al-Mohy & Higham 2009, ibid. 31(3)).

    The degree and the number of squarings s follow from d_k =
    ||m^k||_1^(1/k) for k = 4 to 10, which bound the series' terms more
    tightly than ||m||_1 when m is far from normal.  The even powers are
    formed from m itself and then scaled by 2^(-ks), as Al-Mohy & Higham
    do, so an m whose powers overflow float64 gives a non-finite result
    instead of a finite guess."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix exponential of a non-finite matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        m2 = m @ m
        m4 = m2 @ m2
        powers = [np.eye(len(m)), m2, m4, m4 @ m2, m4 @ m4]  # up to m^8
        d4, d6, d8, d10 = (
            np.linalg.norm(p, 1) ** (1 / k)
            for p, k in ((m4, 4), (powers[3], 6), (powers[4], 8), (m4 @ powers[3], 10))
        )
    eta = {3: max(d4, d6), 5: max(d4, d6), 7: max(d6, d8), 9: max(d6, d8)}
    degree = next((q for q, bound in eta.items() if bound <= PADE_THETA[q]), 13)
    s = 0
    if degree < 13:
        b = _pade_coefficients(degree)
        u = m @ sum(c * p for c, p in zip(b[1::2], powers))
        v = sum(c * p for c, p in zip(b[::2], powers))
    else:
        bound = min(max(d6, d8), max(d8, d10))
        if not np.isfinite(bound):  # the powers overflow: no result
            return np.full_like(m, np.inf)
        s = max(0, math.ceil(math.log2(bound / PADE_THETA[13])))
        ident, m2, m4, m6 = (np.ldexp(p, -2 * k * s) for k, p in enumerate(powers[:4]))
        b = _pade_coefficients(13)
        u = np.ldexp(m, -s) @ (
            m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
            + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * ident
        )
        v = (
            m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2)
            + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * ident
        )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def discretize_zoh(
    a_c: np.ndarray, b_c: np.ndarray, e_c: np.ndarray, ts: float
) -> DiscreteModel:
    """Exact discretization for inputs held constant over each step.

    Embeds the system in the augmented matrix [[a_c, b_c, e_c], [0, 0, 0]]
    whose exponential (scaled by ts) yields A = exp(a_c ts) in the top-left
    block and the held-input integrals int_0^ts exp(a_c s) ds [b_c | e_c]
    alongside it.  A result that overflows raises ``NonFinite``.
    """
    a_c = np.asarray(a_c, dtype=float)
    b_c = np.asarray(b_c, dtype=float)
    e_c = np.asarray(e_c, dtype=float)
    if a_c.ndim != 2 or a_c.shape[0] != a_c.shape[1]:
        raise NonSquare(f"a_c must be square, got shape {a_c.shape}")
    n = a_c.shape[0]
    if b_c.ndim != 2 or b_c.shape[0] != n:
        raise DimensionMismatch(f"b_c must have {n} rows, got shape {b_c.shape}")
    if e_c.ndim != 2 or e_c.shape[0] != n:
        raise DimensionMismatch(f"e_c must have {n} rows, got shape {e_c.shape}")
    if ts <= 0.0:
        raise NonPositiveInput(f"ts must be > 0, got {ts}")

    nb = b_c.shape[1]
    ne = e_c.shape[1]
    aug = np.zeros((n + nb + ne, n + nb + ne))
    aug[:n, :n] = a_c * ts
    aug[:n, n:] = np.hstack([b_c, e_c]) * ts
    ex = matrix_exponential(aug)
    if not np.isfinite(ex).all():
        raise NonFinite(f"the model's zero-order hold at ts = {ts!r} is not finite")
    return DiscreteModel(
        a=ex[:n, :n], b=ex[:n, n : n + nb], e=ex[:n, n + nb :], ts=ts
    )


def left_pinv(m: np.ndarray) -> np.ndarray:
    """(m^T m)^-1 m^T for a full-column-rank matrix.

    Computed through the SVD for conditioning; raises ``RankDeficient``
    when the smallest singular value of m^T m falls below ``RANK_RTOL``
    times the largest, when the matrix cannot have full column rank at
    all, or when a singular value is subnormal, below 2.2e-308.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got shape {m.shape}")
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, rows))
    if rows < cols:
        raise RankDeficient(f"{rows}x{cols} matrix cannot have rank {cols}")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s[0] == 0.0 or (s[-1] / s[0]) ** 2 < RANK_RTOL:
        raise RankDeficient(
            f"column rank below {cols}: singular values span {s[-1]:.3e}..{s[0]:.3e}"
        )
    if s[-1] < np.finfo(float).tiny:  # 1 / s could overflow
        raise RankDeficient(f"singular value {s[-1]:.3e} is too small to invert")
    return (vt.T / s) @ u.T


def _add_pass(prod):
    """A reduction pass, row first + 2j + 1 of a level += prod(row
    first + 2j, a_t), SCAN_BLOCK rows at a time."""

    def run(level: np.ndarray, first: int, a_t: np.ndarray) -> None:
        dst = level[..., first + 1 :: 2, :]
        src = level[..., first:-1:2, :]
        for i in range(0, dst.shape[-2], SCAN_BLOCK):
            block = slice(i, i + SCAN_BLOCK)
            dst[..., block, :] += prod(src[..., block, :], a_t)

    return run


def _pair_pass(out: np.ndarray):
    """A reduction pass as one product per adjacent row pair of a level,
    row first + 2j + 1 = [row first + 2j | row first + 2j + 1] @ [a_t; I],
    for the series ``out`` of n states that a shared (n, n) matrix scans.
    Each slice of SCAN_BLOCK pairs is copied side by side into one staging
    buffer, and the product writes straight into the level's rows,
    whatever their stride, so a pass allocates nothing larger than the
    buffer."""
    n = out.shape[-1]
    # whole rows as single void elements: numpy copies those far faster
    # than n floats at a time
    row = np.dtype((np.void, n * out.itemsize))
    pairs = np.empty(out.shape[:-2] + (SCAN_BLOCK, 2 * n), dtype=out.dtype)
    flat = pairs.view(row).reshape(out.shape[:-2] + (2 * SCAN_BLOCK,))
    m = np.eye(2 * n, n, k=-n)  # [a_t; I], a_t written by each pass

    def run(level: np.ndarray, first: int, a_t: np.ndarray) -> None:
        m[:n] = a_t
        src = level.view(row)[..., first:, 0]
        dst = level[..., first + 1 :: 2, :]
        for i in range(0, dst.shape[-2], SCAN_BLOCK):
            k = min(SCAN_BLOCK, dst.shape[-2] - i)
            flat[..., : 2 * k] = src[..., 2 * i : 2 * (i + k)]
            np.matmul(pairs[..., :k, :], m, out=dst[..., i : i + k, :])

    return run


def propagate_into(a: np.ndarray, out: np.ndarray) -> None:
    """States x_0..x_K of ``x_{k+1} = a x_k + drive_k``, in place.

    ``out`` (..., K + 1, n) holds x_0 in row 0 and drive_k in row k + 1 on
    entry, and x_0..x_K on return.  ``a`` is (n, n), shared by every index
    of the leading axes of ``out``, or (..., n, n) with the same leading
    axes; it is not modified.  A 1x1 ``a`` scales every column of
    ``out``, so n scalar systems that share it run as one call.  The
    steps run as an odd-even (cyclic) reduction (Hockney 1965; Blelloch
    1990): with d_k the drive in row k, each odd row is folded into the
    even row after it, x_2j = a^2 x_2j-2 + (d_2j + a d_2j-1), the even
    rows are reduced the same way with a^2, and then each odd row is
    filled in, x_2j+1 = a x_2j + d_2j+1.  That is about two products per
    row, and each pass runs SCAN_BLOCK rows at a time.

    A pass adds each product into rows two (or 2^l) apart, and numpy runs
    that add in n-element inner loops.  A shared ``a`` of 2 to PAIR_MAX_N
    states, on a series whose rows are contiguous, instead makes each pass
    one product per row pair, x = [x_prev | d] @ [a^T; I]: the pairs are
    staged side by side, a slice at a time, and the product is written
    straight into the destination rows.  A (30, 10001, 4) series then
    takes about 0.6 times as long.  The identity block doubles the
    multiply-adds, so a wide ``a`` keeps product-then-add: the 90-state
    ring30 plant would take 1.4 times as long.  On a 2-core Xeon the pair
    pass still wins at 32 states and loses at 48; PAIR_MAX_N stays below
    the 9-state three-bus plant, whose states would otherwise move by
    rounding.  Either way, each index of the leading axes comes out as if
    scanned alone.  Shapes are the caller's to check."""
    narrow = a.ndim == 2 and 2 <= a.shape[0] <= PAIR_MAX_N
    if narrow and out.strides[-1] == out.itemsize:
        scan = _pair_pass(out)
    else:
        # a batch of scalar systems multiplies by broadcasting, several
        # times faster than numpy's stacked matmul over 1x1 matrices
        scan = _add_pass(np.multiply if a.shape[-1] == 1 else np.matmul)
    a_t = np.swapaxes(a, -1, -2)
    levels = [(out, a_t)]
    while out.shape[-2] > 2:
        # fold each odd row into the even row after it; recurse on the evens
        scan(out, 1, a_t)
        out, a_t = out[..., ::2, :], a_t @ a_t
        levels.append((out, a_t))
    # fill in the odd rows, coarsest level first
    for out, a_t in reversed(levels):
        scan(out, 0, a_t)
