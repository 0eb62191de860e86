"""Dense LTI helpers: matrix exponential, exact zero-order-hold
discretization, a rank-checked left pseudo-inverse and state propagation
by odd-even reduction."""

from __future__ import annotations

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


@dataclass
class DiscreteModel:
    """Sampled model ``x_{k+1} = a x_k + b u_k + e d_k`` at step ``ts``."""

    a: np.ndarray
    b: np.ndarray
    e: np.ndarray
    ts: float


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(m) of a square matrix (scaling-and-squaring with a Pade core)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix exponential of a non-finite matrix")
    # imported here: scipy.linalg takes most of ``import dcmg``'s time, and
    # loading or validating a scenario never needs it
    import scipy.linalg

    return scipy.linalg.expm(m)


def discretize_zoh(
    a_c: np.ndarray, b_c: np.ndarray, e_c: np.ndarray, ts: float
) -> DiscreteModel:
    """Exact discretization for inputs held constant over each step.

    Embeds the system in the augmented matrix [[a_c, b_c, e_c], [0, 0, 0]]
    whose exponential (scaled by ts) yields A = exp(a_c ts) in the top-left
    block and the held-input integrals int_0^ts exp(a_c s) ds [b_c | e_c]
    alongside it.
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
    return DiscreteModel(
        a=ex[:n, :n], b=ex[:n, n : n + nb], e=ex[:n, n + nb :], ts=ts
    )


def left_pinv(m: np.ndarray) -> np.ndarray:
    """(m^T m)^-1 m^T for a full-column-rank matrix.

    Computed through the SVD for conditioning; raises ``RankDeficient``
    when the smallest singular value of m^T m falls below ``RANK_RTOL``
    times the largest (or the matrix cannot have full column rank at all).
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
    return (vt.T / s) @ u.T


def _add_product(dst: np.ndarray, src: np.ndarray, a_t: np.ndarray, prod) -> None:
    """dst += prod(src, a_t), SCAN_BLOCK rows at a time."""
    for i in range(0, dst.shape[-2], SCAN_BLOCK):
        dst[..., i : i + SCAN_BLOCK, :] += prod(src[..., i : i + SCAN_BLOCK, :], a_t)


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
    row, and each pass runs SCAN_BLOCK rows at a time.  Shapes are the
    caller's to check."""
    # a batch of scalar systems multiplies by broadcasting, several times
    # faster than numpy's stacked matmul over 1x1 matrices
    prod = np.multiply if a.shape[-1] == 1 else np.matmul
    a_t = np.swapaxes(a, -1, -2)
    levels = [(out, a_t)]
    while out.shape[-2] > 2:
        # fold each odd row into the even row after it; recurse on the evens
        _add_product(out[..., 2::2, :], out[..., 1:-1:2, :], a_t, prod)
        out, a_t = out[..., ::2, :], a_t @ a_t
        levels.append((out, a_t))
    # fill in the odd rows, coarsest level first
    for out, a_t in reversed(levels):
        _add_product(out[..., 1::2, :], out[..., :-1:2, :], a_t, prod)
