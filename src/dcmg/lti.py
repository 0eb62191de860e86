"""Dense LTI helpers: matrix exponential, exact zero-order-hold
discretization, a rank-checked left pseudo-inverse and state propagation
by a blocked prefix scan."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    NonFinite,
    NonPositiveInput,
    NonSquare,
    RankDeficient,
)

# rank test threshold on the singular values of m^T m, relative to the largest
RANK_RTOL = 1e-12

# steps per block of the propagation scan (a power of two)
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


def propagate(a: np.ndarray, x0: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """States x_0..x_K of ``x_{k+1} = a x_k + drive_k``.

    ``a`` is (..., n, n), ``x0`` (..., n) and ``drive`` (..., K, n) with the
    same leading batch axes; returns (..., K + 1, n).  The steps run as a
    blocked prefix scan (Blelloch 1990; Martin & Cundy 2018): each block of
    SCAN_BLOCK steps folds ``a x_start`` into its first drive row and then
    makes log2(SCAN_BLOCK) doubling passes ``y[s:] += y[:-s] (a^s)^T``, so
    only the powers a^(2^j) are ever formed.  Inputs are not modified.
    """
    a = np.asarray(a, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    drive = np.asarray(drive, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise NonSquare(f"a must be (..., n, n), got shape {a.shape}")
    n = a.shape[-1]
    batch = a.shape[:-2]
    if x0.shape != batch + (n,):
        raise DimensionMismatch(f"x0 must have shape {batch + (n,)}, got {x0.shape}")
    if drive.ndim != a.ndim or drive.shape[:-2] != batch or drive.shape[-1] != n:
        raise DimensionMismatch(
            f"drive must have shape {batch + ('K', n)}, got {drive.shape}"
        )
    n_steps = drive.shape[-2]
    out = np.empty(batch + (n_steps + 1, n))
    out[..., 0, :] = x0
    out[..., 1:, :] = drive
    propagate_into(a, out)
    return out


def propagate_into(a: np.ndarray, out: np.ndarray) -> None:
    """:func:`propagate` in place: ``out`` (..., K + 1, n) holds x_0 in row
    0 and drive_k in row k + 1 on entry, and x_0..x_K on return.  Shapes
    are the caller's to check."""
    n_steps = out.shape[-2] - 1
    # a batch of scalar systems multiplies by broadcasting, several times
    # faster than numpy's stacked matmul over 1x1 matrices
    prod = np.multiply if a.shape[-1] == 1 else np.matmul
    a_t = np.swapaxes(a, -1, -2)
    powers_t = [a_t]  # (a^s)^T for s = 1, 2, 4, ..., SCAN_BLOCK / 2
    while 2 ** len(powers_t) < SCAN_BLOCK:
        powers_t.append(powers_t[-1] @ powers_t[-1])
    for k0 in range(0, n_steps, SCAN_BLOCK):
        y = out[..., k0 + 1 : k0 + 1 + SCAN_BLOCK, :]
        y[..., :1, :] += prod(out[..., k0 : k0 + 1, :], a_t)
        s = 1
        for p_t in powers_t:
            if s >= y.shape[-2]:
                break
            y[..., s:, :] += prod(y[..., :-s, :], p_t)
            s *= 2
