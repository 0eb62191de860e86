"""Independent reference implementations the test suite checks against.

Everything here is written straight from the defining formulas (truncated
series, textbook recursions, scalar loops) and deliberately imports
nothing from the package under test.
"""

import numpy as np


def expm_series(m, terms=30):
    """exp(m) by scaling-and-squaring over a truncated Taylor series.

    m is scaled by 2**s until its 1-norm drops below 1/4, the series
    sum_{k<=terms} m^k / k! is accumulated, and the result squared s
    times.  At norm 1/4 the term after truncation is below 1e-40, so the
    truncation error is far below the comparison tolerances in use.
    """
    m = np.asarray(m, dtype=float)
    norm = np.linalg.norm(m, 1)
    s = 0 if norm <= 0.25 else int(np.ceil(np.log2(norm / 0.25)))
    a = m / (2.0**s)
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def zoh_series(a_c, b_c, e_c, ts, terms=30):
    """Held-input discretization through the series exponential.

    Uses the same block-augmentation identity as any ZOH derivation but
    evaluates the exponential with :func:`expm_series`, so the numerical
    path is independent of the production Pade code.
    Returns (a, b, e).
    """
    a_c = np.asarray(a_c, dtype=float)
    b_c = np.asarray(b_c, dtype=float)
    e_c = np.asarray(e_c, dtype=float)
    n = a_c.shape[0]
    nb = b_c.shape[1]
    aug = np.zeros((n + nb + e_c.shape[1], n + nb + e_c.shape[1]))
    aug[:n, :n] = a_c * ts
    aug[:n, n : n + nb] = b_c * ts
    aug[:n, n + nb :] = e_c * ts
    ex = expm_series(aug, terms=terms)
    return ex[:n, :n], ex[:n, n : n + nb], ex[:n, n + nb :]


def propagate_loop(a, x0, drive):
    """States of x_{k+1} = a x_k + drive_k, one step at a time for each
    index of the leading batch axes of ``a`` (..., n, n)."""
    a = np.asarray(a, dtype=float)
    out = np.empty(drive.shape[:-2] + (drive.shape[-2] + 1, a.shape[-1]))
    for idx in np.ndindex(a.shape[:-2]):
        out[idx + (0,)] = x0[idx]
        for k in range(drive.shape[-2]):
            out[idx + (k + 1,)] = a[idx] @ out[idx + (k,)] + drive[idx + (k,)]
    return out


def predictor_step(a, c, q, r, p):
    """One step of the standard optimal one-step-ahead predictor.

    Prediction-form Riccati recursion, written in the textbook
    arrangement (explicit innovation inverse, covariance via the
    A P A^T - gain-correction form rather than the Joseph/observer form).
    Returns (k_gain, f, p_next).
    """
    s_inv = np.linalg.inv(c @ p @ c.T + r)
    k = a @ p @ c.T @ s_inv
    f = a - k @ c
    p_next = a @ p @ a.T - a @ p @ c.T @ s_inv @ c @ p @ a.T + q
    return k, f, (p_next + p_next.T) / 2.0


def ewma_loop(values, alpha):
    """Reference EWMA recursion s <- (1 - alpha) s + alpha v, zero start."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    s = np.zeros(values.shape[1:])
    for k in range(values.shape[0]):
        s = (1.0 - alpha) * s + alpha * values[k]
        out[k] = s
    return out
