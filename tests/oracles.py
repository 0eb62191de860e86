"""Independent reference implementations the test suite checks against.

Everything here is written straight from the defining formulas (truncated
series, textbook recursions, scalar loops) and deliberately imports
nothing from the package under test.
"""

import io

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


def propagate_loop(a, x0, drive, periodic=False):
    """States of x_{k+1} = a x_k + drive_k, one step at a time for each
    index of the leading batch axes of ``drive`` (..., K, n).

    ``a`` is (..., n, n); with ``periodic`` it is a table (..., L, n, n)
    instead, and step k multiplies by its entry k mod L.
    """
    a = np.asarray(a, dtype=float)
    if not periodic:
        a = a[..., None, :, :]
    out = np.empty(drive.shape[:-2] + (drive.shape[-2] + 1, a.shape[-1]))
    for idx in np.ndindex(drive.shape[:-2]):
        table = a[idx]
        out[idx + (0,)] = x0[idx]
        for k in range(drive.shape[-2]):
            out[idx + (k + 1,)] = (
                table[k % len(table)] @ out[idx + (k,)] + drive[idx + (k,)]
            )
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


def observer_gain_step(model, p):
    """(F, K1 + K2, P') of one gain update of ``model`` from ``p``,
    written out per agent: K1 by a solve on C P C^T + R, and
    P' = F P F^T + K1 R K1^T - H R H^T + T Q T^T symmetrized and
    eigenvalue-clipped."""
    h, t = model.structural
    ta = t @ model.a
    s = model.c @ p @ model.c.T + model.r
    k1 = np.linalg.solve(s, (ta @ p @ model.c.T).T).T
    f = ta - k1 @ model.c
    k2 = f @ h
    p = f @ p @ f.T + k1 @ model.r @ k1.T - h @ model.r @ h.T + t @ model.q @ t.T
    p = (p + p.T) / 2.0
    w, v = np.linalg.eigh(p)
    if w[0] < 0.0:
        p = (v * np.clip(w, 0.0, None)) @ v.T
        p = (p + p.T) / 2.0
    return f, k1 + k2, p


def observer_loop(model, y, u_x, freeze_gains, freeze_tol, propagate):
    """(x_hat, residuals, final P, freeze step or None) of one agent's
    observer, stepped on its own as the simulator did before its agents
    were batched.

    The gain update is :func:`observer_gain_step`.  The gains freeze
    once |delta trace P| < freeze_tol * max(1, |trace P|), after which the
    rest of the z-recursion runs in place: z_k and the drive rows are
    written into z[k:], which one call of ``propagate(a, out)`` then
    turns into the states, as the simulator's in-place propagation does
    (passed in, so that nothing is imported from the package).
    """
    h, t = model.structural
    n, n_steps = model.n, u_x.shape[0]
    x0 = y[0] if np.array_equal(model.c, np.eye(n)) else np.zeros(n)
    tbu = u_x @ (t @ model.b_x).T
    z = np.empty((n_steps + 1, n))
    z[0] = x0 - h @ y[0]
    p = np.eye(n)
    tr_prev = np.trace(p)
    frozen_at = None
    for k in range(n_steps):
        f, k_sum, p = observer_gain_step(model, p)
        tr = np.trace(p)
        if freeze_gains and abs(tr - tr_prev) < freeze_tol * max(1.0, abs(tr)):
            z[k + 1 :] = tbu[k:] + y[k:n_steps] @ k_sum.T
            propagate(f, z[k:])
            frozen_at = k
            break
        tr_prev = tr
        z[k + 1] = f @ z[k] + tbu[k] + k_sum @ y[k]
    x_hat = z + y @ h.T
    x_hat[0] = x0
    return x_hat, y - x_hat @ model.c.T, p, frozen_at


def ewma_loop(values, alpha):
    """Reference EWMA recursion s <- (1 - alpha) s + alpha v, zero start."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    s = np.zeros(values.shape[1:])
    for k in range(values.shape[0]):
        s = (1.0 - alpha) * s + alpha * values[k]
        out[k] = s
    return out


def savetxt_csv(data, header=""):
    """``np.savetxt`` with ``%.17g`` fields, the trace writer's reference."""
    buf = io.BytesIO()
    np.savetxt(buf, data, fmt="%.17g", delimiter=",", header=header, comments="")
    return buf.getvalue()


def trace_csv(trace):
    """trace.csv bytes as the column-stacking ``np.savetxt`` writer made
    them: time, truth, estimates, residuals, then alarm flags."""
    agents = sorted(trace.models)
    header = ["time"] + list(trace.state_labels)
    columns = [trace.times, *trace.x_true.T]
    for i in agents:
        header += [f"xhat_{lab}" for lab in trace.models[i].labels]
        columns += list(trace.x_hat[i].T)
    for i in agents:
        header += [f"r_{lab}" for lab in trace.models[i].labels]
        columns += list(trace.residuals[i].T)
    for i in agents:
        header.append(f"alarm{i}")
        columns.append(trace.alarm_flags[i].astype(float))
    return savetxt_csv(np.column_stack(columns), ",".join(header))
