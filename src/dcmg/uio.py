"""Agent models and gains of the distributed unknown-input observer.

This module holds the discrete-time agent model, its structural gains
H and T, and the optimal gain and covariance update; the z-recursion
itself runs over whole horizons in ``sim._run_observer``.  Each agent,
with plant x_{k+1} = A x_k + B_x u_k + E d_k + w_k and measurements
y_k = C x_k + v_k (C = I), runs the two-stage recursion

    z_{k+1}  = F z_k + T B_x u_k + (K1 + K2) y_k
    x^_{k+1} = z_{k+1} + H y_{k+1}

where the structural gains H and T = I - H C satisfy T E = 0, so the
unknown local load current d drops out, and F = T A - K1 C,
K2 = F H, hence (K1 + K2) C = F T.  The covariance tracked is not that
of the estimation error e_k = x_k - x^_k but that of the part of it that
is independent of the current measurement noise (Darouach & Zasadzinski
1997, Automatica 33(4); Gillijns & De Moor 2007, Automatica 43(1)):

    eps_k    = T x_k - z_k = e_k + H v_k
    eps_{k+1} = F eps_k - (K1 + K2) v_k + T w_k - T B_x a_k

with covariance Pi, so that e_k = eps_k - H v_k has P = Pi + H R H^T and
the residual r_k = y_k - C x^_k = C eps_k + M v_k, with M = I - C H, has
covariance C Pi C^T + M R M^T.  The observer starts from x^_0 = y_0,
which makes eps_0 = -T v_0 and Pi_0 = T R T^T exactly.  A bias ``a``
injected on a received neighbour voltage leaves a persistent residual on
the corresponding line-current channel, while load steps leave no trace
at all.

The gain update reads the model and Pi, never the data, so agents of
equal models share one recursion.  :func:`gain_step` updates the Pi of
one :class:`AgentModel`, with the parts that do not depend on Pi formed
once per model (:attr:`AgentModel.gain_terms`), and ``sim._run_observer``
runs one recursion for each group of equal models until Pi settles at
its fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DecouplingInfeasible,
    DimensionMismatch,
    RankDeficient,
    SingularInnovation,
)
from .lti import discretize_zoh, left_pinv
from .netmodel import AgentModelContinuous, Coupling


@dataclass
class AgentModel:
    """Discrete-time agent model the observer operates on.

    ``b_x`` stacks the local control input columns (first ``n_inputs``)
    with one column per received neighbour voltage, in coupling order.
    ``state_index``/``state_sign`` locate the local states in the global
    vector (sign -1 on line currents observed against their canonical
    orientation).
    """

    agent_id: int
    a: np.ndarray
    b_x: np.ndarray
    e: np.ndarray
    c: np.ndarray
    q: np.ndarray
    r: np.ndarray
    ts: float
    n_inputs: int
    labels: list[str]
    couplings: list[Coupling]
    state_index: np.ndarray
    state_sign: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.c.shape[0]

    @cached_property
    def structural(self) -> tuple[np.ndarray, np.ndarray]:
        """(H, T) of :func:`structural_gains`, computed once per model; the
        model's matrices are taken as fixed from the first read on."""
        return structural_gains(self)

    @cached_property
    def gain_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(T A, H R H^T, T Q T^T): the parts of :func:`gain_step` that do
        not depend on Pi, formed once per model on the same terms as
        :attr:`structural`, after C, R and Q are checked.  C must be the
        identity: the observer starts from x^_0 = y_0, and only then is
        Pi_0 = T R T^T its covariance."""
        n, m = self.n, self.m
        if not np.array_equal(self.c, np.eye(n)):
            raise DimensionMismatch(
                f"agent {self.agent_id}: c must be the {n}x{n} identity"
            )
        if self.r.shape != (m, m):
            raise DimensionMismatch(f"r must be {m}x{m}, got {self.r.shape}")
        if self.q.shape != (n, n):
            raise DimensionMismatch(f"q must be {n}x{n}, got {self.q.shape}")
        h, t = self.structural
        return t @ self.a, h @ self.r @ h.T, t @ self.q @ t.T


@dataclass
class ObserverGains:
    h: np.ndarray
    t: np.ndarray
    f: np.ndarray
    k1: np.ndarray
    k2: np.ndarray


def discretize_agent(cont: AgentModelContinuous, ts: float) -> AgentModel:
    """Sample an agent model, folding neighbour couplings into ``b_x``."""
    b_x_c = np.hstack([cont.b_ci] + [cp.column[:, None] for cp in cont.couplings])
    dm = discretize_zoh(cont.a_ci, b_x_c, cont.e_ci, ts)
    model = AgentModel(
        agent_id=cont.agent_id,
        a=dm.a,
        b_x=dm.b,
        e=dm.e,
        c=cont.c_ci.copy(),
        q=cont.q_i.copy(),
        r=cont.r_i.copy(),
        ts=ts,
        n_inputs=cont.b_ci.shape[1],
        labels=list(cont.state_labels),
        couplings=list(cont.couplings),
        state_index=cont.state_index.copy(),
        state_sign=cont.state_sign.copy(),
    )
    model.structural  # fail fast if the load cannot be decoupled
    return model


def structural_gains(model: AgentModel) -> tuple[np.ndarray, np.ndarray]:
    """Gains H, T with (I - H C) E = 0 and T = I - H C.

    H = E [(C E)^T C E]^{-1} (C E)^T requires C E to have full column
    rank; a disturbance direction invisible in the measurements cannot be
    annihilated and raises ``DecouplingInfeasible``.  With no disturbance
    channel at all, H = 0 and T = I.
    """
    c = np.asarray(model.c, dtype=float)
    e = np.asarray(model.e, dtype=float)
    n = c.shape[1]
    if e.size == 0 or not e.any():
        return np.zeros((n, c.shape[0])), np.eye(n)
    try:
        ce_pinv = left_pinv(c @ e)
    except RankDeficient as exc:
        raise DecouplingInfeasible(
            f"agent {model.agent_id}: C E is rank deficient ({exc})"
        ) from exc
    h = e @ ce_pinv
    t = np.eye(n) - h @ c
    return h, t


def gain_step(model: AgentModel, pi: np.ndarray) -> tuple[ObserverGains, np.ndarray]:
    """One update of the optimal gain and of the covariance Pi of
    eps = T x - z (see the module docstring).

    With P = Pi + H R H^T the covariance of the estimation error,
    K1 = T A P C^T (C P C^T + R)^{-1}, F = T A - K1 C and K2 = F H, and

        Pi' = F Pi F^T + (K1 + K2) R (K1 + K2)^T + T Q T^T,

    a sum of positive semidefinite terms, symmetrized once and never
    clipped.  C is the identity (:attr:`AgentModel.gain_terms` checks it),
    so the update forms K1 = T A P (P + R)^{-1} and F = T A - K1 without
    the products by C.

    ``pi`` is (n, n).  A singular innovation covariance or non-finite
    gains raise ``SingularInnovation`` naming the agent.
    """
    pi = np.asarray(pi, dtype=float)
    n = model.n
    if pi.shape != (n, n):
        raise DimensionMismatch(f"pi must be {n}x{n}, got {pi.shape}")
    ta, hrh, tqt = model.gain_terms
    h, t = model.structural
    r = model.r
    p = pi + hrh
    s = p + r
    singular = SingularInnovation(
        f"agent {model.agent_id}: innovation covariance is singular"
    )
    try:
        # K1 = (T A) P S^{-1}, via a solve on the symmetric S = P + R
        k1 = np.linalg.solve(s, (ta @ p).T).T
    except np.linalg.LinAlgError as exc:
        raise singular from exc
    if not np.isfinite(k1).all():
        raise SingularInnovation(
            f"agent {model.agent_id}: innovation solve produced non-finite gains"
        )
    # S is positive semidefinite, so it is also singular when its smallest
    # eigenvalue is within rounding of 0, whatever pivots the LU rounded to
    lam = np.linalg.eigvalsh(s)
    if not lam[0] > 4 * n * np.finfo(float).eps * lam[-1]:
        raise singular
    f = ta - k1
    k2 = f @ h
    k = k1 + k2
    pi_next = f @ pi @ f.T + k @ r @ k.T + tqt
    gains = ObserverGains(h=h, t=t, f=f, k1=k1, k2=k2)
    return gains, (pi_next + pi_next.T) / 2.0
