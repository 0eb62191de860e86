"""Agent models and gains of the distributed unknown-input observer.

This module holds the discrete-time agent model, its structural gains
H and T, and the optimal gain and covariance update; the z-recursion
itself runs over whole horizons in ``sim._run_observer``.  Each agent runs
the two-stage recursion

    z_{k+1}  = F z_k + T B_x u_{x,k} + (K1 + K2) y_k
    x^_{k+1} = z_{k+1} + H y_{k+1}

where the structural gains H and T = I - H C annihilate the unknown local
load current (direction E) from the estimation error, and K1 is chosen each
step to minimise the error covariance given process noise Q and measurement
noise R.  The estimation error then obeys

    e_{k+1} = F e_k - K1 v_k - H v_{k+1} + T w_k - T B_x a_k

so a bias ``a`` injected on a received neighbour voltage leaves a persistent
residual r = y - C x^ on the corresponding line-current channel while load
steps leave no trace at all.

The gain update reads the model and P, never the data, so agents of
equal models share one recursion.  :func:`gain_step` updates the P of one
:class:`AgentModel`, with the parts that do not depend on P formed once
per model (:attr:`AgentModel.gain_terms`), and ``sim._run_observer`` runs
one recursion for each group of equal models.  In float64 the recursion
soon cycles exactly, so the engine calls it only until P repeats bit for
bit and then replays the period's gains.
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

    @property
    def n_neighbors(self) -> int:
        return len(self.couplings)

    @cached_property
    def structural(self) -> tuple[np.ndarray, np.ndarray]:
        """(H, T) of :func:`structural_gains`, computed once per model; the
        model's matrices are taken as fixed from the first read on."""
        return structural_gains(self)

    @cached_property
    def gain_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(T A, H R H^T, T Q T^T): the parts of :func:`gain_step` that do
        not depend on P, formed once per model on the same terms as
        :attr:`structural`, after R and Q are checked against C and A."""
        n, m = self.n, self.m
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


def _clamp_psd(p: np.ndarray) -> np.ndarray:
    """Symmetrize ``p`` and clip its negative eigenvalues to zero, if it
    has any."""
    p = (p + p.T) / 2.0
    w, v = np.linalg.eigh(p)
    if w[0] < 0.0:
        p = (v * np.maximum(w, 0.0)) @ v.T
        p = (p + p.T) / 2.0
    return p


def gain_step(model: AgentModel, p_k: np.ndarray) -> tuple[ObserverGains, np.ndarray]:
    """One update of the optimal gain and error covariance.

    K1 = T A P C^T (C P C^T + R)^{-1} minimises the next error covariance

        P' = F P F^T + K1 R K1^T - H R H^T + T Q T^T,   F = T A - K1 C

    which is symmetrized and eigenvalue-clipped to positive semidefinite.
    The clip is part of the update, not a rounding guard (ROADMAP item 1):
    on agent 1 of the bundled network the unclipped P' has least eigenvalue
    -95.5 on every step and settles at trace -28.9; the clipped one at 66.6.

    ``p_k`` is (n, n).  A singular innovation covariance or non-finite
    gains raise ``SingularInnovation`` naming the agent.
    """
    p_k = np.asarray(p_k, dtype=float)
    n = model.n
    if p_k.shape != (n, n):
        raise DimensionMismatch(f"p_k must be {n}x{n}, got {p_k.shape}")
    ta, hrh, tqt = model.gain_terms
    h, t = model.structural
    c, r = model.c, model.r
    s = c @ p_k @ c.T + r
    try:
        # K1 = (T A) P C^T S^{-1}, via a solve on the symmetric S
        k1 = np.linalg.solve(s, (ta @ p_k @ c.T).T).T
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(
            f"agent {model.agent_id}: innovation covariance is singular"
        ) from exc
    if not np.isfinite(k1).all():
        raise SingularInnovation(
            f"agent {model.agent_id}: innovation solve produced non-finite gains"
        )
    f = ta - k1 @ c
    p_next = f @ p_k @ f.T + k1 @ r @ k1.T - hrh + tqt
    gains = ObserverGains(h=h, t=t, f=f, k1=k1, k2=f @ h)
    return gains, _clamp_psd(p_next)
