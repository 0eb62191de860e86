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

The gain update never reads the data, so agents of equal state and
measurement counts step it together: :class:`AgentBatch` stacks their
matrices along a leading agent axis, and :func:`gain_step` updates every
agent of a batch with stacked matrix products, one stacked solve and one
stacked eigendecomposition.  Given a single :class:`AgentModel` it makes
the same update for that agent alone.  The update reads nothing but P,
and in float64 it soon cycles exactly, so ``sim._run_observer`` calls it
only until the batch's P repeats bit for bit and then replays the
period's gains.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
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
    def batch(self) -> AgentBatch:
        """This agent alone as an :class:`AgentBatch`, formed once per
        model on the same terms as :attr:`structural`."""
        return AgentBatch.of([self])


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


def _t(x: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack."""
    return x.swapaxes(-1, -2)


@dataclass
class AgentBatch:
    """Agents of equal state count n and measurement count m, stacked for
    the gain update along a leading agent axis of length g.

    Besides the matrices the update reads, it holds the parts of the
    update that do not depend on P -- T A, H R H^T and T Q T^T -- formed
    once per batch.
    """

    agent_ids: np.ndarray  # (g,)
    c: np.ndarray  # (g, m, n)
    r: np.ndarray  # (g, m, m)
    h: np.ndarray  # (g, n, m)
    t: np.ndarray  # (g, n, n)
    ta: np.ndarray  # (g, n, n)
    hrh: np.ndarray  # (g, n, n)
    tqt: np.ndarray  # (g, n, n)

    @classmethod
    def of(cls, models: list[AgentModel]) -> AgentBatch:
        """Stack ``models``, which share n and m, checking R and Q against
        them."""
        n, m = models[0].n, models[0].m
        for model in models:
            if model.r.shape != (m, m):
                raise DimensionMismatch(f"r must be {m}x{m}, got {model.r.shape}")
            if model.q.shape != (n, n):
                raise DimensionMismatch(f"q must be {n}x{n}, got {model.q.shape}")
        c, r, q, a = (np.stack([getattr(mdl, k) for mdl in models]) for k in "crqa")
        h = np.stack([mdl.structural[0] for mdl in models])
        t = np.stack([mdl.structural[1] for mdl in models])
        ids = np.array([mdl.agent_id for mdl in models])
        return cls(ids, c, r, h, t, t @ a, h @ r @ _t(h), t @ q @ _t(t))

    def take(self, keep: np.ndarray) -> AgentBatch:
        """The agents selected by the boolean mask ``keep``."""
        return replace(
            self, **{f.name: getattr(self, f.name)[keep] for f in fields(self)}
        )


def _clamp_psd(p: np.ndarray) -> np.ndarray:
    """Symmetrize each matrix of a stack and clip negative eigenvalues to
    zero in the matrices that have any."""
    p = (p + _t(p)) / 2.0
    w, v = np.linalg.eigh(p)
    neg = w[:, 0] < 0.0
    if neg.any():
        v = v[neg]
        p_neg = (v * np.maximum(w[neg], 0.0)[:, None, :]) @ _t(v)
        p[neg] = (p_neg + _t(p_neg)) / 2.0
    return p


def _singular_agent(batch: AgentBatch, s: np.ndarray) -> int | None:
    """Id of the first agent whose innovation covariance cannot be factored."""
    for agent, s_j in zip(batch.agent_ids, s):
        try:
            np.linalg.inv(s_j)
        except np.linalg.LinAlgError:
            return int(agent)


def gain_step(
    model: AgentModel | AgentBatch, p_k: np.ndarray
) -> tuple[ObserverGains, np.ndarray]:
    """One update of the optimal gain and error covariance.

    K1 = T A P C^T (C P C^T + R)^{-1} minimises the next error covariance

        P' = F P F^T + K1 R K1^T - H R H^T + T Q T^T,   F = T A - K1 C

    which is symmetrized and eigenvalue-clipped to positive semidefinite.
    The clip is part of the update, not a rounding guard (ROADMAP item 1):
    on agent 1 of the bundled network the unclipped P' has least eigenvalue
    -95.5 on every step and settles at trace -28.9; the clipped one at 66.6.

    ``model`` is one agent with ``p_k`` of shape (n, n), or an
    :class:`AgentBatch` with ``p_k`` of shape (g, n, n); the gains and P'
    carry the same leading agent axis as ``p_k``.  A singular innovation
    covariance or non-finite gains raise ``SingularInnovation`` naming
    the first agent affected.
    """
    single = isinstance(model, AgentModel)
    batch = model.batch if single else model
    p_k = np.asarray(p_k, dtype=float)
    g, m, n = batch.c.shape
    shape = (n, n) if single else (g, n, n)
    if p_k.shape != shape:
        raise DimensionMismatch(
            f"p_k must be {'x'.join(map(str, shape))}, got {p_k.shape}"
        )
    if single:
        p_k = p_k[None]

    c_t = _t(batch.c)
    s = batch.c @ p_k @ c_t + batch.r
    try:
        # K1 = (T A) P C^T S^{-1}, via a solve on the symmetric S
        k1 = _t(np.linalg.solve(s, _t(batch.ta @ p_k @ c_t)))
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(
            f"agent {_singular_agent(batch, s)}: innovation covariance is singular"
        ) from exc
    finite = np.isfinite(k1).all(axis=(1, 2))
    if not finite.all():
        raise SingularInnovation(
            f"agent {batch.agent_ids[np.argmin(finite)]}: innovation solve "
            "produced non-finite gains"
        )
    f = batch.ta - k1 @ batch.c
    k2 = f @ batch.h
    p_next = f @ p_k @ _t(f) + k1 @ batch.r @ _t(k1) - batch.hrh + batch.tqt
    gains = ObserverGains(h=batch.h, t=batch.t, f=f, k1=k1, k2=k2)
    p_next = _clamp_psd(p_next)
    if single:
        return ObserverGains(**{k: v[0] for k, v in vars(gains).items()}), p_next[0]
    return gains, p_next
