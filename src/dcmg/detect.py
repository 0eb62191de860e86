"""Residual monitoring: EWMA of the normalized residual magnitude with
persistence latching, attributing alarms on line-current channels to the
neighbour whose reported voltage feeds that line."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveInput, UnknownComponent
from .lti import propagate_into
from .uio import AgentModel

SIGMA_FLOOR = 1e-12


@dataclass
class DetectorConfig:
    """EWMA detector settings.

    The per-component statistic follows
        s <- (1 - ewma_alpha) s + ewma_alpha |r| / sigma
    and latches an alarm once s >= kappa holds for ``persistence``
    consecutive samples.  ``sigma_source`` selects where sigma comes from:
    the converged innovation covariance ("innovation") or the empirical
    residual spread over the warm-up window ("warmup").
    """

    kappa: float = 5.0
    ewma_alpha: float = 0.05
    persistence: int = 10
    sigma_source: str = "innovation"

    def validate(self) -> None:
        if self.kappa <= 0.0:
            raise NonPositiveInput(f"kappa must be > 0, got {self.kappa}")
        if not (0.0 < self.ewma_alpha <= 1.0):
            raise NonPositiveInput(
                f"ewma_alpha must lie in (0, 1], got {self.ewma_alpha}"
            )
        if self.persistence < 1:
            raise NonPositiveInput(
                f"persistence must be >= 1, got {self.persistence}"
            )
        if self.sigma_source not in ("innovation", "warmup"):
            raise NonPositiveInput(
                f"sigma_source must be 'innovation' or 'warmup', got {self.sigma_source!r}"
            )


@dataclass
class DetectionEvent:
    """First latch of one residual component of one agent."""

    agent: int
    accused_neighbor: int | None
    component: str
    time: float
    statistic: float


def _neighbor_for(model: AgentModel, component: int) -> int | None:
    if component >= 2 and component - 2 < len(model.couplings):
        return model.couplings[component - 2].neighbor
    return None


def ewma_statistic(
    residuals: np.ndarray, sigmas: np.ndarray, alpha: float
) -> np.ndarray:
    """EWMA of |r|/sigma along axis 0, starting from zero state.

    Each column is its own scalar system s_{k+1} = (1 - alpha) s_k +
    alpha v_k, propagated as one (m, 1, 1) batch.
    """
    residuals = np.asarray(residuals, dtype=float)
    n_steps, m = residuals.shape
    s = np.empty((m, n_steps + 1, 1))
    s[:, 0] = 0.0
    drive = s[:, 1:, 0]
    np.abs(residuals.T, out=drive)
    drive /= np.maximum(sigmas, SIGMA_FLOOR)[:, None]
    drive *= alpha
    propagate_into(np.full((m, 1, 1), 1.0 - alpha), s)
    return drive.T


def monitor(
    residuals: np.ndarray,
    times: np.ndarray,
    sigmas: np.ndarray,
    model: AgentModel,
    config: DetectorConfig,
) -> list[DetectionEvent]:
    """Scan one agent's residual stream and report per-component latches.

    ``residuals`` is (N, m) with warm-up already excluded upstream and
    ``times`` the matching absolute timestamps.  Each component produces
    at most one event, stamped at the step where the persistence run
    completes.  Components beyond [V, Ig] map one-to-one onto couplings,
    so line-current alarms directly accuse the corresponding neighbour.
    """
    config.validate()
    residuals = np.asarray(residuals, dtype=float)
    if residuals.ndim == 1:
        residuals = residuals[:, None]
    times = np.asarray(times, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    m = len(model.labels)
    if residuals.shape[0] == 0:
        return []
    if residuals.shape[1] != m:
        raise UnknownComponent(
            f"residual stream has {residuals.shape[1]} components, "
            f"model has {m} labels"
        )
    if sigmas.shape != (m,):
        raise UnknownComponent(f"sigmas must have shape ({m},), got {sigmas.shape}")
    if times.shape != (residuals.shape[0],):
        raise UnknownComponent(
            f"times must have shape ({residuals.shape[0]},), got {times.shape}"
        )

    s = ewma_statistic(residuals, sigmas, config.ewma_alpha)
    return _latch_events(s, times, model, config)


def _latch_events(
    s: np.ndarray, times: np.ndarray, model: AgentModel, config: DetectorConfig
) -> list[DetectionEvent]:
    """Events of one agent from its (N, m) EWMA statistic: each component
    latches at the step that completes its first run of ``persistence``
    samples with ``s >= kappa``."""
    above = s >= config.kappa
    idx = np.arange(above.shape[0])
    events: list[DetectionEvent] = []
    for c in range(s.shape[1]):
        col = above[:, c]
        if not col.any():
            continue
        last_false = np.maximum.accumulate(np.where(~col, idx, -1))
        run_length = idx - last_false
        hits = np.nonzero(run_length >= config.persistence)[0]
        if hits.size == 0:
            continue
        k = int(hits[0])
        events.append(
            DetectionEvent(
                agent=model.agent_id,
                accused_neighbor=_neighbor_for(model, c),
                component=model.labels[c],
                time=float(times[k]),
                statistic=float(s[k, c]),
            )
        )
    events.sort(key=lambda ev: (ev.time, ev.component))
    return events
