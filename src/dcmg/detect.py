"""Residual monitoring: EWMA of the normalized residual magnitude with
persistence latching, attributing alarms on line-current channels to the
neighbour whose reported voltage feeds that line.

``monitor`` takes the residual channels of any number of agents side by
side and scans them online, one block of rows at a time: one EWMA call per
block, then, one channel at a time, the runs above kappa of each channel
that reaches it in the block.  Each channel's EWMA state and its run above
kappa carry from block to block, so the blocks join with no seam and the
scan holds one block of the statistic, whatever the horizon.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveInput, UnknownComponent
from .lti import propagate_into, row_blocks
from .uio import AgentModel

SIGMA_FLOOR = 1e-12


@dataclass
class DetectorConfig:
    """EWMA detector settings.

    The per-component statistic follows
        s <- (1 - ewma_alpha) s + ewma_alpha |r| / sigma
    and latches an alarm once s >= kappa holds for ``persistence``
    consecutive samples.  sigma is the model's, never estimated from the
    residuals: sqrt(diag(Pi + M R M^T)) of the settled observer, with
    M = I - H (see ``dcmg.uio``).
    """

    kappa: float = 5.0
    ewma_alpha: float = 0.05
    persistence: int = 10

    def validate(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise NonPositiveInput(f"kappa must be finite and > 0, got {self.kappa}")
        if not (0.0 < self.ewma_alpha <= 1.0):
            raise NonPositiveInput(
                f"ewma_alpha must lie in (0, 1], got {self.ewma_alpha}"
            )
        if self.persistence < 1:
            raise NonPositiveInput(
                f"persistence must be >= 1, got {self.persistence}"
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
    residuals: np.ndarray,
    sigmas: np.ndarray,
    alpha: float,
    start: np.ndarray | float = 0.0,
) -> np.ndarray:
    """EWMA of |r|/sigma along axis 0, from the state ``start`` (zeros by
    default; row N - 1 of the previous block to continue a stream).

    Each column is its own scalar system s_{k+1} = (1 - alpha) s_k +
    alpha v_k; one in-place scan of the (N, m) block runs them all.
    """
    residuals = np.asarray(residuals, dtype=float)
    s = np.empty((residuals.shape[0] + 1, residuals.shape[1]))
    s[0] = start
    drive = s[1:]
    np.abs(residuals, out=drive)
    drive /= np.maximum(sigmas, SIGMA_FLOOR)
    drive *= alpha
    propagate_into(np.full((1, 1), 1.0 - alpha), s)
    return drive


def monitor(
    residuals: np.ndarray,
    times: np.ndarray,
    sigmas: np.ndarray,
    models: Sequence[AgentModel],
    config: DetectorConfig,
) -> list[DetectionEvent]:
    """Scan the residual streams of the agents in ``models`` and report
    per-component latches.

    ``residuals`` is (N, M): the components of every agent of ``models``
    side by side, in that order, so M is their total label count.  Warm-up
    is already excluded upstream, ``times`` holds the matching absolute
    timestamps and ``sigmas`` is (M,).  Each component produces at most
    one event, stamped at the step that completes its first run of
    ``persistence`` samples with s >= kappa.  Components beyond [V, Ig]
    map one-to-one onto couplings, so line-current alarms directly accuse
    the corresponding neighbour.  Events come sorted by (time, agent,
    component).

    The rows are scanned in the blocks ``lti.row_blocks`` cuts for the
    statistic.  Each block's EWMA starts from the previous block's last
    row, and each channel's run above kappa that reaches a block's end
    carries into the next block, so the events are those of one scan over
    all N rows.
    """
    config.validate()
    residuals = np.asarray(residuals, dtype=float)
    times = np.asarray(times, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    channels = [(model, c) for model in models for c in range(len(model.labels))]
    m = len(channels)
    if residuals.ndim != 2 or residuals.shape[1] != m:
        raise UnknownComponent(f"residuals {residuals.shape} do not fit {m} components")
    if sigmas.shape != (m,):
        raise UnknownComponent(f"sigmas must have shape ({m},), got {sigmas.shape}")
    if times.shape != (residuals.shape[0],):
        raise UnknownComponent(
            f"times must have shape ({residuals.shape[0]},), got {times.shape}"
        )

    start = 0.0
    # each channel's samples above kappa up to the block, and whether it
    # has latched
    run = np.zeros(m, dtype=np.intp)
    latched = np.zeros(m, dtype=bool)
    events: list[DetectionEvent] = []
    for span in row_blocks(residuals.shape[0], m * residuals.itemsize):
        s = ewma_statistic(residuals[span], sigmas, config.ewma_alpha, start)
        start = s[-1].copy()
        above = s >= config.kappa
        reached = above.any(axis=0)
        run[~reached] = 0
        for col in np.flatnonzero(reached & ~latched):
            # the column's runs above kappa start and end where it changes
            edges = np.flatnonzero(np.diff(above[:, col], prepend=False, append=False))
            starts, ends = edges[::2], edges[1::2]
            if starts[0] == 0:
                starts[0] = -run[col]  # the run carried from the blocks before
            run[col] = ends[-1] - starts[-1] if ends[-1] == len(s) else 0
            long = np.flatnonzero(ends - starts >= config.persistence)
            if long.size == 0:
                continue
            k = starts[long[0]] + config.persistence - 1
            latched[col] = True
            model, c = channels[col]
            events.append(
                DetectionEvent(
                    agent=model.agent_id,
                    accused_neighbor=_neighbor_for(model, c),
                    component=model.labels[c],
                    time=float(times[span.start + k]),
                    statistic=float(s[k, col]),
                )
            )
        del s, above  # freed before the next block is allocated
    events.sort(key=lambda ev: (ev.time, ev.agent, ev.component))
    return events
