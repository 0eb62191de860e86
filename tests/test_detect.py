import numpy as np
import pytest

import dcmg.lti as lti
from dcmg.detect import DetectorConfig, ewma_statistic, monitor
from dcmg.errors import NonPositiveInput, UnknownComponent
from oracles import ewma_loop, latch_loop

TS = 1e-4
RNG = np.random.default_rng(2718)


def times_for(n):
    return np.arange(n) * TS


def jump_stream(n=200, k0=50, column=3, height=10.0, width=4):
    r = np.zeros((n, width))
    r[k0:, column] = height
    return r


# ---------------------------------------------------------------------------
# statistic


def test_ewma_matches_scalar_recursion():
    residuals = RNG.standard_normal((300, 4)) * [3.0, 1.0, 0.5, 10.0]
    sigmas = np.array([3.0, 1.0, 0.5, 10.0])
    s = ewma_statistic(residuals, sigmas, alpha=0.05)
    for c in range(4):
        ref = ewma_loop(np.abs(residuals[:, c]) / sigmas[c], 0.05)
        assert np.max(np.abs(s[:, c] - ref)) < 1e-12


def test_ewma_starts_from_zero_state():
    s = ewma_statistic(np.ones((5, 1)), np.array([1.0]), alpha=0.5)
    assert np.allclose(s[:, 0], [0.5, 0.75, 0.875, 0.9375, 0.96875], atol=1e-15)


def test_zero_sigma_hits_floor_not_zero_division():
    s = ewma_statistic(np.ones((10, 1)), np.array([0.0]), alpha=0.5)
    assert np.all(np.isfinite(s))
    assert s[-1, 0] > 1e10


# ---------------------------------------------------------------------------
# latching


def test_latch_fires_inside_persistence_window(agent_models):
    model = agent_models[1]
    cfg = DetectorConfig(kappa=5.0, ewma_alpha=0.5, persistence=10)
    k0 = 50
    r = jump_stream(k0=k0)
    events = monitor(r, times_for(len(r)), np.ones(4), [model], cfg)
    assert len(events) == 1
    ev = events[0]
    # alpha 0.5 on a 10-sigma jump crosses kappa on the very first biased
    # sample, so the latch lands exactly persistence steps into the window
    assert ev.time == pytest.approx((k0 + cfg.persistence - 1) * TS)
    assert k0 * TS <= ev.time <= (k0 + cfg.persistence) * TS
    assert ev.component == "I1_3"
    assert ev.accused_neighbor == 3
    assert ev.agent == 1
    assert ev.statistic >= cfg.kappa


def test_one_event_per_component(agent_models):
    model = agent_models[1]
    cfg = DetectorConfig(kappa=5.0, ewma_alpha=0.5, persistence=10)
    r = jump_stream(n=2_000)
    events = monitor(r, times_for(len(r)), np.ones(4), [model], cfg)
    assert len(events) == 1


def test_events_sorted_and_attributed(agent_models):
    model = agent_models[1]
    cfg = DetectorConfig(kappa=5.0, ewma_alpha=0.5, persistence=10)
    r = jump_stream(k0=120, column=2) + jump_stream(k0=40, column=3)
    events = monitor(r, times_for(len(r)), np.ones(4), [model], cfg)
    assert [ev.component for ev in events] == ["I1_3", "I1_2"]
    assert [ev.accused_neighbor for ev in events] == [3, 2]
    assert events[0].time < events[1].time


def test_bus_channels_accuse_nobody(agent_models):
    model = agent_models[1]
    cfg = DetectorConfig(kappa=5.0, ewma_alpha=0.5, persistence=10)
    events = monitor(
        jump_stream(column=0), times_for(200), np.ones(4), [model], cfg
    )
    assert len(events) == 1
    assert events[0].component == "V1"
    assert events[0].accused_neighbor is None


def test_no_alarm_under_null(agent_models):
    model = agent_models[1]
    cfg = DetectorConfig(kappa=5.0, ewma_alpha=0.05, persistence=10)
    sigmas = np.array([10.0, 10.0, 3.2, 3.2])
    r = np.random.default_rng(99).standard_normal((100_000, 4)) * sigmas
    events = monitor(r, times_for(len(r)), sigmas, [model], cfg)
    assert events == []


def test_threshold_and_persistence_monotonicity(agent_models):
    model = agent_models[1]
    r = jump_stream()
    t = times_for(len(r))

    def first_time(kappa, persistence):
        events = monitor(
            r, t, np.ones(4), [model],
            DetectorConfig(kappa=kappa, ewma_alpha=0.5, persistence=persistence),
        )
        assert len(events) == 1
        return events[0].time

    assert first_time(3.0, 10) <= first_time(5.0, 10) <= first_time(8.0, 10)
    assert first_time(5.0, 5) < first_time(5.0, 10) < first_time(5.0, 40)


def test_subthreshold_stream_is_silent(agent_models):
    model = agent_models[1]
    cfg = DetectorConfig(kappa=5.0, ewma_alpha=0.5, persistence=10)
    r = jump_stream(height=4.0)  # EWMA can never exceed 4 < kappa
    assert monitor(r, times_for(len(r)), np.ones(4), [model], cfg) == []


def test_agent_block_merges_single_agent_events(agent_models):
    m1, m2 = agent_models[1], agent_models[2]
    cfg = DetectorConfig(kappa=5.0, ewma_alpha=0.5, persistence=10)
    r1 = jump_stream(k0=50, column=0) + jump_stream(k0=120, column=3)
    # agent 2's I2_1 latches on the same step as agent 1's V1
    r2 = jump_stream(k0=50, column=2)
    t = times_for(len(r1))
    events = monitor(np.hstack([r1, r2]), t, np.ones(8), [m1, m2], cfg)
    single = monitor(r1, t, np.ones(4), [m1], cfg) + monitor(
        r2, t, np.ones(4), [m2], cfg
    )
    assert events == sorted(single, key=lambda ev: (ev.time, ev.agent, ev.component))
    # agent order, not the label, decides between the two latches on one step
    assert [(ev.agent, ev.component, ev.accused_neighbor) for ev in events] == [
        (1, "V1", None),
        (2, "I2_1", 1),
        (1, "I1_3", 3),
    ]
    assert events[0].time == events[1].time < events[2].time


@pytest.mark.parametrize("persistence", [1, 3, 10, 200, 201])
def test_latches_match_per_step_loop(agent_models, persistence):
    models = [agent_models[i] for i in (1, 2, 3)]
    channels = [(m, label) for m in models for label in m.labels]
    n, width = 200, len(channels)
    rng = np.random.default_rng(persistence)
    # each column its own chance of a sample above kappa; then one column
    # always above, one never, and one above only over its last samples
    above = rng.random((n, width)) < rng.uniform(0.0, 1.0, width)
    above[:, 0], above[:, 1], above[:, 2] = True, False, False
    above[-persistence:, 2] = True
    # with alpha = 1 the statistic is |r| / sigma itself: 10 or 0
    cfg = DetectorConfig(kappa=5.0, ewma_alpha=1.0, persistence=persistence)
    t = times_for(n)
    events = monitor(np.where(above, 10.0, 0.0), t, np.ones(width), models, cfg)
    expected = sorted(
        (t[k], m.agent_id, label)
        for (m, label), k in zip(channels, latch_loop(above, persistence))
        if k is not None
    )
    assert [(ev.time, ev.agent, ev.component) for ev in events] == expected
    assert all(ev.statistic == 10.0 for ev in events)
    if persistence > n:
        assert events == []


def test_ewma_continues_from_a_start_row():
    values = RNG.random((40, 3)) * 8.0
    whole = ewma_statistic(values, np.ones(3), alpha=0.1)
    head = ewma_statistic(values[:25], np.ones(3), alpha=0.1)
    tail = ewma_statistic(values[25:], np.ones(3), alpha=0.1, start=head[-1])
    assert np.max(np.abs(np.vstack([head, tail]) - whole)) < 1e-12


# the rows of each block of monitor's scan, set small so that a stream
# spans many blocks
BLOCK_ROWS = 64


def set_block_rows(monkeypatch, width):
    monkeypatch.setattr(lti, "BLOCK_BYTES", BLOCK_ROWS * width * 8)


def test_blocked_ewma_matches_one_recursion(agent_models, monkeypatch):
    # |r| / sigma rises across 20 blocks at a rate of its own per channel,
    # so each channel latches in a late block; the statistic there must be
    # that of one recursion over the whole stream
    models = [agent_models[i] for i in (1, 2, 3)]
    width = 12
    set_block_rows(monkeypatch, width)
    n = 20 * BLOCK_ROWS + 5
    rng = np.random.default_rng(41)
    sigmas = rng.uniform(0.5, 2.0, width)
    level = np.linspace(0.0, 1.0, n)[:, None] * rng.uniform(6.0, 14.0, width)
    r = (level + rng.standard_normal((n, width))) * sigmas
    cfg = DetectorConfig(kappa=5.0, ewma_alpha=0.02, persistence=10)
    s = ewma_loop(np.abs(r) / sigmas, cfg.ewma_alpha)
    latches = latch_loop(s >= cfg.kappa, cfg.persistence)
    assert all(k is not None and k > 5 * BLOCK_ROWS for k in latches)
    t = times_for(n)
    events = monitor(r, t, sigmas, models, cfg)
    channels = [(m, label) for m in models for label in m.labels]
    by_channel = {(ev.agent, ev.component): ev for ev in events}
    assert len(by_channel) == width
    for col, ((m, label), k) in enumerate(zip(channels, latches)):
        ev = by_channel[m.agent_id, label]
        assert ev.time == t[k]
        assert abs(ev.statistic - s[k, col]) < 1e-12


@pytest.mark.parametrize("persistence", [2, 10, 63, 64, 65, 150])
def test_runs_straddling_blocks_latch_as_one(agent_models, monkeypatch, persistence):
    # each channel's first long run straddles a block boundary at an
    # offset of its own (a run of 150 spans three blocks); before it come
    # a run one sample short across an earlier boundary, and three runs of
    # ``persistence`` samples broken at a boundary: by its block's first
    # sample, by the previous block's last one, and by one whole block
    models = [agent_models[i] for i in (1, 2, 3)]
    channels = [(m, label) for m in models for label in m.labels]
    width = len(channels)
    set_block_rows(monkeypatch, width)
    n, gap = 30 * BLOCK_ROWS, 6 * BLOCK_ROWS
    above = np.zeros((n, width), dtype=bool)
    for col in range(width):
        offset = 1 + (7 * col) % (persistence - 1)
        edge = BLOCK_ROWS * (1 + col % 3)
        above[edge - offset : edge - offset + persistence - 1, col] = True
        for before, after in ((0, 1), (1, 0), (0, BLOCK_ROWS)):
            edge += gap
            above[edge - before - persistence + offset : edge - before, col] = True
            above[edge + after : edge + after + offset, col] = True
        edge += gap
        above[edge - offset : edge - offset + persistence, col] = True
    cfg = DetectorConfig(kappa=5.0, ewma_alpha=1.0, persistence=persistence)
    t = times_for(n)
    events = monitor(np.where(above, 10.0, 0.0), t, np.ones(width), models, cfg)
    latches = latch_loop(above, persistence)
    assert all(k is not None and k >= 22 * BLOCK_ROWS for k in latches)
    expected = sorted(
        (t[k], m.agent_id, label) for (m, label), k in zip(channels, latches)
    )
    assert [(ev.time, ev.agent, ev.component) for ev in events] == expected


def test_empty_stream(agent_models):
    model = agent_models[1]
    events = monitor(
        np.empty((0, 4)), np.empty(0), np.ones(4), [model], DetectorConfig()
    )
    assert events == []


# ---------------------------------------------------------------------------
# input checking


def test_monitor_rejects_wrong_widths(agent_models):
    model = agent_models[1]
    cfg = DetectorConfig()
    with pytest.raises(UnknownComponent, match="components"):
        monitor(np.zeros((10, 3)), times_for(10), np.ones(3), [model], cfg)
    with pytest.raises(UnknownComponent, match="components"):
        monitor(np.empty((0, 3)), np.empty(0), np.ones(3), [model], cfg)
    with pytest.raises(UnknownComponent, match="components"):
        monitor(np.zeros(10), times_for(10), np.ones(4), [model], cfg)
    with pytest.raises(UnknownComponent, match="sigmas"):
        monitor(np.zeros((10, 4)), times_for(10), np.ones(5), [model], cfg)
    with pytest.raises(UnknownComponent, match="times"):
        monitor(np.zeros((10, 4)), times_for(9), np.ones(4), [model], cfg)


@pytest.mark.parametrize(
    "bad",
    [
        dict(kappa=0.0),
        dict(kappa=-2.0),
        dict(ewma_alpha=0.0),
        dict(ewma_alpha=1.2),
        dict(persistence=0),
        dict(kappa=float("nan")),
        dict(kappa=float("inf")),
        dict(kappa=float("-inf")),
    ],
)
def test_detector_config_validation(bad):
    with pytest.raises(NonPositiveInput):
        DetectorConfig(**bad).validate()
