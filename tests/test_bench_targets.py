"""The benchmark's tracer times the program by wrapping module attributes
of ``dcmg``; a wrapped name that no longer exists makes every traced
benchmark run fail, and one the program no longer calls reads 0, so both
are checked here."""

import dataclasses
import importlib
from pathlib import Path

import dcmg.sim as sim
from dcmg.presets import threebus_attack_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for module, attr in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            f"{module}.{attr}"
        )


def test_every_sim_target_is_called(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    config = dataclasses.replace(
        threebus_attack_scenario(),
        horizon=0.05,
        warmup=0.01,
        load_profiles={},
        attacks=[],
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sim.run_scenario(config)
    finally:
        tracer.uninstall()
    for (module, attr), name in tracing.TARGETS.items():
        if module == "dcmg.sim":
            assert tracer.count(name) >= 1, f"{module}.{attr}"
