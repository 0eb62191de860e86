"""The benchmark drives the program from outside, and a program change
that breaks that contract would show only at bench time, so it is checked
here, reading ``bench/`` without changing it:

- the tracer times the program by wrapping module attributes of
  ``dcmg``; a wrapped name that no longer exists makes every traced run
  fail, and one the program no longer calls reads 0;
- every workload's scenario must decode and validate;
- the checks build ``AgentModel`` and ``Coupling`` by keyword and iterate
  ``uio.gain_step``;
- the checks must pass on the program's outputs."""

import dataclasses
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import dcmg.sim as sim
from dcmg.cli import scenario_from_dict
from networks import SCENARIO, bundled_scenario

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


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
        bundled_scenario(),
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


@pytest.mark.parametrize("seed", [1, 2])
def test_every_workload_scenario_validates(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS:
        config = scenario_from_dict(workloads.make_scenario(workload, seed, ROOT))
        sim.validate_config(config)


def test_checks_converge_gains_on_the_bundled_scenario(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    checks = importlib.import_module("checks")
    scn = json.loads(SCENARIO.read_text())
    for agent in (1, 2, 3):
        model, gains, p = checks.converged_gains(scn, agent)
        assert model.agent_id == agent
        assert gains.f.shape == p.shape == (model.n, model.n)
        assert np.isfinite(p).all()


@pytest.mark.parametrize("seed", [1, 2])
def test_checks_pass_on_the_time_varying_workload(monkeypatch, seed):
    # the benchmark's correctness checks, on the program's own outputs: a
    # change that would make a benchmark run report incorrect outputs
    # fails here first
    monkeypatch.syspath_prepend(str(BENCH))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    scn = workloads.make_scenario("threebus_tv", seed, ROOT)
    trace = sim.run_scenario(scenario_from_dict(scn))
    results = checks.run_checks(scn, checks.outputs_from_trace(trace))
    assert results
    for check in results:
        assert check.ok, f"{check.name}: {check.detail}"
