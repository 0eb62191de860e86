"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs the ``threebus_tv`` scenario once through ``run_scenario`` and once
through ``dcmg run``, asserts that every check passes on both real
outputs, and then that each check fails on a copy corrupted the way that
check is meant to catch.  Exits with 1 if any of that does not hold.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from dcmg import cli, sim  # noqa: E402


def _rescale_state(scn, out):
    out.x_true[:, out.state_labels.index("V1")] *= 1.01


def _rescale_measurement(scn, out):
    out.y[1][:, 1] *= 1.01


def _remove_accusation(scn, out):
    out.events = [ev for ev in out.events if ev.accused is None]


def _shift_after_load_step(scn, out):
    k = checks.step_of(checks.load_steps(scn)[0], scn["ts"])
    out.residuals[2][k:, 3] += 5.0  # about one sigma of a line channel


def _rescale_attacked_residual(scn, out):
    c = out.labels[1].index("I1_3")
    out.residuals[1][:, c] *= 0.9


def _shift_exported_estimate(scn, art):
    art.data[:, art.header.index("xhat_Ig1")] += 20.0  # two sigma of r_bus


def _delay_alarm_flag(scn, art):
    c = art.header.index("alarm1")
    art.data[1:, c] = art.data[:-1, c].copy()


def _drop_event_row(scn, art):
    art.events = art.events[1:]


CORRUPTIONS = [
    ("plant", "x_true column V1 rescaled by 1.01", _rescale_state),
    ("metered", "agent 1's Ig measurement rescaled by 1.01", _rescale_measurement),
    ("attribution", "accusation rows removed", _remove_accusation),
    ("load_step", "agent 2's I2_3 residual shifted by +5 A after the load step", _shift_after_load_step),
    ("bias_response", "agent 1's I1_3 residual rescaled by 0.9", _rescale_attacked_residual),
]
FILE_CORRUPTIONS = [
    ("trace_file", "alarm1 column delayed by one row", _delay_alarm_flag),
    ("trace_file", "first events.csv row removed", _drop_event_row),
]


def main() -> int:
    work = ROOT / ".bench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = work / "scenario.json"
    scn = workloads.write_scenario("threebus_tv", 7, ROOT, scenario)
    outputs = checks.outputs_from_trace(sim.run_scenario(cli.load_config(scenario)))
    if cli.run(scenario, work / "out", quiet=True) != 0:
        print("FAIL dcmg run did not succeed")
        return 1
    art = checks.read_cli_artifacts(work / "out")

    by_name = lambda results: {c.name: c for c in results}  # noqa: E731
    clean = checks.run_checks(scn, outputs)
    clean += checks.run_checks(scn, checks.outputs_from_cli(scn, art)) + [checks.check_trace_file(scn, art)]
    bad = 0
    for c in clean:
        print(f"{'ok  ' if c.ok else 'FAIL'} {c.name} passes on the real output: {c.detail}")
        bad += not c.ok
    cases = [(name, what, fn, outputs, checks.run_checks) for name, what, fn in CORRUPTIONS]
    cases += [
        (name, what, fn, art, lambda s, a: [checks.check_trace_file(s, a)])
        for name, what, fn in FILE_CORRUPTIONS
    ]
    cases.append(
        (
            "metered",
            "trace.csv's xhat_Ig1 column shifted by +20 A",
            _shift_exported_estimate,
            art,
            lambda s, a: checks.run_checks(s, checks.outputs_from_cli(s, a)),
        )
    )
    for name, what, corrupt, real, run in cases:
        copy_ = copy.deepcopy(real)
        corrupt(scn, copy_)
        result = by_name(run(scn, copy_))[name]
        print(f"{'ok  ' if not result.ok else 'FAIL'} {name} rejects {what}: {result.detail}")
        bad += result.ok
    shutil.rmtree(work)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
