"""The dcmg benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src``.  The seed is turned into the workload's scenario file, then:

1. SETUP_RUNS fresh processes each time the set-up (``import dcmg`` and
   ``cli.load_config``) and then the reference computation; the first of
   them only warms the bytecode and file caches and is not counted.  A
   traced run makes only that first one.
2. One fresh worker process runs the workload (see worker.py): a checked
   warm-up call, then timed calls for ``--seconds``.

The last line of standard output is one JSON object:

* ``--trace 0``: ``setup_s`` (median over the counted set-ups),
  ``wall_s`` (the mean of the timed calls without the fastest and the
  slowest) and ``peak_rss_mb``;
* ``--trace 1``: the timed calls alternate untraced and traced; the
  per-module metrics are medians over the traced calls, and
  ``trace.overhead_s`` is the median traced wall time minus the median
  untraced one.

Times are reported at reference speed.  This shared host runs the same
code up to 1.5 times slower for minutes at a time, so each call's times
are multiplied by REF_S / (the mean of the reference computation's times
right before and right after that call), and its rates divided by it;
each set-up time uses the reference time measured right after it, in the
same process.  Details (raw times, check results, detection latencies,
calibration ratios) go to
``.bench_out/<workload>/seed<N>/summary.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# one process and one thread carry the load; nproc is 2 on the reference box
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_RUNS = 3
REF_S = 0.125  # speed.reference_s() on the reference box at full speed
WORKER_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "dcmg.import_s": "s",
    "cli.load_config_s": "s",
    "netmodel.assemble_s": "s",
    "lti.discretize_s": "s",
    "uio.gain_s": "s",
    "uio.gain_steps": "count",
    "uio.us_per_gain_step": "us",
    "sim.noise_s": "s",
    "sim.self_s": "s",
    "sim.us_per_agent_step": "us",
    "detect.monitor_s": "s",
    "cli.export_s": "s",
    "cli.export_mb_per_s": "MB/s",
    "cli.trace_bytes": "bytes",
    "trace.overhead_s": "s",
}


def worker_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    # bytecode is written once by the first set-up and read by the others
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(mode: str, workload: str, scenario: Path, work: Path, idx: int, seconds: float = 0.0) -> dict:
    """One fresh worker process; see worker.py for ``mode``."""
    result = work / f"{mode}-{idx}.json"
    argv = [mode, workload, str(scenario), str(work / "out"), str(result), str(seconds)]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *argv],
        env=worker_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} exited with {proc.returncode}")
    out = json.loads(result.read_text())
    if not Path(out["dcmg_file"]).resolve().is_relative_to(SRC):
        raise SystemExit(f"dcmg was imported from {out['dcmg_file']}, not from {SRC}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "dcmg" / "__init__.py", ROOT / workloads.BUNDLED) if not p.is_file()]
    if missing:
        print(f"error: not a dcmg checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_out" / args.workload / f"seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = work / "scenario.json"
    workloads.write_scenario(args.workload, args.seed, ROOT, scenario)

    # the first set-up only warms the caches; a traced run needs no others
    runs = 1 if args.trace else SETUP_RUNS
    setups = [run_worker("setup", args.workload, scenario, work, i) for i in range(runs)][1:]
    mode = "trace" if args.trace else "run"
    res = run_worker(mode, args.workload, scenario, work, 0, args.seconds)

    problems = [f"{c['name']}: {c['detail']}" for c in res.get("checks", []) if not c["ok"]]
    if res.get("mismatch"):
        problems.append("outputs differ between calls on the same scenario")
    for err in res["errors"]:
        print(f"failed call: {err}", file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    units = PER_LAYER | END_TO_END
    calls = res["calls"]
    for c in calls:
        factor = REF_S / c["reference_s"]
        c["scaled_wall_s"] = c["wall_s"] * factor
        scale = {"s": factor, "us": factor, "MB/s": 1.0 / factor}
        if c["traced"]:
            c["scaled_layers"] = {k: v * scale.get(units[k], 1.0) for k, v in c["layers"].items()}
    plain = [c["scaled_wall_s"] for c in calls if not c["traced"]]
    traced = [c for c in calls if c["traced"]]
    metrics: dict[str, float] = {}
    if plain and not args.trace:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] * REF_S / s["reference_s"] for s in setups),
            # on this host the mean of a run's calls varies less between runs
            # than their median; leaving out the extremes keeps one stray
            # call from moving it far (README, "Times at reference speed")
            "wall_s": statistics.mean(sorted(plain)[1:-1] or plain),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    elif plain and traced:
        run_factor = REF_S / statistics.median(c["reference_s"] for c in calls)
        metrics = {name: statistics.median(c["scaled_layers"][name] for c in traced) for name in traced[0]["layers"]}
        metrics["dcmg.import_s"] = run_factor * res["import_s"]
        metrics["cli.load_config_s"] = run_factor * res["load_config_s"]
        metrics["trace.overhead_s"] = statistics.median(c["scaled_wall_s"] for c in traced) - statistics.median(plain)

    shutil.rmtree(work / "out", ignore_errors=True)  # the 66 MB trace of threebus_cli
    summary = {"problems": problems, "metrics": metrics, "setups": setups, "run": res}
    (work / "summary.json").write_text(json.dumps(summary, indent=1))
    print(
        json.dumps(
            {
                "correct": "checks" in res and not problems,
                "attempted": res["attempted"],
                "failed": len(res["errors"]),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
