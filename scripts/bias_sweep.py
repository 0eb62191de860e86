"""Detection latency versus bias magnitude on the three-bus network.

Usage:
    python3 scripts/bias_sweep.py [--biases 20,40,...] [--out sweep.csv]

Each run is the bundled ``scenarios/threebus_attack.json`` cut to 3 s,
with constant 1 kA loads and one attack: bus 3 falsifies the voltage it
reports to bus 1 by the bias level from t = 1 s onward (full
measurement/process noise, seeded).  The run records whether agent 1
latched an alarm on the I1_3 channel, how long after onset, and the peak
EWMA statistic.  Small biases drown in the line-current noise floor; the
table shows where the detector's sensitivity actually starts.

A malformed bias list or an invalid scenario (say, a negative seed, or
models that cannot be built) prints one ``error:`` line and exits 2
before any run; a run or write that fails exits 1.
The CSV is opened before the first run, so an unwritable ``--out`` fails
before any bias is simulated.
"""

import argparse
import contextlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dcmg.cli import RUN_ERRORS, load_config  # noqa: E402
from dcmg.detect import ewma_statistic  # noqa: E402
from dcmg.errors import ValidationError  # noqa: E402
from dcmg.sim import (  # noqa: E402
    AttackSpec,
    LoadSegment,
    prepare,
    run_scenario,
    step_index,
)

SCENARIO = ROOT / "scenarios" / "threebus_attack.json"
ONSET = 1.0
HORIZON = 3.0


def bias_list(text: str) -> list[float]:
    """Comma-separated volts; argparse reports a bad entry as a usage error."""
    return [float(b) for b in text.split(",")]


def scenario(bias: float, seed: int):
    config = load_config(SCENARIO)
    config.horizon = HORIZON
    config.seeds.root = seed
    config.load_profiles = {
        i: [LoadSegment(t_start=0.0, level=1000.0)] for i in (1, 2, 3)
    }
    config.attacks = [
        AttackSpec(victim=1, source=3, start=ONSET, end=HORIZON, bias=bias)
    ]
    return config


def run_once(config):
    trace = run_scenario(config)
    events = [ev for ev in trace.alarms if ev.agent == 1 and ev.accused_neighbor == 3]
    latency = events[0].time - ONSET if events else float("nan")
    k_on = step_index(ONSET, config.ts)
    s = ewma_statistic(
        trace.residuals[1][k_on:], trace.sigmas[1], config.detector.ewma_alpha
    )
    return latency, float(s[:, 3].max()), len(events)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--biases",
        type=bias_list,
        default="10,20,30,50,75,100,150,200,300",
        help="comma-separated bias magnitudes in volts",
    )
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args()

    configs = [scenario(bias, args.seed) for bias in args.biases]
    try:
        for config in configs:
            prepare(config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        # opened before the first run, so an unwritable path fails at once
        with open(args.out, "w") if args.out else contextlib.nullcontext() as fh:
            print(f"{'bias V':>8} {'detected':>9} {'latency s':>10} {'peak EWMA':>10}")
            if fh:
                fh.write("bias_volts,detected,latency_seconds,peak_ewma\n")
            for bias, config in zip(args.biases, configs):
                latency, peak, hit = run_once(config)
                verdict = "yes" if hit else "no"
                lat = f"{latency:.4f}" if np.isfinite(latency) else "-"
                print(f"{bias:8.0f} {verdict:>9} {lat:>10} {peak:10.2f}")
                if fh:
                    fh.write(f"{bias:g},{hit},{latency:.17g},{peak:.17g}\n")
    except RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
