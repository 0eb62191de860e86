"""Run the bundled three-bus attack scenario and summarize what each
agent's detector saw.

Usage:
    python3 scripts/run_threebus.py [scenario.json] [--out DIR] [--seed N]

Writes trace.csv / events.csv / report.txt into the output directory and
prints windowed residual statistics around the two bias injections and
the load step, which is the quickest way to eyeball the separation
between "attack" and "disturbance" without plotting anything.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dcmg.cli import (  # noqa: E402
    config_digest,
    format_report,
    load_config,
    write_artifacts,
)
from dcmg.errors import DcmgError  # noqa: E402
from dcmg.sim import run_scenario, step_index  # noqa: E402

DEFAULT = Path(__file__).resolve().parents[1] / "scenarios" / "threebus_attack.json"

WINDOWS = [
    ("pre-attack", 3.0, 4.0),
    ("bias 150 V on V3->1", 4.5, 6.0),
    ("both biases", 6.5, 8.0),
    ("after load step", 9.0, 10.0),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("scenario", nargs="?", default=DEFAULT)
    ap.add_argument("--out", default="out", help="artifact directory")
    ap.add_argument("--seed", type=int, default=None, help="override root seed")
    args = ap.parse_args()

    try:
        config = load_config(args.scenario, seed=args.seed)
    except DcmgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"scenario {args.scenario}")
    print(f"digest   {config_digest(config)}")

    t0 = time.perf_counter()
    trace = run_scenario(config)
    wall = time.perf_counter() - t0

    report = write_artifacts(config, trace, wall, args.out)
    print(format_report(report))

    print(f"agent-1 residual means in sigmas ({', '.join(trace.models[1].labels)}):")
    res = trace.residuals[1]
    sig = trace.sigmas[1]
    for name, t_lo, t_hi in WINDOWS:
        if t_hi > config.horizon:
            continue
        k_lo, k_hi = step_index(t_lo, config.ts), step_index(t_hi, config.ts)
        mean_sigma = np.abs(res[k_lo:k_hi].mean(axis=0)) / sig
        cells = "  ".join(f"{v:7.2f}" for v in mean_sigma)
        print(f"  [{t_lo:4.1f}, {t_hi:4.1f}) s  {name:<22s} {cells}")
    print(f"artifacts in {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
