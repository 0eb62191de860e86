"""Run the bundled three-bus attack scenario and summarize what each
agent's detector saw.

Usage:
    python3 scripts/run_threebus.py [scenario.json] [--out DIR] [--seed N]

Writes trace.csv / events.csv / report.txt into the output directory and
prints agent 1's residual means over windows between the scenario's
events (attack starts and ends, load and source steps), which is the
quickest way to eyeball the separation between "attack" and
"disturbance" without plotting anything.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dcmg.cli import (  # noqa: E402
    RUN_ERRORS,
    config_digest,
    format_report,
    load_config,
    write_artifacts,
)
from dcmg.errors import DcmgError, ValidationError  # noqa: E402
from dcmg.sim import run_scenario, step_index  # noqa: E402

DEFAULT = Path(__file__).resolve().parents[1] / "scenarios" / "threebus_attack.json"


def windows(config):
    """(label, k_lo, k_hi) for the second half of each span between
    consecutive scenario events (attack starts and ends, load-profile and
    source-schedule segment starts, 0 and the horizon) on the step grid,
    labelled with the attacks on agent 1 active in it, whose residuals
    the table shows."""
    n_steps = step_index(config.horizon, config.ts)
    starts = [*config.load_profiles.values(), *config.source_schedule.values()]
    times = [seg.t_start for segments in starts for seg in segments]
    times += [t for atk in config.attacks for t in (atk.start, atk.end)]
    steps = {min(step_index(t, config.ts), n_steps) for t in times}
    edges = sorted(steps | {0, n_steps})
    for k_a, k_b in zip(edges, edges[1:]):
        k_lo = (k_a + k_b) // 2
        active = [
            f"bias {atk.bias:g} V on V{atk.source}->{atk.victim}"
            for atk in config.attacks
            if atk.victim == 1
            if step_index(atk.start, config.ts) <= k_lo < step_index(atk.end, config.ts)
        ]
        yield " + ".join(active) or "no attack", k_lo, k_b


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

    try:
        t0 = time.perf_counter()
        trace = run_scenario(config)
        report = write_artifacts(config, trace, time.perf_counter() - t0, args.out)
    except RUN_ERRORS as exc:
        # as in ``dcmg run``: a model that cannot be built is an invalid scenario
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 1
    # printed only now: a scenario that fails leaves nothing on stdout
    print(f"scenario {args.scenario}")
    print(f"digest   {config_digest(config)}")
    print(format_report(report))

    print(f"agent-1 residual means in sigmas ({', '.join(trace.models[1].labels)}):")
    res = trace.residuals[1]
    sig = trace.sigmas[1]
    for name, k_lo, k_hi in windows(config):
        mean_sigma = np.abs(res[k_lo:k_hi].mean(axis=0)) / sig
        cells = "  ".join(f"{v:7.2f}" for v in mean_sigma)
        t_lo, t_hi = trace.times[k_lo], trace.times[k_hi]
        print(f"  [{t_lo:7.4g}, {t_hi:7.4g}) s  {name:<42s} {cells}")
    print(f"artifacts in {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
