"""One run of a workload in a fresh interpreter.

    python3 bench/worker.py MODE WORKLOAD SCENARIO OUT_DIR RESULT_JSON SECONDS

MODE ``setup`` times the set-up: ``import dcmg`` and ``cli.load_config``
of the scenario.  Nothing but ``sys`` and ``time`` is imported before
that, so ``setup_s`` covers the whole import of numpy, scipy and dcmg.
It then times ``speed.reference_s`` REF_SAMPLES times and records their
mean with the set-up.

MODE ``run`` and ``trace`` then make the workload's one call repeatedly:

1. The first call is a warm-up.  Its outputs get every check, and the
   process's peak resident memory is read right after it.
2. Then timed calls follow until SECONDS have passed and at least
   MIN_TIMED have run.  Each call's outputs are hashed and must match
   the first call's byte for byte.  With ``trace``, every second call
   runs with spans around the program's functions.  Right before the
   first timed call and right after each one, the worker times
   ``speed.reference_s`` REF_SAMPLES times; each call is recorded with
   the mean of the reference right before it and right after it.

Warm calls are timed because on the reference box the first call in a
fresh process is up to 1.6 times slower than the calls after it, by a
different amount each time, while warm calls agree within a few percent.  The worker writes one JSON
object to RESULT_JSON.
"""

import sys
import time

MIN_TIMED = {"run": 5, "trace": 4}
REF_SAMPLES = 2


def main(mode, workload, scenario, out_dir, result_path, seconds) -> None:
    t0 = time.perf_counter()
    import dcmg
    import dcmg.cli as cli

    t1 = time.perf_counter()
    config = cli.load_config(scenario)
    t2 = time.perf_counter()

    import json
    from pathlib import Path

    result = {
        "setup_s": t2 - t0,
        "import_s": t1 - t0,
        "load_config_s": t2 - t1,
        "dcmg_file": dcmg.__file__,
    }
    if mode == "setup":
        import speed

        result["reference_s"] = reference(speed)
    else:
        result.update(run(mode, workload, config, scenario, Path(out_dir), float(seconds)))
    Path(result_path).write_text(json.dumps(result, indent=1, default=float))


def reference(speed) -> float:
    """The mean of REF_SAMPLES timings of the reference computation."""
    return sum(speed.reference_s() for _ in range(REF_SAMPLES)) / REF_SAMPLES


def call(workload, config, scenario, out_dir):
    """The one call into the program: (wall seconds, trace or None), or
    the error it failed with."""
    import shutil

    import dcmg.cli as cli
    import dcmg.sim as sim
    from dcmg.errors import DcmgError

    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        if workload == "threebus_cli":
            trace, code = None, cli.run(scenario, out_dir, quiet=True)
        else:
            trace, code = sim.run_scenario(config), 0
        wall = time.perf_counter() - t0
    except DcmgError as exc:
        return f"{type(exc).__name__}: {exc}"
    if code != 0:
        return f"dcmg run exited with {code}"
    return wall, trace


def run(mode, workload, config, scenario, out_dir, seconds) -> dict:
    import resource

    import speed
    from tracing import Tracer

    out = {"attempted": 1, "errors": [], "calls": []}
    first = call(workload, config, scenario, out_dir)
    if isinstance(first, str):
        out["errors"].append(first)
        return out
    out["cold_wall_s"] = first[0]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(verify(scenario, out_dir, first[1]))
    del first

    start = time.perf_counter()
    timed = 0
    before = reference(speed)
    while timed < MIN_TIMED[mode] or time.perf_counter() - start < seconds:
        tracer = Tracer() if mode == "trace" and timed % 2 else None
        if tracer is not None:
            tracer.install()
        try:
            result = call(workload, config, scenario, out_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        # the reference right after one call is also the one right before the next
        after = reference(speed)
        ref, before = (before + after) / 2, after
        out["attempted"] += 1
        timed += 1
        if isinstance(result, str):
            out["errors"].append(result)
            continue
        wall, trace = result
        del result
        if output_digest(out_dir, trace) != out["digest"]:
            out["mismatch"] = True
        del trace
        record = {"wall_s": wall, "reference_s": ref, "traced": tracer is not None}
        if tracer is not None:
            record["layers"] = layer_metrics(tracer, config, out_dir / "trace.csv")
        out["calls"].append(record)
    return out


def layer_metrics(tracer, config, trace_csv) -> dict:
    steps = round(config.horizon / config.ts)
    agent_steps = len(config.network.buses) * steps
    gain_s, gain_steps = tracer.total("uio.gain"), tracer.count("uio.gain")
    sim_self = tracer.self_time("sim.run_scenario")
    export_s = tracer.total("cli.export")
    size = trace_csv.stat().st_size if export_s else 0
    return {
        "netmodel.assemble_s": tracer.total("netmodel.assemble"),
        "lti.discretize_s": tracer.total("lti.discretize"),
        "uio.gain_s": gain_s,
        "uio.gain_steps": gain_steps,
        "uio.us_per_gain_step": 1e6 * gain_s / gain_steps,
        "sim.noise_s": tracer.total("sim.noise"),
        "sim.self_s": sim_self,
        "sim.us_per_agent_step": 1e6 * sim_self / agent_steps,
        "detect.monitor_s": tracer.total("detect.monitor"),
        "cli.export_s": export_s,
        "cli.export_mb_per_s": size / 1e6 / export_s if export_s else 0.0,
        "cli.trace_bytes": size,
    }


def output_digest(out_dir, trace) -> str:
    import checks

    if trace is None:
        return checks.file_digest(out_dir / "trace.csv", out_dir / "events.csv")
    agents = sorted(trace.models)
    return checks.array_digest(
        trace.x_true,
        *[trace.x_hat[i] for i in agents],
        *[trace.residuals[i] for i in agents],
        *[trace.alarm_flags[i] for i in agents],
        repr(trace.alarms),
    )


def verify(scenario, out_dir, trace) -> dict:
    """Every check on one call's outputs."""
    import json
    from pathlib import Path

    import checks

    scn = json.loads(Path(scenario).read_text())
    if trace is None:
        art = checks.read_cli_artifacts(out_dir)
        outputs = checks.outputs_from_cli(scn, art)
        results = checks.run_checks(scn, outputs) + [checks.check_trace_file(scn, art)]
    else:
        outputs = checks.outputs_from_trace(trace)
        results = checks.run_checks(scn, outputs)
    return {
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in results],
        "latency_s": next(c.info["latency_s"] for c in results if c.name == "attribution"),
        "calibration": checks.calibration(scn, outputs),
        "digest": output_digest(out_dir, trace),
    }


if __name__ == "__main__":
    main(*sys.argv[1:7])
