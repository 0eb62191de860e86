"""Command-line front end: validate scenario files, run simulations and
export trace/event/report artifacts.

Exit codes: 0 on success, 1 when a valid scenario fails at run time,
2 when the scenario file cannot be parsed or validated.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._csvrows import write_rows
from .detect import DetectionEvent, DetectorConfig
from .errors import DcmgError, ParseError, ValidationError
from .netmodel import BusParams, LineParams, NetworkSpec
from .sim import (
    AttackSpec,
    LoadSegment,
    ScenarioConfig,
    Seeds,
    SimulationTrace,
    NoiseConfig,
    SourceStep,
    run_scenario,
    step_index,
    validate_config,
)

_REQUIRED = object()


# ---------------------------------------------------------------------------
# JSON codec


def _mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _sequence(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise ValidationError(f"{where}: expected an array, got {type(obj).__name__}")
    return obj


def _num(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {obj!r}")
    try:
        value = float(obj)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{where} must be finite, got {value}")
    return value


def _int(obj, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValidationError(f"{where}: expected an integer, got {obj!r}")
    return obj


def _bool(obj, where: str) -> bool:
    if not isinstance(obj, bool):
        raise ValidationError(f"{where}: expected a boolean, got {obj!r}")
    return obj


def _str(obj, where: str) -> str:
    if not isinstance(obj, str):
        raise ValidationError(f"{where}: expected a string, got {obj!r}")
    return obj


def _opt(fn):
    return lambda obj, where: None if obj is None else fn(obj, where)


def _check_keys(obj: dict, where: str, allowed) -> None:
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise ValidationError(f"{where}: unknown keys {extra}")


def _field(obj: dict, key: str, where: str, fn, default=_REQUIRED):
    if key not in obj:
        if default is _REQUIRED:
            raise ValidationError(f"{where}.{key} is required")
        return default
    return fn(obj[key], f"{where}.{key}")


def _bus_from(obj, where: str) -> BusParams:
    obj = _mapping(obj, where)
    fields = (
        "r_internal",
        "l_internal",
        "c_output",
        "droop_gain",
        "v_source_nominal",
        "rated_power",
    )
    _check_keys(obj, where, fields)
    return BusParams(
        r_internal=_field(obj, "r_internal", where, _num),
        l_internal=_field(obj, "l_internal", where, _num),
        c_output=_field(obj, "c_output", where, _num),
        droop_gain=_field(obj, "droop_gain", where, _num, 0.0),
        v_source_nominal=_field(obj, "v_source_nominal", where, _num, 0.0),
        rated_power=_field(obj, "rated_power", where, _num, 0.0),
    )


def _line_from(obj, where: str) -> LineParams:
    obj = _mapping(obj, where)
    _check_keys(obj, where, ("tail", "head", "r_line", "l_line"))
    return LineParams(
        tail=_field(obj, "tail", where, _int),
        head=_field(obj, "head", where, _int),
        r_line=_field(obj, "r_line", where, _num),
        l_line=_field(obj, "l_line", where, _num),
    )


def _network_from(obj, where: str) -> NetworkSpec:
    obj = _mapping(obj, where)
    _check_keys(obj, where, ("buses", "lines"))
    buses = [
        _bus_from(b, f"{where}.buses[{i}]")
        for i, b in enumerate(_sequence(obj.get("buses", []), f"{where}.buses"))
    ]
    lines = [
        _line_from(l, f"{where}.lines[{i}]")
        for i, l in enumerate(_sequence(obj.get("lines", []), f"{where}.lines"))
    ]
    return NetworkSpec(buses=buses, lines=lines)


def _segment_from(obj, where: str) -> LoadSegment:
    obj = _mapping(obj, where)
    _check_keys(obj, where, ("t_start", "kind", "level", "level_end", "walk_std"))
    return LoadSegment(
        t_start=_field(obj, "t_start", where, _num),
        kind=_field(obj, "kind", where, _str, "constant"),
        level=_field(obj, "level", where, _num, 0.0),
        level_end=_field(obj, "level_end", where, _opt(_num), None),
        walk_std=_field(obj, "walk_std", where, _num, 0.0),
    )


def _source_step_from(obj, where: str) -> SourceStep:
    obj = _mapping(obj, where)
    _check_keys(obj, where, ("t_start", "volts"))
    return SourceStep(
        t_start=_field(obj, "t_start", where, _num),
        volts=_field(obj, "volts", where, _num),
    )


def _attack_from(obj, where: str) -> AttackSpec:
    obj = _mapping(obj, where)
    _check_keys(obj, where, ("victim", "source", "start", "end", "bias"))
    return AttackSpec(
        victim=_field(obj, "victim", where, _int),
        source=_field(obj, "source", where, _int),
        start=_field(obj, "start", where, _num),
        end=_field(obj, "end", where, _num),
        bias=_field(obj, "bias", where, _num),
    )


def _bus_keyed(obj, where: str, item_fn) -> dict:
    obj = _mapping(obj, where)
    out = {}
    for key, value in obj.items():
        try:
            bus = int(key)
        except (TypeError, ValueError):
            raise ValidationError(f"{where}: key {key!r} is not a bus id") from None
        out[bus] = item_fn(value, f"{where}[{key}]")
    return out


def _seeds_from(obj, where: str) -> Seeds:
    obj = _mapping(obj, where)
    _check_keys(obj, where, ("root", "process", "measurement", "load"))
    return Seeds(
        root=_field(obj, "root", where, _int, 0),
        process=_field(obj, "process", where, _opt(_int), None),
        measurement=_bus_keyed(obj.get("measurement", {}), f"{where}.measurement", _int),
        load=_bus_keyed(obj.get("load", {}), f"{where}.load", _int),
    )


def _noise_from(obj, where: str) -> NoiseConfig:
    obj = _mapping(obj, where)
    _check_keys(obj, where, ("q_state", "r_bus", "r_line", "inject"))
    return NoiseConfig(
        q_state=_field(obj, "q_state", where, _num, 10.0),
        r_bus=_field(obj, "r_bus", where, _num, 100.0),
        r_line=_field(obj, "r_line", where, _num, 10.0),
        inject=_field(obj, "inject", where, _bool, True),
    )


def _detector_from(obj, where: str) -> DetectorConfig:
    obj = _mapping(obj, where)
    _check_keys(obj, where, ("kappa", "ewma_alpha", "persistence", "sigma_source"))
    return DetectorConfig(
        kappa=_field(obj, "kappa", where, _num, 5.0),
        ewma_alpha=_field(obj, "ewma_alpha", where, _num, 0.05),
        persistence=_field(obj, "persistence", where, _int, 10),
        sigma_source=_field(obj, "sigma_source", where, _str, "innovation"),
    )


_SCENARIO_KEYS = (
    "network",
    "ts",
    "horizon",
    "warmup",
    "initial_state",
    "seeds",
    "noise",
    "load_profiles",
    "source_schedule",
    "attacks",
    "detector",
    "freeze_gains",
    "freeze_tol",
)


def scenario_from_dict(obj) -> ScenarioConfig:
    """Decode a parsed JSON object into a ScenarioConfig, rejecting unknown
    keys and type mismatches with the offending field path."""
    obj = _mapping(obj, "scenario")
    _check_keys(obj, "scenario", _SCENARIO_KEYS)
    if "network" not in obj:
        raise ValidationError("scenario.network is required")
    defaults = ScenarioConfig()
    return ScenarioConfig(
        network=_network_from(obj["network"], "scenario.network"),
        ts=_field(obj, "ts", "scenario", _num, defaults.ts),
        horizon=_field(obj, "horizon", "scenario", _num, defaults.horizon),
        warmup=_field(obj, "warmup", "scenario", _num, defaults.warmup),
        initial_state=_field(
            obj, "initial_state", "scenario", _str, defaults.initial_state
        ),
        seeds=_seeds_from(obj.get("seeds", {}), "scenario.seeds"),
        noise=_noise_from(obj.get("noise", {}), "scenario.noise"),
        load_profiles=_bus_keyed(
            obj.get("load_profiles", {}),
            "scenario.load_profiles",
            lambda v, w: [
                _segment_from(s, f"{w}[{i}]") for i, s in enumerate(_sequence(v, w))
            ],
        ),
        source_schedule=_bus_keyed(
            obj.get("source_schedule", {}),
            "scenario.source_schedule",
            lambda v, w: [
                _source_step_from(s, f"{w}[{i}]") for i, s in enumerate(_sequence(v, w))
            ],
        ),
        attacks=[
            _attack_from(a, f"scenario.attacks[{i}]")
            for i, a in enumerate(_sequence(obj.get("attacks", []), "scenario.attacks"))
        ],
        detector=_detector_from(obj.get("detector", {}), "scenario.detector"),
        freeze_gains=_field(obj, "freeze_gains", "scenario", _bool, True),
        freeze_tol=_field(obj, "freeze_tol", "scenario", _num, defaults.freeze_tol),
    )


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Inverse of :func:`scenario_from_dict`; writes every field."""
    return {
        "network": {
            "buses": [dataclasses.asdict(b) for b in config.network.buses],
            "lines": [dataclasses.asdict(l) for l in config.network.lines],
        },
        "ts": config.ts,
        "horizon": config.horizon,
        "warmup": config.warmup,
        "initial_state": config.initial_state,
        "seeds": {
            "root": config.seeds.root,
            "process": config.seeds.process,
            "measurement": {str(k): v for k, v in config.seeds.measurement.items()},
            "load": {str(k): v for k, v in config.seeds.load.items()},
        },
        "noise": dataclasses.asdict(config.noise),
        "load_profiles": {
            str(bus): [dataclasses.asdict(seg) for seg in segs]
            for bus, segs in config.load_profiles.items()
        },
        "source_schedule": {
            str(bus): [dataclasses.asdict(st) for st in steps]
            for bus, steps in config.source_schedule.items()
        },
        "attacks": [dataclasses.asdict(a) for a in config.attacks],
        "detector": dataclasses.asdict(config.detector),
        "freeze_gains": config.freeze_gains,
        "freeze_tol": config.freeze_tol,
    }


def load_config(path) -> ScenarioConfig:
    """Read, decode and validate a scenario file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    config = scenario_from_dict(obj)
    validate_config(config)
    return config


def write_config(config: ScenarioConfig, path=None) -> str:
    """Serialize a scenario to canonical JSON text (and optionally a file)."""
    text = json.dumps(scenario_to_dict(config), indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def config_digest(config: ScenarioConfig) -> str:
    """sha256 over the canonical serialization; identifies a run setup."""
    blob = json.dumps(
        scenario_to_dict(config), sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# artifacts


@dataclass
class RunReport:
    digest: str
    n_steps: int
    ts: float
    horizon: float
    wall_seconds: float
    events: list[DetectionEvent]
    residual_rms: dict[int, dict[str, float]]


def build_report(
    config: ScenarioConfig, trace: SimulationTrace, wall_seconds: float
) -> RunReport:
    k_warm = step_index(config.warmup, config.ts, "warmup")
    rms: dict[int, dict[str, float]] = {}
    for agent, res in trace.residuals.items():
        tail = res[k_warm:]
        labels = trace.models[agent].labels
        rms[agent] = {
            lab: float(np.sqrt(np.mean(tail[:, c] ** 2)))
            for c, lab in enumerate(labels)
        }
    return RunReport(
        digest=config_digest(config),
        n_steps=len(trace.times) - 1,
        ts=config.ts,
        horizon=config.horizon,
        wall_seconds=wall_seconds,
        events=list(trace.alarms),
        residual_rms=rms,
    )


def format_report(report: RunReport) -> str:
    lines = [
        f"scenario digest: {report.digest}",
        f"steps: {report.n_steps} (ts = {report.ts:g} s, horizon = {report.horizon:g} s)",
        f"wall time: {report.wall_seconds:.2f} s",
        f"detection events: {len(report.events)}",
    ]
    for ev in report.events:
        accused = f"accuses bus {ev.accused_neighbor}" if ev.accused_neighbor else "unattributed"
        lines.append(
            f"  t = {ev.time:.4f} s  agent {ev.agent}  component {ev.component}  "
            f"{accused}  s = {ev.statistic:.2f}"
        )
    lines.append("residual rms after warm-up:")
    for agent in sorted(report.residual_rms):
        parts = " ".join(
            f"{lab}={val:.3f}" for lab, val in report.residual_rms[agent].items()
        )
        lines.append(f"  agent {agent}: {parts}")
    return "\n".join(lines) + "\n"


def export_trace_csv(trace: SimulationTrace, path) -> None:
    """Full time series: truth, every agent's estimate and residual, and a
    0/1 latched-alarm flag per agent, floats at 17 significant digits.

    The bytes are those of ``np.savetxt(fmt="%.17g", delimiter=",")``,
    produced a block of rows at a time by :mod:`dcmg._csvrows`.  The exact
    two-product of |x| and a power of ten gives the 17-digit mantissa,
    rounded half to even as ``%.17g`` rounds, and zeros are written
    directly.  Non-finite values, values outside 1e-5 <= |x| < 1e16 and
    values ``%.17g`` prints in exponent notation go to Python's
    ``"%.17g" %``, once per distinct value.
    """
    agents = sorted(trace.models)
    header = ["time"] + list(trace.state_labels)
    columns = [trace.times, trace.x_true]
    for i in agents:
        header += [f"xhat_{lab}" for lab in trace.models[i].labels]
        columns.append(trace.x_hat[i])
    for i in agents:
        header += [f"r_{lab}" for lab in trace.models[i].labels]
        columns.append(trace.residuals[i])
    for i in agents:
        header.append(f"alarm{i}")
        columns.append(trace.alarm_flags[i])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        write_rows(fh, columns)


def export_events_csv(events: list[DetectionEvent], path) -> None:
    rows = ["agent,accused_neighbor,component,time,statistic"]
    for ev in events:
        accused = "" if ev.accused_neighbor is None else str(ev.accused_neighbor)
        rows.append(
            f"{ev.agent},{accused},{ev.component},{ev.time:.17g},{ev.statistic:.17g}"
        )
    Path(path).write_text("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# entry points


def run(
    config_path,
    out_dir="out",
    *,
    validate_only: bool = False,
    seed_override: int | None = None,
    ts_override: float | None = None,
    quiet: bool = False,
    stdout=None,
    stderr=None,
) -> int:
    """Programmatic equivalent of ``dcmg run``; returns the exit code."""
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    try:
        config = load_config(config_path)
        if seed_override is not None:
            config = dataclasses.replace(
                config, seeds=dataclasses.replace(config.seeds, root=seed_override)
            )
        if ts_override is not None:
            config = dataclasses.replace(config, ts=ts_override)
        if seed_override is not None or ts_override is not None:
            validate_config(config)
    except DcmgError as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    if validate_only:
        if not quiet:
            print(f"{config_path}: ok", file=stdout)
        return 0
    try:
        t0 = time.perf_counter()
        trace = run_scenario(config)
        wall = time.perf_counter() - t0
        report = build_report(config, trace, wall)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        export_trace_csv(trace, out / "trace.csv")
        export_events_csv(trace.alarms, out / "events.csv")
        (out / "report.txt").write_text(format_report(report))
    except DcmgError as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    if not quiet:
        print(format_report(report), file=stdout, end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dcmg",
        description="Simulate networked DC microgrids with distributed "
        "unknown-input observers and residual-based attack detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario file and export artifacts")
    runp.add_argument("config", help="path to a scenario JSON file")
    runp.add_argument("--out", default="out", help="output directory (default: out)")
    runp.add_argument(
        "--validate-only",
        action="store_true",
        help="parse and validate the scenario, run nothing",
    )
    runp.add_argument(
        "--seed-override",
        type=int,
        default=None,
        help="replace the root seed of the scenario",
    )
    runp.add_argument(
        "--ts",
        type=float,
        default=None,
        dest="ts_override",
        help="replace the step size of the scenario",
    )
    runp.add_argument("--quiet", action="store_true", help="suppress the report")
    args = parser.parse_args(argv)
    return run(
        args.config,
        args.out,
        validate_only=args.validate_only,
        seed_override=args.seed_override,
        ts_override=args.ts_override,
        quiet=args.quiet,
    )


if __name__ == "__main__":
    raise SystemExit(main())
