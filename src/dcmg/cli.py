"""Command-line front end: validate scenario files, run simulations and
export trace/event/report artifacts.

Exit codes: 0 on success, 1 when a valid scenario fails at run time,
2 when the file cannot be parsed or its scenario or models are invalid.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
import types
import typing
from dataclasses import MISSING, dataclass
from pathlib import Path

import numpy as np

from ._csvrows import write_rows
from .detect import SIGMA_FLOOR, DetectionEvent
from .errors import DcmgError, ParseError, ValidationError
from .lti import row_blocks
from .sim import (
    ScenarioConfig,
    SimulationTrace,
    prepare,
    run_scenario,
    step_index,
    validate_config,
)

# what ``run`` reports as one error line: exit 2 for a file that cannot be
# read (ParseError) or describes no runnable scenario (ValidationError,
# from decoding, validate_config or prepare), exit 1 for anything else
RUN_ERRORS = (DcmgError, np.linalg.LinAlgError, OSError, MemoryError)


# ---------------------------------------------------------------------------
# JSON codec: the schema is the config dataclasses themselves.  Every field
# maps to a key; its type hint selects the decoder and a field without a
# default is required.


def _mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object, got {type(obj).__name__}")
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


_SCALARS = {float: _num, int: _int, bool: _bool, str: _str}

# evaluating the string annotations is the slow part; once per class
_hints = functools.cache(typing.get_type_hints)


def _decode(tp, obj, where: str):
    """Decode the parsed JSON value ``obj`` as a ``tp``: a scalar of
    ``_SCALARS``, ``X | None``, ``list[X]``, ``dict[int, X]`` keyed by bus
    id, or a config dataclass.  Errors name the field path ``where``."""
    if tp in _SCALARS:
        return _SCALARS[tp](obj, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        (inner,) = (a for a in args if a is not type(None))
        return None if obj is None else _decode(inner, obj, where)
    if origin is list:
        if not isinstance(obj, list):
            got = type(obj).__name__
            raise ValidationError(f"{where}: expected an array, got {got}")
        return [_decode(args[0], item, f"{where}[{i}]") for i, item in enumerate(obj)]
    obj = _mapping(obj, where)
    if origin is dict:
        out = {}
        for key, value in obj.items():
            # only the form str(bus) writes: "01" or "1_0" would alias a key
            try:
                bus = int(key)
                if str(bus) != key:
                    raise ValueError(key)
            except (TypeError, ValueError):
                raise ValidationError(f"{where}: key {key!r} is not a bus id") from None
            out[bus] = _decode(args[1], value, f"{where}[{key}]")
        return out
    fields = dataclasses.fields(tp)
    extra = sorted(set(obj) - {f.name for f in fields})
    if extra:
        raise ValidationError(f"{where}: unknown keys {extra}")
    hints = _hints(tp)
    kwargs = {}
    for f in fields:
        if f.name in obj:
            kwargs[f.name] = _decode(hints[f.name], obj[f.name], f"{where}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"{where}.{f.name} is required")
    return tp(**kwargs)


def _encode(value):
    """Inverse of :func:`_decode`: dataclasses become objects with every
    field, bus-keyed dicts get string keys."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    return value


def scenario_from_dict(obj) -> ScenarioConfig:
    """Decode a parsed JSON object into a ScenarioConfig, rejecting unknown
    keys and type mismatches with the offending field path."""
    if "network" not in _mapping(obj, "scenario"):
        raise ValidationError("scenario.network is required")
    return _decode(ScenarioConfig, obj, "scenario")


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Inverse of :func:`scenario_from_dict`; writes every field."""
    return _encode(config)


def _unique_keys(pairs: list) -> dict:
    """``json.loads`` hook: fail on a repeated name rather than keep its last value."""
    obj = {}
    for name, value in pairs:
        if name in obj:
            raise ValueError(f"repeated key {name!r}")
        obj[name] = value
    return obj


# loading decodes and checks the fields (validate_config) but builds no
# model; sim.prepare builds the models, for ``--validate-only`` and at the
# start of every run
def load_config(
    path, seed: int | None = None, ts: float | None = None
) -> ScenarioConfig:
    """Read and decode a scenario file, replace its root seed and step size
    where ``seed`` and ``ts`` are given, then validate the result."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, a repeated key and integer
        # literals past the int-string digit limit; RecursionError too deep
        # a nesting
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    config = scenario_from_dict(obj)
    if seed is not None:
        config.seeds.root = seed
    if ts is not None:
        config.ts = ts
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
    # per agent, one (t_lo, t_hi, attacks, {channel: |mean(r)| / sigma}) per
    # window, with the attacks on that agent active at t_lo
    residual_windows: dict[int, list[tuple[float, float, str, dict[str, float]]]]


def build_report(
    config: ScenarioConfig, trace: SimulationTrace, wall_seconds: float
) -> RunReport:
    """The run's report: its events, each residual channel's RMS after the
    warm-up, and each channel's |mean| / sigma over the second half of
    each span between events (``_windows``).  Every mean is reduced a
    block of rows at a time by ``_scaled_means``, so the report holds one
    block of rows beyond the trace."""
    k_warm = step_index(config.warmup, config.ts, "warmup")
    rms, table = {}, {}
    for agent, res in trace.residuals.items():
        labels = trace.models[agent].labels
        windows = list(_windows(config, agent))
        spans = [(k_warm, len(res))] + [(k_lo, k_hi) for k_lo, k_hi, _ in windows]
        means = _scaled_means(res, spans, [2] + [1] * len(windows))
        rms[agent] = dict(zip(labels, means[0].tolist()))
        sigmas = np.maximum(trace.sigmas[agent], SIGMA_FLOOR)  # as the detector's
        table[agent] = [
            (trace.times[k_lo], trace.times[k_hi], attacks, dict(zip(labels, row.tolist())))
            for (k_lo, k_hi, attacks), row in zip(windows, np.abs(means[1:]) / sigmas)
        ]
    return RunReport(
        digest=config_digest(config),
        n_steps=len(trace.times) - 1,
        ts=config.ts,
        horizon=config.horizon,
        wall_seconds=wall_seconds,
        events=list(trace.alarms),
        residual_rms=rms,
        residual_windows=table,
    )


def _windows(config: ScenarioConfig, agent: int):
    """(k_lo, k_hi, the attacks on ``agent`` active at k_lo) for the second
    half of each span between consecutive events on the step grid: 0, each
    load and source segment start, each attack start and end, the horizon."""
    starts = [*config.load_profiles.values(), *config.source_schedule.values()]
    times = [seg.t_start for segments in starts for seg in segments]
    times += [t for atk in config.attacks for t in (atk.start, atk.end)]
    edges = sorted({step_index(t, config.ts) for t in [0.0, config.horizon, *times]})
    for k_a, k_b in zip(edges, edges[1:]):
        k_lo = (k_a + k_b) // 2
        active = [
            f"bias {atk.bias:g} V on V{atk.source}->{atk.victim}"
            for atk in config.attacks
            if atk.victim == agent
            if step_index(atk.start, config.ts) <= k_lo < step_index(atk.end, config.ts)
        ]
        yield k_lo, k_b, " + ".join(active) or "no attack"


def _scaled_means(res: np.ndarray, spans, powers) -> np.ndarray:
    """For each span [k_lo, k_hi) of the rows of ``res`` and its power p,
    each column's mean of value ** p, to the power 1 / p: one row per span.

    The rows are reduced a block at a time (``lti.row_blocks``), each
    transposed into one contiguous row per channel, which the reductions
    run through several times faster than a strided column, and scaled
    into a copy.  Each sum is kept scaled by its channel's max(|value|, 1)
    so far, rescaled when a block raises it, so that finite values give a
    finite result."""
    n_rows, width = res.shape
    scale = np.ones((len(spans), width))
    total = np.zeros((len(spans), width))
    row_nbytes = 2 * res[0].nbytes  # a row and its scaled copy
    block, scaled = np.empty((2, width, next(row_blocks(n_rows, row_nbytes)).stop))
    for rows in row_blocks(n_rows, row_nbytes):
        channels = block[:, : rows.stop - rows.start]
        channels[...] = res[rows].T
        for (k_lo, k_hi), p, s, t in zip(spans, powers, scale, total):
            lo, hi = max(k_lo - rows.start, 0), min(k_hi, rows.stop) - rows.start
            if lo < hi:
                part = channels[:, lo:hi]
                peak = np.maximum(np.maximum(part.max(axis=1), -part.min(axis=1)), s)
                t *= (s / peak) ** p
                s[...] = peak
                out = scaled[:, : hi - lo]
                np.divide(part, peak[:, None], out=out)
                out **= p
                t += out.sum(axis=1)
    return np.array(
        [
            s * (t / (k_hi - k_lo)) ** (1 / p)
            for (k_lo, k_hi), p, s, t in zip(spans, powers, scale, total)
        ]
    )


def write_artifacts(
    config: ScenarioConfig, trace: SimulationTrace, wall_seconds: float, out_dir
) -> RunReport:
    """Write trace.csv, events.csv and report.txt into ``out_dir``."""
    report = build_report(config, trace, wall_seconds)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    export_trace_csv(trace, out / "trace.csv")
    export_events_csv(trace.alarms, out / "events.csv")
    (out / "report.txt").write_text(format_report(report))
    return report


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
    lines.append("residual |mean| / sigma, second half of each span between events:")
    for agent in sorted(report.residual_windows):
        lines.append(f"  agent {agent} ({', '.join(report.residual_rms[agent])}):")
        for t_lo, t_hi, attacks, means in report.residual_windows[agent]:
            cells = "  ".join(f"{v:7.2f}" for v in means.values())
            lines.append(f"    [{t_lo:7.4g}, {t_hi:7.4g}) s  {attacks:<42s} {cells}")
    return "\n".join(lines) + "\n"


def export_trace_csv(trace: SimulationTrace, path) -> None:
    """Full time series: truth, every agent's estimate and residual, and a
    0/1 latched-alarm flag per agent, floats at 17 significant digits.

    The bytes are those of ``np.savetxt(fmt="%.17g", delimiter=",")``,
    produced a block of rows at a time by :mod:`dcmg._csvrows`, each block
    cut by ``lti.row_blocks`` and formed in buffers allocated once:
    this thread forms each block's fixed-width slots and each field's
    mask code, and a second thread gathers the masks by code and writes
    the bytes they keep while this one forms the next.  The exact
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
        config = load_config(config_path, seed=seed_override, ts=ts_override)
        if validate_only:
            prepare(config)
        else:
            t0 = time.perf_counter()
            trace = run_scenario(config)
            report = write_artifacts(config, trace, time.perf_counter() - t0, out_dir)
    except RUN_ERRORS as exc:
        print(f"error: {exc}", file=stderr)
        return 2 if isinstance(exc, (ParseError, ValidationError)) else 1
    if not quiet:
        text = f"{config_path}: ok\n" if validate_only else format_report(report)
        print(text, file=stdout, end="")
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
