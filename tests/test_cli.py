import copy
import dataclasses
import io
import json
import re
import subprocess
import sys
import threading
import time
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dcmg.cli as cli
import dcmg.sim as sim
from dcmg._csvrows import CHUNK_ROWS, write_rows
from dcmg.detect import DetectionEvent, DetectorConfig
from dcmg.errors import DcmgError, NonFinite, ParseError, ValidationError
from dcmg.netmodel import LineParams, NetworkSpec
from dcmg.presets import example_bus, threebus_attack_scenario, threebus_network
from dcmg.sim import (
    AttackSpec,
    LoadSegment,
    NoiseConfig,
    ScenarioConfig,
    Seeds,
    SourceStep,
    run_scenario,
)
from oracles import savetxt_csv, trace_csv

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "threebus_attack.json"
README = SCENARIO.parents[1] / "README.md"


def mini_scenario() -> ScenarioConfig:
    return ScenarioConfig(
        network=threebus_network(),
        ts=1e-4,
        horizon=0.05,
        warmup=0.01,
        seeds=Seeds(root=7),
        load_profiles={
            i: [LoadSegment(t_start=0.0, level=1000.0)] for i in (1, 2, 3)
        },
        attacks=[AttackSpec(victim=1, source=3, start=0.02, end=0.05, bias=150.0)],
    )


def gnarly_scenario() -> ScenarioConfig:
    network = NetworkSpec(
        buses=[example_bus(), example_bus(), example_bus()],
        lines=[
            LineParams(tail=1, head=2, r_line=0.08, l_line=4e-4),
            LineParams(tail=2, head=3, r_line=0.12, l_line=6e-4),
        ],
    )
    return ScenarioConfig(
        network=network,
        ts=5e-5,
        horizon=0.2,
        warmup=0.05,
        initial_state="zero",
        seeds=Seeds(root=3, process=17, measurement={2: 21}, load={1: 5, 3: 6}),
        noise=NoiseConfig(q_state=2.0, r_bus=50.0, r_line=5.0, inject=False),
        load_profiles={
            1: [
                LoadSegment(t_start=0.0, level=100.0),
                LoadSegment(t_start=0.1, kind="ramp", level=100.0, level_end=900.0),
            ],
            3: [LoadSegment(t_start=0.0, kind="random_walk", level=0.0, walk_std=2.0)],
        },
        source_schedule={
            2: [
                SourceStep(t_start=0.0, volts=12_000.0),
                SourceStep(t_start=0.15, volts=11_950.0),
            ]
        },
        attacks=[AttackSpec(victim=2, source=1, start=0.1, end=0.2, bias=-40.0)],
        detector=DetectorConfig(kappa=4.0, ewma_alpha=0.2, persistence=3),
        freeze_gains=False,
    )


def run_cli(*args, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(*args, stdout=out, stderr=err, **kwargs)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# serialization


def test_bundled_scenario_matches_preset():
    assert cli.load_config(SCENARIO) == threebus_attack_scenario()


@pytest.mark.parametrize("config", [threebus_attack_scenario(), gnarly_scenario()])
def test_round_trip_through_json(config):
    text = cli.write_config(config)
    assert cli.scenario_from_dict(json.loads(text)) == config


def test_write_config_creates_file(tmp_path):
    path = tmp_path / "scenario.json"
    text = cli.write_config(mini_scenario(), path)
    assert path.read_text() == text


def test_digest_is_stable_and_sensitive():
    a = cli.config_digest(threebus_attack_scenario())
    assert a == cli.config_digest(threebus_attack_scenario())
    assert a == cli.config_digest(cli.load_config(SCENARIO))
    tweaked = threebus_attack_scenario()
    tweaked.attacks[0].bias = 151.0
    assert cli.config_digest(tweaked) != a


def test_bundled_scenario_is_canonical():
    config = threebus_attack_scenario()
    assert cli.config_digest(config) == (
        "d3c2c712bf5171093adedfbb48f2e21c2aa1f00331a2787a6761fb0851777f61"
    )
    assert cli.write_config(config).encode() == SCENARIO.read_bytes()


def scenario_keys(cls) -> set[str]:
    """Every field name of ``cls`` and of the dataclasses its hints nest."""
    keys, hints = set(), typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        keys.add(field.name)
        nested = [hints[field.name]]
        while nested:
            hint = nested.pop()
            if dataclasses.is_dataclass(hint):
                keys |= scenario_keys(hint)
            nested.extend(typing.get_args(hint))
    return keys


def test_readme_names_every_scenario_key():
    text = README.read_text()
    section = text.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`(\w+)`", section))
    assert scenario_keys(ScenarioConfig) - named == set()


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (
            ("load_profiles", "1", 0, "level"),
            "x",
            "scenario.load_profiles[1][0].level: expected a number, got 'x'",
        ),
        (
            ("seeds", "measurement"),
            {"x": 1},
            "scenario.seeds.measurement: key 'x' is not a bus id",
        ),
        (
            ("detector", "persistence"),
            1.0,
            "scenario.detector.persistence: expected an integer, got 1.0",
        ),
        (
            ("attacks", 0, "victim"),
            True,
            "scenario.attacks[0].victim: expected an integer, got True",
        ),
        (
            ("noise", "inject"),
            1,
            "scenario.noise.inject: expected a boolean, got 1",
        ),
        (
            ("network", "lines", 0, "x"),
            0.5,
            "scenario.network.lines[0]: unknown keys ['x']",
        ),
        (("attacks",), {}, "scenario.attacks: expected an array, got dict"),
        (("seeds", "process"), None, None),
    ],
)
def test_nested_decode_errors_name_the_field(keys, value, message):
    obj = json.loads(cli.write_config(mini_scenario()))
    target = obj
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    if message is None:
        assert cli.scenario_from_dict(obj).seeds.process is None
        return
    with pytest.raises(ValidationError) as info:
        cli.scenario_from_dict(obj)
    assert str(info.value) == message


def test_unknown_keys_rejected():
    obj = json.loads(cli.write_config(mini_scenario()))
    obj["typo_field"] = 1
    with pytest.raises(ValidationError, match="unknown keys"):
        cli.scenario_from_dict(obj)


def test_missing_required_field_rejected():
    obj = json.loads(cli.write_config(mini_scenario()))
    del obj["network"]["buses"][0]["r_internal"]
    with pytest.raises(ValidationError, match="r_internal is required"):
        cli.scenario_from_dict(obj)


def test_wrong_types_rejected():
    obj = json.loads(cli.write_config(mini_scenario()))
    obj["ts"] = "fast"
    with pytest.raises(ValidationError, match="ts: expected a number"):
        cli.scenario_from_dict(obj)


# ---------------------------------------------------------------------------
# exit codes


def test_validate_only_runs_nothing(tmp_path):
    path = tmp_path / "mini.json"
    cli.write_config(mini_scenario(), path)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(path, out_dir, validate_only=True)
    assert code == 0
    assert "ok" in out
    assert err == ""
    assert not out_dir.exists()


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(path, tmp_path / "out")
    assert code == 2
    assert "error:" in err and "JSON" in err


@pytest.mark.parametrize(
    "payload",
    [
        b'{"ts": "\xff"}',  # not UTF-8
        b'{"horizon": 1' + b"0" * 5000 + b"}",  # past the int-string digit limit
        b"[" * 100_000,  # nested deeper than the parser recurses
    ],
    ids=["not-utf8", "long-int", "deep-nesting"],
)
def test_unparsable_file_exits_2(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    code, _, err = run_cli(path, tmp_path / "out", validate_only=True)
    assert code == 2
    assert err.startswith("error:") and str(path) in err


def test_missing_file_exits_2(tmp_path):
    code, _, err = run_cli(tmp_path / "nope.json", tmp_path / "out")
    assert code == 2
    assert "cannot read" in err


def test_unknown_key_exits_2(tmp_path):
    obj = json.loads(cli.write_config(mini_scenario()))
    obj["horizont"] = 1.0
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(path, tmp_path / "out")
    assert code == 2
    assert "unknown keys" in err


def test_retired_freeze_tol_key_exits_2(tmp_path):
    # the gain-freeze threshold is the fixed sim.FREEZE_RTOL, so a file
    # that still carries the old key is rejected, naming it
    obj = json.loads(cli.write_config(mini_scenario()))
    obj["freeze_tol"] = 1e-12
    path = tmp_path / "old.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(path, tmp_path / "out", validate_only=True)
    assert code == 2
    assert err == "error: scenario: unknown keys ['freeze_tol']\n"


def test_retired_sigma_source_key_exits_2(tmp_path):
    # the detector always divides by the model's sigma, so a file that
    # still picks a sigma source is rejected, naming the key
    obj = json.loads(cli.write_config(mini_scenario()))
    obj["detector"]["sigma_source"] = "warmup"
    path = tmp_path / "old.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(path, tmp_path / "out", validate_only=True)
    assert code == 2
    assert err == "error: scenario.detector: unknown keys ['sigma_source']\n"


def test_off_grid_attack_exits_2_naming_the_field(tmp_path):
    cfg = mini_scenario()
    cfg.attacks[0].start = 0.020005
    obj = json.loads(cli.write_config(cfg))
    path = tmp_path / "offgrid.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(path, tmp_path / "out", validate_only=True)
    assert code == 2
    assert "attacks[0].start" in err and "off-grid" in err


def test_nan_ts_exits_2_naming_the_field(tmp_path):
    obj = json.loads(cli.write_config(mini_scenario()))
    obj["ts"] = float("nan")
    path = tmp_path / "nan_ts.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(path, tmp_path / "out", validate_only=True)
    assert code == 2
    assert "ts must be finite" in err


@pytest.mark.parametrize(
    "where, keys, value",
    [
        (
            "scenario.network.buses[0].c_output",
            ("network", "buses", 0, "c_output"),
            float("nan"),
        ),
        ("scenario.noise.r_line", ("noise", "r_line"), float("inf")),
        ("scenario.detector.kappa", ("detector", "kappa"), float("nan")),
        # an integer literal too large for a float
        pytest.param(
            "scenario.horizon", ("horizon",), 10**400, id="scenario.horizon-10**400"
        ),
    ],
)
def test_non_finite_number_exits_2_naming_the_field(tmp_path, where, keys, value):
    obj = json.loads(cli.write_config(mini_scenario()))
    target = obj
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(path, tmp_path / "out", validate_only=True)
    assert code == 2
    assert f"{where} must be finite" in err


def test_missing_network_exits_2(tmp_path):
    obj = json.loads(cli.write_config(mini_scenario()))
    del obj["network"]
    path = tmp_path / "no_network.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(path, tmp_path / "out", validate_only=True)
    assert code == 2
    assert err == "error: scenario.network is required\n"


_BUNDLED = json.loads(SCENARIO.read_text())


def _edited(obj: dict, edits) -> dict:
    """A copy of ``obj`` with each (key path, value) of ``edits`` set; an
    edit whose path an earlier edit removed is skipped."""
    obj = copy.deepcopy(obj)
    for keys, value in edits:
        target = obj
        try:
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]]  # the node must still exist
        except (KeyError, IndexError, TypeError):
            continue
        target[keys[-1]] = value
    return obj


@pytest.mark.parametrize(
    "where, keys",
    [
        ("horizon", ("horizon",)),
        ("warmup", ("warmup",)),
        ("load_profiles[1][0].t_start", ("load_profiles", "1", 0, "t_start")),
        ("load_profiles[2][1].t_start", ("load_profiles", "2", 1, "t_start")),
        ("source_schedule[3][0].t_start", ("source_schedule", "3", 0, "t_start")),
        ("attacks[0].start", ("attacks", 0, "start")),
        ("attacks[1].end", ("attacks", 1, "end")),
    ],
)
def test_huge_time_exits_2_naming_the_field(tmp_path, where, keys):
    # 1e308 / ts overflows to inf, which has no step index
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_edited(_BUNDLED, [(keys, 1e308)])))
    code, _, err = run_cli(path, tmp_path / "out", validate_only=True)
    assert code == 2
    assert err.startswith("error:") and where in err


def _unallocatable(ts: float, horizon: float) -> dict:
    """The bundled scenario at ``ts`` and ``horizon``, its load step, attacks
    and warm-up moved onto the grid at t = 0.5 (or dropped)."""
    scn = _edited(
        _BUNDLED,
        [
            (("ts",), ts),
            (("horizon",), horizon),
            (("warmup",), 0.5),
            (("attacks",), []),
        ],
    )
    for segments in scn["load_profiles"].values():
        del segments[1:]
    return scn


def test_unrepresentable_step_count_exits_2_naming_horizon_and_ts(tmp_path):
    # 2^1000 steps: no float64 series of that length can exist
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_unallocatable(2.0**-1000, 1.0)))
    for validate_only in (True, False):
        code, out, err = run_cli(path, tmp_path / "out", validate_only=validate_only)
        assert code == 2 and out == ""
        assert err.startswith("error: horizon = 1.0 at ts = ")
        assert "steps, more than one float64 series can hold" in err


def test_unallocatable_horizon_exits_1(tmp_path):
    # 2^59 steps: every series is a few EiB, larger than any address space,
    # so the first allocation is refused before any memory is touched
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_unallocatable(2.0**-20, 2.0**39)))
    assert run_cli(path, validate_only=True)[0] == 0
    code, out, err = run_cli(path, tmp_path / "out")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _nodes(obj, path=()):
    """The key path of every node below ``obj``."""
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


_BAD_VALUES = [
    float("nan"), float("inf"), float("-inf"), -1.0, -1, 0, 1e308, -1e308,
    10**30, "x", None, True, [], {},
]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


# validation only: a valid scenario with a huge horizon would allocate in
# proportion if it ran
@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(_nodes(_BUNDLED))),
            st.one_of(st.sampled_from(_BAD_VALUES), st.floats()),
        ),
        min_size=1,
        max_size=3,
    )
)
@example([(("horizon",), 1e308)])
@example([(("ts",), 5e-324)])
def test_fuzzed_scenario_validates_or_exits_2(fuzz_path, edits):
    fuzz_path.write_text(json.dumps(_edited(_BUNDLED, edits)))
    code, _, err = run_cli(fuzz_path, fuzz_path.parent / "out", validate_only=True)
    assert code in (0, 2)
    assert code == 0 or err.startswith("error:")


def test_runtime_failure_exits_1(tmp_path, monkeypatch):
    path = tmp_path / "mini.json"
    cli.write_config(mini_scenario(), path)

    def explode(config):
        raise DcmgError("boom")

    monkeypatch.setattr(cli, "run_scenario", explode)
    code, _, err = run_cli(path, tmp_path / "out")
    assert code == 1
    assert "boom" in err


def test_linear_algebra_failure_exits_1(tmp_path, monkeypatch):
    path = tmp_path / "mini.json"
    cli.write_config(mini_scenario(), path)

    def explode(config):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "run_scenario", explode)
    code, _, err = run_cli(path, tmp_path / "out")
    assert code == 1
    assert err == "error: Singular matrix\n"


def test_unwritable_output_exits_1(tmp_path):
    path = tmp_path / "mini.json"
    cli.write_config(mini_scenario(), path)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run_cli(path, blocker / "out")
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _overflowing(initial_state: str) -> dict:
    """A short bundled scenario, finite but huge: it passes validation,
    then the plant state overflows."""
    scn = _edited(
        _BUNDLED,
        [
            (("network", "buses", 0, "v_source_nominal"), 1e308),
            (("horizon",), 0.02),
            (("warmup",), 0.005),
            (("initial_state",), initial_state),
            (("source_schedule",), {}),
            (("attacks",), []),
        ],
    )
    for segments in scn["load_profiles"].values():
        del segments[1:]
    return scn


@pytest.mark.parametrize(
    "initial_state, where", [("steady", "step 0 (t = 0 s)"), ("zero", "step 17 (t = 0.0017 s)")]
)
def test_overflowing_plant_exits_1_naming_the_step(tmp_path, initial_state, where):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_overflowing(initial_state)))
    assert run_cli(path, validate_only=True)[0] == 0
    code, out, err = run_cli(path, tmp_path / "out")
    assert code == 1 and out == ""
    assert err == (
        f"error: plant state is not finite from {where}; "
        "a network parameter or input is too large\n"
    )


class _Stream:
    """A measurement stream that raises ``error`` or, after ``pause``
    seconds, fills zeros and records the call in ``calls``."""

    def __init__(self, error=None, pause=0.0):
        self.error, self.pause, self.calls = error, pause, []

    def standard_normal(self, *args, out=None):
        if self.error is not None:
            raise self.error
        time.sleep(self.pause)
        out[...] = 0.0
        self.calls.append(out.shape)
        return out


def _measurement_streams(monkeypatch, fake: _Stream) -> None:
    real = sim._stream

    def stream(seeds, tag, bus=0):
        return fake if tag == sim._TAG_MEASUREMENT else real(seeds, tag, bus)

    monkeypatch.setattr(sim, "_stream", stream)


def test_failed_measurement_draws_exit_1(tmp_path, monkeypatch):
    # the draws run on a second thread; their error is raised on the
    # calling one once it has joined it
    path = tmp_path / "mini.json"
    cli.write_config(mini_scenario(), path)
    _measurement_streams(monkeypatch, _Stream(error=MemoryError("no room for y")))
    before = threading.active_count()
    with pytest.raises(MemoryError, match="no room for y"):
        run_scenario(mini_scenario())
    assert threading.active_count() == before
    code, out, err = run_cli(path, tmp_path / "out")
    assert (code, out, err) == (1, "", "error: no room for y\n")
    assert threading.active_count() == before


def _lossless() -> ScenarioConfig:
    cfg = mini_scenario()
    for bus in cfg.network.buses:
        bus.r_internal = bus.droop_gain = 0.0
    for line in cfg.network.lines:
        line.r_line = 0.0
    return cfg


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: cli.scenario_from_dict(_overflowing("zero")), NonFinite),
        (_lossless, ValidationError),
    ],
    ids=["overflowing", "lossless"],
)
def test_main_thread_error_leaves_no_thread_running(monkeypatch, make, error):
    # each agent's draw outlasts the main thread's failure: the error is
    # raised only once every row is drawn and the worker has ended
    config = make()
    fake = _Stream(pause=0.05)
    _measurement_streams(monkeypatch, fake)
    before = threading.active_count()
    with pytest.raises(error):
        run_scenario(config)
    assert len(fake.calls) == 3
    assert threading.active_count() == before


def test_huge_residuals_report_a_finite_rms(tmp_path, monkeypatch):
    # finite but huge: the plant stays finite from a zero start, and the
    # residuals' squares would overflow
    scn = _edited(
        _BUNDLED,
        [
            (("network", "buses", 0, "v_source_nominal"), 1e306),
            (("horizon",), 0.02),
            (("warmup",), 0.005),
            (("initial_state",), "zero"),
            (("source_schedule",), {}),
            (("attacks",), []),
        ],
    )
    for segments in scn["load_profiles"].values():
        del segments[1:]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(scn))
    reports, build_report = [], cli.build_report

    def strict(config, trace, wall_seconds):
        trace.residuals[3][:, -1] = 0.0  # one all-zero channel
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reports.append(build_report(config, trace, wall_seconds))
        return reports[-1]

    monkeypatch.setattr(cli, "build_report", strict)
    code, _, err = run_cli(path, tmp_path / "out", quiet=True)
    assert code == 0, err
    rms = [v for agent in reports[0].residual_rms.values() for v in agent.values()]
    assert len(rms) == 12 and np.isfinite(rms).all()
    assert max(rms) > 1e200  # far past the 1.3e154 whose square overflows
    assert reports[0].residual_rms[3]["I3_2"] == 0.0


def test_parse_error_type():
    with pytest.raises(ParseError):
        cli.load_config("/definitely/not/here.json")


# ---------------------------------------------------------------------------
# artifacts


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    path = root / "mini.json"
    cli.write_config(mini_scenario(), path)
    out_dir = root / "out"
    code, out, err = run_cli(path, out_dir)
    assert code == 0, err
    return path, out_dir, out


def test_run_writes_all_artifacts(mini_run):
    _, out_dir, report = mini_run
    assert (out_dir / "trace.csv").exists()
    assert (out_dir / "events.csv").exists()
    assert (out_dir / "report.txt").exists()
    assert "scenario digest:" in report
    assert "detection events:" in report
    assert (out_dir / "report.txt").read_text() == report


def test_trace_csv_layout(mini_run):
    _, out_dir, _ = mini_run
    lines = (out_dir / "trace.csv").read_text().splitlines()
    header = lines[0].split(",")
    # time + 9 truth states + 3 agents x (4 estimates + 4 residuals + flag)
    assert len(header) == 1 + 9 + 12 + 12 + 3
    assert header[0] == "time"
    assert header[1:10] == ["V1", "V2", "V3", "Ig1", "Ig2", "Ig3", "I1_2", "I1_3", "I2_3"]
    assert header[10] == "xhat_V1"
    assert header[22] == "r_V1"
    assert header[-3:] == ["alarm1", "alarm2", "alarm3"]
    data = np.loadtxt(out_dir / "trace.csv", delimiter=",", skiprows=1)
    assert data.shape == (501, 37)
    assert np.allclose(data[:, 0], np.arange(501) * 1e-4, atol=1e-12)


def test_trace_csv_matches_savetxt(mini_run):
    path, out_dir, _ = mini_run
    trace = run_scenario(cli.load_config(path))
    assert (out_dir / "trace.csv").read_bytes() == trace_csv(trace)


# exact decimal ties at 17 digits: 641043932636031.125 rounds down to even,
# 2251799813685247.75 up to even
_TIES = [641043932636031.125, 2143331415251232.25, 2251799813685247.75]
_EDGES = [
    -0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
    1e-5, 9.9999999999999991e-5, 1e-4, 0.00010000000000000001, 0.1, 1.0,
    9.9999999999999995e15, 9999999999999998.0, 1e16, 1e17, 1.7976931348623157e308,
]


def _rows(n, width=3):
    return np.sin(np.arange(n * width, dtype=float)).reshape(n, width) * 1e3


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12),
        elements=st.one_of(
            st.floats(),
            st.floats(min_value=1e-6, max_value=1e17),
            st.floats(min_value=-1e17, max_value=-1e-6),
            st.builds(
                lambda m, k: m / 2.0**k,
                st.integers(2**50, 2**53),
                st.integers(-4, 60),
            ),
        ),
    )
)
@example(np.array([_EDGES]))
@example(np.array([_TIES, [-t for t in _TIES]]))
@example(_rows(0))
@example(_rows(1))
@example(_rows(CHUNK_ROWS))
@example(_rows(CHUNK_ROWS + 1))
def test_block_writer_matches_savetxt(data):
    buf = io.BytesIO()
    write_rows(buf, [data])
    assert buf.getvalue() == savetxt_csv(data)


def test_events_csv_header(mini_run):
    _, out_dir, _ = mini_run
    lines = (out_dir / "events.csv").read_text().splitlines()
    assert lines[0] == "agent,accused_neighbor,component,time,statistic"


def test_events_csv_rows(tmp_path):
    events = [
        DetectionEvent(agent=1, accused_neighbor=3, component="I1_3", time=4.0019, statistic=7.5),
        DetectionEvent(agent=2, accused_neighbor=None, component="V2", time=6.25, statistic=5.1),
    ]
    path = tmp_path / "events.csv"
    cli.export_events_csv(events, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "1,3,I1_3,4.0019,7.5"
    assert lines[2].startswith("2,,V2,")


def test_seed_override_is_deterministic(tmp_path):
    path = tmp_path / "mini.json"
    cli.write_config(mini_scenario(), path)
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, err = run_cli(path, out_dir, seed_override=123, quiet=True)
        assert code == 0, err
        outs.append((out_dir / "trace.csv").read_bytes())
    assert outs[0] == outs[1]
    code, _, _ = run_cli(path, tmp_path / "c", seed_override=124, quiet=True)
    assert code == 0
    assert (tmp_path / "c" / "trace.csv").read_bytes() != outs[0]


@pytest.mark.parametrize(
    "where, seeds",
    [
        ("seeds.root", {"root": -1}),
        ("seeds.process", {"process": -1}),
        ("seeds.measurement[2]", {"measurement": {"2": -1}}),
        ("seeds.load[3]", {"load": {"3": -1}}),
    ],
)
def test_negative_seed_exits_2_naming_the_field(tmp_path, where, seeds):
    # numpy would reject the seed only when run_scenario draws from it
    obj = json.loads(cli.write_config(mini_scenario()))
    obj["seeds"].update(seeds)
    path = tmp_path / "negative_seed.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(path, tmp_path / "out", validate_only=True)
    assert code == 2
    assert f"{where} must be an integer >= 0" in err


def test_negative_seed_override_exits_2(tmp_path):
    path = tmp_path / "mini.json"
    cli.write_config(mini_scenario(), path)
    code, _, err = run_cli(path, tmp_path / "out", seed_override=-1)
    assert code == 2
    assert "seeds.root must be an integer >= 0" in err


def test_seed_override_replaces_a_bad_root_seed(tmp_path):
    # the override is applied before validation, so only the seed that
    # runs is checked
    obj = json.loads(cli.write_config(mini_scenario()))
    obj["seeds"]["root"] = -1
    path = tmp_path / "negative_seed.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(path, tmp_path / "out", validate_only=True, seed_override=5)
    assert code == 0, err


def test_ts_override_revalidates(tmp_path):
    # the mini scenario has events on the 1e-4 grid; a 3e-4 grid misses them
    path = tmp_path / "mini.json"
    cli.write_config(mini_scenario(), path)
    code, _, err = run_cli(path, tmp_path / "out", ts_override=3e-4)
    assert code == 2
    assert "off-grid" in err


# ---------------------------------------------------------------------------
# argparse front end


def test_main_validate_only(tmp_path, capsys):
    path = tmp_path / "mini.json"
    cli.write_config(mini_scenario(), path)
    assert cli.main(["run", str(path), "--validate-only"]) == 0
    assert "ok" in capsys.readouterr().out


def test_main_quiet_run(tmp_path, capsys):
    path = tmp_path / "mini.json"
    cli.write_config(mini_scenario(), path)
    out_dir = tmp_path / "artifacts"
    assert cli.main(["run", str(path), "--out", str(out_dir), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert (out_dir / "trace.csv").exists()


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


# ---------------------------------------------------------------------------
# scripts


def test_run_threebus_script(tmp_path):
    path = tmp_path / "mini.json"
    cli.write_config(mini_scenario(), path)
    out_dir = tmp_path / "artifacts"
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_threebus.py"
    proc = subprocess.run(
        [sys.executable, str(script), str(path), "--out", str(out_dir)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("trace.csv", "events.csv", "report.txt"):
        assert (out_dir / name).exists()
    assert f"digest   {cli.config_digest(mini_scenario())}" in proc.stdout
    assert "sigmas (V1, Ig1, I1_2, I1_3):" in proc.stdout
    assert re.search(r"^  \[.*\) s  bias 150 V on V3->1 ", proc.stdout, re.M)

    # on a 1-2-3 path, bus 1 has one line and agent 1 three channels
    path_network = tmp_path / "gnarly.json"
    cli.write_config(gnarly_scenario(), path_network)
    proc = subprocess.run(
        [sys.executable, str(script), str(path_network), "--out", str(out_dir)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "sigmas (V1, Ig1, I1_2):" in proc.stdout
    assert re.search(r"^  \[.*\) s  no attack ", proc.stdout, re.M)
    # its only attack falsifies what agent 2 receives, not agent 1's rows
    assert not re.search(r"^  \[.*\) s  .*V1->2", proc.stdout, re.M)

    bad = tmp_path / "bad.json"
    bad.write_text('{"network": 3}')
    for args in ([str(bad)], [str(path), "--seed", "-1"]):
        proc = subprocess.run(
            [sys.executable, str(script), *args, "--out", str(out_dir)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    # valid, then the plant state overflows at run time
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(_overflowing("steady")))
    proc = subprocess.run(
        [sys.executable, str(script), str(huge), "--out", str(tmp_path / "huge_out")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: plant state is not finite from step 0 (t = 0 s); "
        "a network parameter or input is too large\n"
    )


def test_bias_sweep_script(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "bias_sweep.py"

    def sweep(*args):
        return subprocess.run(
            [sys.executable, str(script), *args],
            capture_output=True,
            text=True,
            timeout=120,
        )

    out = tmp_path / "sweep.csv"
    proc = sweep("--biases", "150", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^ +150 +yes ", proc.stdout, re.M)
    header, row = out.read_text().splitlines()
    assert header == "bias_volts,detected,latency_seconds,peak_ewma"
    assert row.startswith("150,1,")

    # a bad list fails in argparse, a bad seed in validation: exit 2 and
    # one error line either way, before any run
    for args in (["--biases", "abc"], ["--seed", "-1"]):
        proc = sweep(*args)
        assert proc.returncode == 2
        assert len([line for line in proc.stderr.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
    assert proc.stderr == "error: seeds.root must be an integer >= 0, got -1\n"

    # the CSV cannot be written: the sweep fails before its first run, so
    # no table row is printed
    proc = sweep("--biases", "150", "--out", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert not re.search(r"^ +150 ", proc.stdout, re.M)


def test_count_lines_script(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        '"""Module\n\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "@staticmethod\n"
        "def f(x):\n"
        "    return x  # trailing comment\n"
        "\n"
        "\n"
        "class C:\n"
        '    """One line."""\n'
    )
    script = Path(__file__).resolve().parents[1] / "scripts" / "count_lines.py"
    proc = subprocess.run(
        [sys.executable, str(script), str(source)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # the docstring's three lines, the decorator, def and return, and the
    # class with its docstring; no blank or comment-only line
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["8", str(source)],
        ["3", "f"],
        ["2", "C"],
        ["8", "total", str(source)],
    ]
