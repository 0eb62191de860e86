import io
import json
from pathlib import Path

import numpy as np
import pytest

import dcmg.cli as cli
from dcmg.detect import DetectionEvent, DetectorConfig
from dcmg.errors import DcmgError, ParseError, ValidationError
from dcmg.netmodel import LineParams, NetworkSpec
from dcmg.presets import example_bus, threebus_attack_scenario, threebus_network
from dcmg.sim import (
    AttackSpec,
    LoadSegment,
    NoiseConfig,
    ScenarioConfig,
    Seeds,
    SourceStep,
)

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "threebus_attack.json"


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
        detector=DetectorConfig(
            kappa=4.0, ewma_alpha=0.2, persistence=3, sigma_source="warmup"
        ),
        freeze_gains=False,
        freeze_tol=1e-10,
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


def test_runtime_failure_exits_1(tmp_path, monkeypatch):
    path = tmp_path / "mini.json"
    cli.write_config(mini_scenario(), path)

    def explode(config):
        raise DcmgError("boom")

    monkeypatch.setattr(cli, "run_scenario", explode)
    code, _, err = run_cli(path, tmp_path / "out")
    assert code == 1
    assert "boom" in err


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
