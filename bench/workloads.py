"""Scenario files of the three benchmark workloads, made from a seed.

Each workload is one JSON scenario in the schema `dcmg run` reads.  The
seed picks the scenario's root noise seed and, on ``ring30``, the bus
loads; nothing else depends on it, so the same seed always gives the
same file.  Standard library only: the benchmark's parent process never
imports the program.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

BUNDLED = Path("scenarios") / "threebus_attack.json"

# the preset 50 MW, 12 kV converter bus and tie line of the three-bus network
BUS = {
    "r_internal": 0.05,
    "l_internal": 0.003,
    "c_output": 1e-05,
    "droop_gain": 0.144,
    "v_source_nominal": 12000.0,
    "rated_power": 50000000.0,
}
LINE = {"r_line": 0.1, "l_line": 0.0005}

RING_BUSES = 30
RING_HORIZON = 1.0  # 10^4 steps at ts = 1e-4
TV_HORIZON = 0.5  # 5000 steps, a gain_step on every one of them


def _constant(level: float, t_start: float = 0.0) -> dict:
    return {
        "t_start": t_start,
        "kind": "constant",
        "level": level,
        "level_end": None,
        "walk_std": 0.0,
    }


def _threebus_cli(bundled: dict, seed: int) -> dict:
    """The bundled paper scenario with the root seed replaced."""
    scn = copy.deepcopy(bundled)
    scn["seeds"]["root"] = seed
    return scn


def _ring30(bundled: dict, seed: int) -> dict:
    """30 preset buses in a ring, loads drawn from the seed, one bias on
    bus 1's view of bus 2 from mid-horizon, no load step."""
    rng = random.Random(seed)
    n = RING_BUSES
    lines = [dict(tail=i, head=i + 1, **LINE) for i in range(1, n)]
    lines.append(dict(tail=1, head=n, **LINE))
    scn = copy.deepcopy(bundled)
    scn.update(
        network={"buses": [dict(BUS) for _ in range(n)], "lines": lines},
        horizon=RING_HORIZON,
        warmup=0.1,
        seeds={"root": seed, "process": None, "measurement": {}, "load": {}},
        load_profiles={
            str(i): [_constant(float(rng.randrange(500, 1501)))]
            for i in range(1, n + 1)
        },
        source_schedule={
            str(i): [{"t_start": 0.0, "volts": 12000.0}] for i in range(1, n + 1)
        },
        attacks=[
            {"victim": 1, "source": 2, "start": 0.5, "end": RING_HORIZON, "bias": 150.0}
        ],
        freeze_gains=True,
    )
    return scn


def _threebus_tv(bundled: dict, seed: int) -> dict:
    """The bundled three-bus network with time-varying gains over a short
    horizon: one bias at 0.15 s, then a 1 kA -> 3 kA load step at 0.3 s."""
    scn = copy.deepcopy(bundled)
    scn.update(
        horizon=TV_HORIZON,
        warmup=0.05,
        load_profiles={
            str(i): [_constant(1000.0), _constant(3000.0, t_start=0.3)]
            for i in (1, 2, 3)
        },
        attacks=[
            {"victim": 1, "source": 3, "start": 0.15, "end": TV_HORIZON, "bias": 150.0}
        ],
        freeze_gains=False,
    )
    scn["seeds"]["root"] = seed
    return scn


_MAKERS = {"threebus_cli": _threebus_cli, "ring30": _ring30, "threebus_tv": _threebus_tv}
WORKLOADS = tuple(_MAKERS)


def make_scenario(workload: str, seed: int, root: Path) -> dict:
    """Scenario dict of ``workload`` for ``seed``; ``root`` is the checkout
    holding the bundled scenario every workload starts from."""
    bundled = json.loads((root / BUNDLED).read_text())
    return _MAKERS[workload](bundled, seed)


def write_scenario(workload: str, seed: int, root: Path, path: Path) -> dict:
    scn = make_scenario(workload, seed, root)
    path.write_text(json.dumps(scn, indent=2, sort_keys=True) + "\n")
    return scn
