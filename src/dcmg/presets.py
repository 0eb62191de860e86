"""Canonical example systems: a three-bus 12 kV meshed network and the
bias-attack scenario used by the experiment scripts and the bundled
scenario file."""

from __future__ import annotations

from .detect import DetectorConfig
from .netmodel import BusParams, LineParams, NetworkSpec, droop_ohms
from .sim import AttackSpec, LoadSegment, NoiseConfig, ScenarioConfig, Seeds, SourceStep

V_RATED = 12_000.0
P_RATED = 50e6
DROOP_PCT = 0.05


def example_bus() -> BusParams:
    """50 MW converter bus: 0.05 ohm / 3 mH source branch, 10 uF bus
    capacitor, 5 % droop folded in as 0.144 ohm."""
    return BusParams(
        r_internal=0.05,
        l_internal=3e-3,
        c_output=1e-5,
        droop_gain=droop_ohms(DROOP_PCT, V_RATED, P_RATED),
        v_source_nominal=V_RATED,
        rated_power=P_RATED,
    )


def threebus_network() -> NetworkSpec:
    """Three identical buses in a triangle, 0.1 ohm / 0.5 mH tie lines."""
    line = dict(r_line=0.1, l_line=5e-4)
    return NetworkSpec(
        buses=[example_bus(), example_bus(), example_bus()],
        lines=[
            LineParams(tail=1, head=2, **line),
            LineParams(tail=1, head=3, **line),
            LineParams(tail=2, head=3, **line),
        ],
    )


def threebus_attack_scenario() -> ScenarioConfig:
    """Ten-second run on the triangle network with two staggered bias
    attacks against bus 1 and a network-wide load step.

    Bus 3 reports its voltage to bus 1 with a +150 V bias from t = 4 s,
    bus 2 with +100 V from t = 6 s; at t = 8 s every bus steps its load
    from 1 kA to 3 kA.  The load step is the control: it must not move
    any residual, while each bias must fire exactly one line-current
    alarm at bus 1.
    """
    base_load = [
        LoadSegment(t_start=0.0, kind="constant", level=1000.0),
        LoadSegment(t_start=8.0, kind="constant", level=3000.0),
    ]
    return ScenarioConfig(
        network=threebus_network(),
        ts=1e-4,
        horizon=10.0,
        warmup=0.1,
        initial_state="steady",
        seeds=Seeds(root=42),
        noise=NoiseConfig(q_state=10.0, r_bus=100.0, r_line=10.0, inject=True),
        load_profiles={1: list(base_load), 2: list(base_load), 3: list(base_load)},
        source_schedule={
            i: [SourceStep(t_start=0.0, volts=V_RATED)] for i in (1, 2, 3)
        },
        attacks=[
            AttackSpec(victim=1, source=3, start=4.0, end=10.0, bias=150.0),
            AttackSpec(victim=1, source=2, start=6.0, end=10.0, bias=100.0),
        ],
        detector=DetectorConfig(kappa=5.0, ewma_alpha=0.05, persistence=10),
        freeze_gains=True,
    )
