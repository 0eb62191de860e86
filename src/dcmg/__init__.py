"""Simulation and attack detection for networked DC microgrids.

Each bus runs a droop-controlled converter and exchanges its bus voltage
with its neighbours; a distributed unknown-input optimal observer per bus
estimates the local states while staying algebraically insensitive to the
unknown load current, so that residuals react to falsified neighbour data
but not to load changes.

The package namespace holds what a user needs to describe and run a
scenario; the model, observer and detector internals are imported from
their submodules (``dcmg.netmodel``, ``dcmg.uio``, ``dcmg.detect``, ...).
"""

from .detect import DetectionEvent, DetectorConfig
from .errors import DcmgError, ParseError, ValidationError
from .netmodel import BusParams, LineParams, NetworkSpec
from .sim import (
    AttackSpec,
    LoadSegment,
    NoiseConfig,
    ScenarioConfig,
    Seeds,
    SimulationTrace,
    SourceStep,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AttackSpec",
    "BusParams",
    "DcmgError",
    "DetectionEvent",
    "DetectorConfig",
    "LineParams",
    "LoadSegment",
    "NetworkSpec",
    "NoiseConfig",
    "ParseError",
    "ScenarioConfig",
    "Seeds",
    "SimulationTrace",
    "SourceStep",
    "ValidationError",
    "run_scenario",
]
