"""Simulation and attack detection for networked DC microgrids.

Each bus runs a droop-controlled converter and exchanges its bus voltage
with its neighbours; a distributed unknown-input optimal observer per bus
estimates the local states while staying algebraically insensitive to the
unknown load current, so that residuals react to falsified neighbour data
but not to load changes.
"""

from .detect import DetectionEvent, DetectorConfig, ewma_statistic, monitor
from .errors import (
    DcmgError,
    DecouplingInfeasible,
    DimensionMismatch,
    InvalidAgent,
    InvalidTopology,
    NegativeVariance,
    NonFinite,
    NonPositiveInput,
    NonSquare,
    ParseError,
    RankDeficient,
    SingularInnovation,
    UnknownComponent,
    ValidationError,
)
from .lti import DiscreteModel, discretize_zoh, left_pinv, matrix_exponential
from .netmodel import (
    AgentModelContinuous,
    BusParams,
    Coupling,
    GlobalModel,
    LineParams,
    NetworkSpec,
    build_global,
    droop_ohms,
    partition_agent,
)
from .sim import (
    AttackSpec,
    LoadSegment,
    NoiseConfig,
    ScenarioConfig,
    Seeds,
    SimulationTrace,
    SourceStep,
    lift_received_inputs,
    run_scenario,
    sample_noise,
    validate_config,
)
from .uio import (
    AgentModel,
    ObserverGains,
    ObserverState,
    Residual,
    discretize_agent,
    gain_step,
    init_observer,
    observer_step,
    structural_gains,
)

__version__ = "0.1.0"

__all__ = [
    "AgentModel",
    "AgentModelContinuous",
    "AttackSpec",
    "BusParams",
    "Coupling",
    "DcmgError",
    "DecouplingInfeasible",
    "DetectionEvent",
    "DetectorConfig",
    "DimensionMismatch",
    "DiscreteModel",
    "GlobalModel",
    "InvalidAgent",
    "InvalidTopology",
    "LineParams",
    "LoadSegment",
    "NegativeVariance",
    "NetworkSpec",
    "NoiseConfig",
    "NonFinite",
    "NonPositiveInput",
    "NonSquare",
    "ObserverGains",
    "ObserverState",
    "ParseError",
    "RankDeficient",
    "Residual",
    "ScenarioConfig",
    "Seeds",
    "SimulationTrace",
    "SingularInnovation",
    "SourceStep",
    "UnknownComponent",
    "ValidationError",
    "build_global",
    "discretize_agent",
    "discretize_zoh",
    "droop_ohms",
    "ewma_statistic",
    "gain_step",
    "init_observer",
    "left_pinv",
    "lift_received_inputs",
    "matrix_exponential",
    "monitor",
    "observer_step",
    "partition_agent",
    "run_scenario",
    "sample_noise",
    "structural_gains",
    "validate_config",
]
