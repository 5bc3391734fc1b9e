"""sensegrid: a deterministic simulator for grid-clustered sensor networks.

Same-type sensors within a distance threshold cluster into grids, each grid
elects a medoid coordinator, readings flow coordinator-first into per-type
cloud databases, and centric user queries are answered from the cloud. A
flat direct-radio baseline runs the same workload for cost comparison.
"""

from .cloud import (
    CentricQuery,
    Cloud,
    CloudDatabase,
    CongestionThresholds,
    EstimationReport,
    Reading,
    Service,
    answer_centric_query,
    database_for,
    estimate_congestion,
    estimate_environment,
    estimate_road_condition,
    estimate_velocity_travel_time,
)
from .errors import (
    ConfigError,
    OverrideError,
    QueryError,
    RoutingError,
    SenseGridError,
    WorkloadError,
    WrongDatabaseError,
)
from .grids import Grid, GridSet, form_grids
from .report import TOOL_VERSION, build_run_report, canonical_json, serialize_trace
from .simulate import (
    FLAT,
    QCPS,
    CostComparison,
    CostReport,
    Message,
    SimulationTrace,
    compare_strategies,
    cost_of,
    route_sensor_request,
    route_user_query,
    run_scenario,
)
from .topology import (
    CostParams,
    Position,
    ScenarioConfig,
    SensorNode,
    SensorType,
    TESTBED_PLACEHOLDER_IDS,
    builtin_testbed,
    distance,
    dump_topology,
    load_topology,
)
from .workload import (
    ReadingRanges,
    Workload,
    generate_reading,
    generate_workload,
    load_workload,
)

__version__ = TOOL_VERSION

__all__ = [
    "CentricQuery",
    "Cloud",
    "CloudDatabase",
    "CongestionThresholds",
    "ConfigError",
    "CostComparison",
    "CostParams",
    "CostReport",
    "EstimationReport",
    "FLAT",
    "Grid",
    "GridSet",
    "Message",
    "OverrideError",
    "Position",
    "QCPS",
    "QueryError",
    "Reading",
    "ReadingRanges",
    "RoutingError",
    "ScenarioConfig",
    "SenseGridError",
    "SensorNode",
    "SensorType",
    "Service",
    "SimulationTrace",
    "TESTBED_PLACEHOLDER_IDS",
    "TOOL_VERSION",
    "Workload",
    "WorkloadError",
    "WrongDatabaseError",
    "answer_centric_query",
    "build_run_report",
    "builtin_testbed",
    "canonical_json",
    "compare_strategies",
    "cost_of",
    "database_for",
    "distance",
    "dump_topology",
    "estimate_congestion",
    "estimate_environment",
    "estimate_road_condition",
    "estimate_velocity_travel_time",
    "form_grids",
    "generate_reading",
    "generate_workload",
    "load_topology",
    "load_workload",
    "route_sensor_request",
    "route_user_query",
    "run_scenario",
    "serialize_trace",
]
