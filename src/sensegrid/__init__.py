"""sensegrid: a deterministic simulator for grid-clustered sensor networks.

Same-type sensors within a distance threshold cluster into grids, each grid
elects a medoid coordinator, readings flow coordinator-first into per-type
cloud databases, and centric user queries are answered from the cloud. A
flat direct-radio baseline runs the same workload for cost comparison.

Importing the package loads none of its submodules: each public name is
imported from its submodule on first use (PEP 562), so a command loads
only the modules it runs.
"""

import importlib

TOOL_VERSION = __version__ = "0.1.0"

# Each library submodule and the public names the package takes from it.
_EXPORTS = {
    "cloud": (
        "CentricQuery", "Cloud", "CloudDatabase", "CongestionThresholds", "EstimationReport",
        "Reading", "Service", "answer_centric_query", "database_for", "estimate_congestion",
        "estimate_environment", "estimate_road_condition", "estimate_velocity_travel_time",
    ),
    "errors": (
        "ConfigError", "OverrideError", "QueryError", "RoutingError", "SenseGridError",
        "WorkloadError", "WrongDatabaseError",
    ),
    "grids": ("Grid", "GridSet", "form_grids"),
    "report": ("build_run_report", "canonical_json", "serialize_trace"),
    "simulate": (
        "CostComparison", "CostReport", "Message", "SimulationTrace", "compare_strategies",
        "cost_of", "route_sensor_request", "route_user_query", "run_scenario",
    ),
    "topology": (
        "FLAT", "QCPS", "CostParams", "Position", "ScenarioConfig", "SensorNode", "SensorType",
        "TESTBED_PLACEHOLDER_IDS", "builtin_testbed", "distance", "dump_topology",
        "load_topology",
    ),
    "workload": (
        "ReadingRanges", "Workload", "generate_reading", "generate_workload", "load_workload",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "TOOL_VERSION"])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
