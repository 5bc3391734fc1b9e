"""Sensor nodes, positions, and scenario configuration.

Everything here is an immutable value type: a topology is data, and the
rest of the package treats it as read-only.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError


class SensorType(enum.Enum):
    """The four kinds of sensors a scenario may deploy."""

    VISION = "vision"
    SPEED = "speed"
    ENVIRONMENT = "environment"
    MISCELLANEOUS = "miscellaneous"


_TYPE_BY_NAME = {t.value: t for t in SensorType}

# Non-sensor message endpoints and compute sites; no sensor may take these ids.
CLOUD_SITE = "cloud"
USER_SITE = "user"
GATEWAY_SITE = "gateway"
_RESERVED_IDS = frozenset({CLOUD_SITE, USER_SITE, GATEWAY_SITE})


def _require_finite(value: float, name: str) -> None:
    """Reject infinities, NaN and integers too large for a float."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ConfigError(f"{name}: too large for a float") from None
    if not finite:
        raise ConfigError(f"{name}: must be finite")


@dataclass(frozen=True)
class Position:
    """A point in abstract 3-D length units; all components must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for axis in ("x", "y", "z"):
            _require_finite(getattr(self, axis), f"position.{axis}")


@dataclass(frozen=True)
class SensorNode:
    node_id: str
    sensor_type: SensorType
    position: Position

    def __post_init__(self) -> None:
        if not isinstance(self.node_id, str) or not self.node_id:
            raise ConfigError("sensor id must be a non-empty string")


@dataclass(frozen=True)
class CostParams:
    """Unit prices for the cost model; all non-negative.

    Wireless messages are priced per unit of radio distance; infrastructure
    messages (coordinator/base-station/cloud and user/cloud links) are priced
    per message; computation is priced per operation regardless of site.
    """

    wireless_cost_per_unit_distance: float = 1.0
    infra_message_cost: float = 1.0
    computation_op_cost: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "wireless_cost_per_unit_distance",
            "infra_message_cost",
            "computation_op_cost",
        ):
            _require_finite(getattr(self, name), f"cost_params.{name}")
            if getattr(self, name) < 0:
                raise ConfigError(f"cost_params.{name}: must be non-negative")


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated simulation scenario.

    ``coordinator_overrides`` pins the coordinator of the grid containing the
    named node, bypassing medoid election for that grid.
    """

    sensors: tuple[SensorNode, ...]
    threshold: float
    cost_params: CostParams = CostParams()
    segment_length: float = 600.0
    duration_ticks: int = 100
    seed: int = 42
    coordinator_overrides: dict[SensorType, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("duration_ticks", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name}: expected an integer")
        _require_finite(self.threshold, "threshold")
        if not self.threshold > 0:
            raise ConfigError("threshold: must be positive")
        _require_finite(self.segment_length, "segment_length")
        if not self.segment_length > 0:
            raise ConfigError("segment_length: must be positive")
        if self.duration_ticks < 0:
            raise ConfigError("duration_ticks: must be non-negative")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed: must fit in 64 unsigned bits")
        seen: set[str] = set()
        for i, s in enumerate(self.sensors):
            if s.node_id in seen:
                raise ConfigError(f"sensors[{i}].id: duplicate id {s.node_id!r}")
            if s.node_id in _RESERVED_IDS:
                raise ConfigError(f"sensors[{i}].id: {s.node_id!r} is a reserved site name")
            seen.add(s.node_id)
        if not isinstance(self.coordinator_overrides, dict):
            raise ConfigError("coordinator_overrides: expected a dict")
        for sensor_type, node_id in self.coordinator_overrides.items():
            if not isinstance(sensor_type, SensorType):
                raise ConfigError(
                    f"coordinator_overrides: key {sensor_type!r} is not a SensorType"
                )
            node = self.find(node_id)
            if node is None:
                raise ConfigError(
                    f"coordinator_overrides.{sensor_type.value}: unknown sensor {node_id!r}"
                )
            if node.sensor_type is not sensor_type:
                raise ConfigError(
                    f"coordinator_overrides.{sensor_type.value}: "
                    f"{node_id!r} is a {node.sensor_type.value} sensor"
                )

    def find(self, node_id: str) -> SensorNode | None:
        for s in self.sensors:
            if s.node_id == node_id:
                return s
        return None

    def by_id(self) -> dict[str, SensorNode]:
        return {s.node_id: s for s in self.sensors}


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two 3-D positions.

    Position already guarantees finite components. The naive sqrt-of-squares
    form is used deliberately: every distance in grids, elections and costs
    rounds the same way, and it never falls below sqrt(dx*dx), which the
    grid sweep relies on. Float squares that overflow give inf; integer
    squares no float holds raise ConfigError.
    """
    dx = a.x - b.x
    dy = a.y - b.y
    dz = a.z - b.z
    try:
        return math.sqrt(dx * dx + dy * dy + dz * dz)
    except OverflowError:
        raise ConfigError("distance: too large for a float") from None


# ---------------------------------------------------------------------------
# Config file loading / dumping
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "sensors",
    "threshold",
    "cost_params",
    "segment_length",
    "duration_ticks",
    "seed",
    "coordinator_overrides",
}
_REQUIRED_TOP_KEYS = _TOP_KEYS - {"coordinator_overrides"}
_SENSOR_KEYS = {"id", "type", "x", "y", "z"}
_COST_KEYS = {
    "wireless_cost_per_unit_distance",
    "infra_message_cost",
    "computation_op_cost",
}


def _require_number(obj: dict, key: str, path: str) -> float:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    _require_finite(value, f"{path}.{key}")
    if float(value) != value:  # an int beyond 2**53 that no float holds
        raise ConfigError(f"{path}.{key}: not exactly representable as a float")
    return float(value)


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}: missing field")


def load_topology(config_text: str) -> ScenarioConfig:
    """Parse and validate a scenario config from its JSON text form.

    Unknown fields are rejected, every error names the offending field path,
    and the result round-trips exactly through dump_topology.
    """
    try:
        raw = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    _check_keys(raw, _TOP_KEYS, _REQUIRED_TOP_KEYS, "config")

    if not isinstance(raw["sensors"], list):
        raise ConfigError("config.sensors: expected an array")
    sensors: list[SensorNode] = []
    for i, entry in enumerate(raw["sensors"]):
        path = f"config.sensors[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: expected an object")
        _check_keys(entry, _SENSOR_KEYS, _SENSOR_KEYS, path)
        node_id = entry["id"]
        if not isinstance(node_id, str) or not node_id:
            raise ConfigError(f"{path}.id: expected a non-empty string")
        type_name = entry["type"]
        if not isinstance(type_name, str) or type_name not in _TYPE_BY_NAME:
            raise ConfigError(
                f"{path}.type: expected one of {sorted(_TYPE_BY_NAME)}, got {type_name!r}"
            )
        position = Position(
            _require_number(entry, "x", path),
            _require_number(entry, "y", path),
            _require_number(entry, "z", path),
        )
        sensors.append(SensorNode(node_id, _TYPE_BY_NAME[type_name], position))

    threshold = _require_number(raw, "threshold", "config")

    cost_raw = raw["cost_params"]
    if not isinstance(cost_raw, dict):
        raise ConfigError("config.cost_params: expected an object")
    _check_keys(cost_raw, _COST_KEYS, _COST_KEYS, "config.cost_params")
    costs = {
        key: _require_number(cost_raw, key, "config.cost_params") for key in sorted(_COST_KEYS)
    }

    segment_length = _require_number(raw, "segment_length", "config")
    overrides: dict[SensorType, str] = {}
    if "coordinator_overrides" in raw:
        raw_overrides = raw["coordinator_overrides"]
        if not isinstance(raw_overrides, dict):
            raise ConfigError("config.coordinator_overrides: expected an object")
        for type_name, node_id in raw_overrides.items():
            if type_name not in _TYPE_BY_NAME:
                raise ConfigError(
                    f"config.coordinator_overrides.{type_name}: unknown sensor type"
                )
            if not isinstance(node_id, str):
                raise ConfigError(
                    f"config.coordinator_overrides.{type_name}: expected a sensor id"
                )
            overrides[_TYPE_BY_NAME[type_name]] = node_id

    # the value types validate integer fields, ranges, ids and overrides;
    # their errors name the field relative to the config root
    try:
        return ScenarioConfig(
            sensors=tuple(sensors),
            threshold=threshold,
            cost_params=CostParams(**costs),
            segment_length=segment_length,
            duration_ticks=raw["duration_ticks"],
            seed=raw["seed"],
            coordinator_overrides=overrides,
        )
    except ConfigError as exc:
        raise ConfigError(f"config.{exc}") from None


def config_payload(cfg: ScenarioConfig) -> dict:
    """The JSON-ready form of a config that load_topology accepts."""
    payload = {
        "sensors": [
            {
                "id": s.node_id,
                "type": s.sensor_type.value,
                "x": s.position.x,
                "y": s.position.y,
                "z": s.position.z,
            }
            for s in cfg.sensors
        ],
        "threshold": cfg.threshold,
        "cost_params": dataclasses.asdict(cfg.cost_params),
        "segment_length": cfg.segment_length,
        "duration_ticks": cfg.duration_ticks,
        "seed": cfg.seed,
    }
    if cfg.coordinator_overrides:
        payload["coordinator_overrides"] = {
            t.value: node_id for t, node_id in cfg.coordinator_overrides.items()
        }
    return payload


def dump_topology(cfg: ScenarioConfig) -> str:
    """Serialize a config to JSON so that load_topology(dump_topology(c)) == c."""
    return json.dumps(config_payload(cfg), indent=2)


# ---------------------------------------------------------------------------
# Built-in 16-node reference testbed
# ---------------------------------------------------------------------------

# MS_1's coordinate is missing from the original deployment record; the value
# here is a synthetic placeholder, and location-based assertions should skip
# the ids listed in TESTBED_PLACEHOLDER_IDS.
TESTBED_PLACEHOLDER_IDS = frozenset({"MS_1"})

_TESTBED_NODES: tuple[tuple[str, SensorType, tuple[float, float, float]], ...] = (
    ("VS_1", SensorType.VISION, (5, 45, 48)),
    ("VS_2", SensorType.VISION, (85, 43, 75)),
    ("VS_3", SensorType.VISION, (38, 35, 12)),
    ("VS_4", SensorType.VISION, (89, 56, 23)),
    ("SS_1", SensorType.SPEED, (7, 36, 10)),
    ("SS_2", SensorType.SPEED, (94, 47, 80)),
    ("SS_3", SensorType.SPEED, (16, 35, 67)),
    ("SS_4", SensorType.SPEED, (42, 29, 63)),
    ("ES_1", SensorType.ENVIRONMENT, (37, 41, 15)),
    ("ES_2", SensorType.ENVIRONMENT, (104, 35, 24)),
    ("ES_3", SensorType.ENVIRONMENT, (33, 48, 56)),
    ("ES_4", SensorType.ENVIRONMENT, (86, 39, 74)),
    ("MS_1", SensorType.MISCELLANEOUS, (60, 40, 30)),  # placeholder position
    ("MS_2", SensorType.MISCELLANEOUS, (58, 37, 23)),
    ("MS_3", SensorType.MISCELLANEOUS, (47, 44, 46)),
    ("MS_4", SensorType.MISCELLANEOUS, (99, 38, 75)),
)


def builtin_testbed() -> ScenarioConfig:
    """The bundled 16-node testbed: four sensors of each type.

    Defaults: threshold 100, seed 42, 100 ticks, segment length 600.
    """
    sensors = tuple(
        SensorNode(node_id, sensor_type, Position(float(x), float(y), float(z)))
        for node_id, sensor_type, (x, y, z) in _TESTBED_NODES
    )
    return ScenarioConfig(sensors=sensors, threshold=100.0)
