"""Sensor nodes, positions, and scenario configuration.

Everything here is an immutable value type: a topology is data, and the
rest of the package treats it as read-only. This module also holds the
argument rules the other modules share (`_require_*`), so each rule and
its message are written once.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError, SenseGridError


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

# The two routing strategies a scenario runs: grid-clustered and flat radio.
QCPS = "qcps"
FLAT = "flat"
STRATEGIES = (QCPS, FLAT)


def _require_type(value: object, cls: type | tuple, name: str, error: type[SenseGridError]) -> None:
    """Reject a whole argument that is not an instance of cls, a class or a
    tuple of classes named in order ("expected a tuple or list")."""
    if not isinstance(value, cls):
        *rest, last = [c.__name__ for c in cls] if isinstance(cls, tuple) else [cls.__name__]
        kinds = f"{', '.join(rest)} or {last}" if rest else last
        raise error(f"{name}: expected a {kinds}, got {type(value).__name__}")


def _require_count(value: object, name: str, error: type[SenseGridError]) -> None:
    """Reject anything but a non-negative, non-bool int."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise error(f"{name}: expected a non-negative integer")


def _require_real(value: float, name: str) -> None:
    """Reject anything but an int or a float; a bool is not a number, as
    in the JSON layer, so what a value type accepts its file form can hold."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: expected a number")


def _require_finite(value: float, name: str) -> None:
    """Reject non-numbers, infinities, NaN and integers too large for a float."""
    _require_real(value, name)
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ConfigError(f"{name}: too large for a float") from None
    if not finite:
        raise ConfigError(f"{name}: must be finite")


def _require_positive(value: float, name: str) -> None:
    """Reject non-numbers and numbers that are not above 0 (NaN included)."""
    _require_real(value, name)
    if not value > 0:
        raise ConfigError(f"{name}: must be positive")


def _finite_floats(x: object, y: object, z: object) -> bool:
    """Whether x, y and z are floats with a finite sum, so each is finite:
    the one test that lets a check of a point skip its per-axis checks."""
    return type(x) is type(y) is type(z) is float and math.isfinite(x + y + z)


def _require_override(
    sensor_type: SensorType, node_id: object, by_id: dict, prefix: str
) -> None:
    """Reject an override of a type's coordinator that names no sensor in
    by_id, or a sensor of another type."""
    node = by_id.get(node_id) if isinstance(node_id, str) else None
    if node is None:
        raise ConfigError(f"{prefix}.{sensor_type.value}: unknown sensor {node_id!r}")
    if node.sensor_type is not sensor_type:
        raise ConfigError(
            f"{prefix}.{sensor_type.value}: {node_id!r} is a {node.sensor_type.value} sensor"
        )


def _encodable(text: str) -> bool:
    """Whether UTF-8 can encode text, which fails only on a lone surrogate."""
    if not text.isascii():
        try:
            text.encode()
        except UnicodeEncodeError:
            return False
    return True


@dataclass(frozen=True)
class Position:
    """A point in abstract 3-D length units; all components must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not _finite_floats(self.x, self.y, self.z):
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
        if not _encodable(self.node_id):
            raise ConfigError(f"sensor id {self.node_id!r} is not encodable as UTF-8")
        if not isinstance(self.sensor_type, SensorType):
            raise ConfigError(f"sensor {self.node_id!r}: sensor_type: expected a SensorType")
        if not isinstance(self.position, Position):
            raise ConfigError(f"sensor {self.node_id!r}: position: expected a Position")


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
        for name in (f.name for f in dataclasses.fields(self)):
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
        _require_count(self.duration_ticks, "duration_ticks", ConfigError)
        _require_count(self.seed, "seed", ConfigError)
        if self.seed >= 2**64:
            raise ConfigError("seed: must fit in 64 unsigned bits")
        for name in ("threshold", "segment_length"):
            _require_finite(getattr(self, name), name)
            _require_positive(getattr(self, name), name)
        _require_type(self.cost_params, CostParams, "cost_params", ConfigError)
        _require_type(self.sensors, (tuple, list), "sensors", ConfigError)
        by_id: dict[str, SensorNode] = {}
        for i, s in enumerate(self.sensors):
            if not isinstance(s, SensorNode):
                raise ConfigError(f"sensors[{i}]: expected a SensorNode")
            if s.node_id in by_id:
                raise ConfigError(f"sensors[{i}].id: duplicate id {s.node_id!r}")
            if s.node_id in _RESERVED_IDS:
                raise ConfigError(f"sensors[{i}].id: {s.node_id!r} is a reserved site name")
            by_id[s.node_id] = s
        _require_type(self.coordinator_overrides, dict, "coordinator_overrides", ConfigError)
        for sensor_type, node_id in self.coordinator_overrides.items():
            if not isinstance(sensor_type, SensorType):
                raise ConfigError(
                    f"coordinator_overrides: key {sensor_type!r} is not a SensorType"
                )
            _require_override(sensor_type, node_id, by_id, "coordinator_overrides")

    def by_id(self) -> dict[str, SensorNode]:
        return {s.node_id: s for s in self.sensors}


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two 3-D positions.

    Position already guarantees finite components. The naive sqrt-of-squares
    form is used deliberately: every distance in grids, elections and costs
    rounds the same way, and it never falls below sqrt(dx*dx), which the
    grid sweep relies on. Float squares that overflow give inf; integer
    squares no float holds raise ConfigError. Only a failing call checks a and b.
    """
    try:
        dx = a.x - b.x
        dy = a.y - b.y
        dz = a.z - b.z
        return math.sqrt(dx * dx + dy * dy + dz * dz)
    except OverflowError:
        raise ConfigError("distance: too large for a float") from None
    except (AttributeError, TypeError):
        _require_type(a, Position, "a", ConfigError)
        _require_type(b, Position, "b", ConfigError)
        raise


# ---------------------------------------------------------------------------
# Config file loading / dumping
# ---------------------------------------------------------------------------

# Keys in schema order, so a config missing several fields names the first
_TOP_KEYS = tuple(f.name for f in dataclasses.fields(ScenarioConfig))
_REQUIRED_TOP_KEYS = tuple(key for key in _TOP_KEYS if key != "coordinator_overrides")
_SENSOR_KEYS = ("id", "type", "x", "y", "z")
_SENSOR_KEY_SET = frozenset(_SENSOR_KEYS)
_COST_KEYS = tuple(f.name for f in dataclasses.fields(CostParams))


def _require_number(obj: dict, key: str, path: str) -> float:
    value = obj.get(key)
    _require_finite(value, f"{path}.{key}")
    if float(value) != value:  # an int beyond 2**53 that no float holds
        raise ConfigError(f"{path}.{key}: not exactly representable as a float")
    return float(value)


def _check_keys(obj: dict, allowed: tuple[str, ...], required: tuple[str, ...], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}: missing field")


def _check_sensor(entry: object, path: str) -> None:
    """Raise the ConfigError naming the first fault of one sensor entry.

    This is the only check of a sensor entry. It skips `_check_keys` when
    the keys are exactly the schema's, and `_require_number` when x, y and
    z are floats with a finite sum. Both pass on such an entry, so the
    common entry costs a few type tests, and any other gets the same error
    in the same order.
    """
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: expected an object")
    if entry.keys() != _SENSOR_KEY_SET:
        _check_keys(entry, _SENSOR_KEYS, _SENSOR_KEYS, path)
    node_id = entry["id"]
    if not isinstance(node_id, str) or not node_id:
        raise ConfigError(f"{path}.id: expected a non-empty string")
    if not _encodable(node_id):
        raise ConfigError(f"{path}.id: {node_id!r} is not encodable as UTF-8")
    type_name = entry["type"]
    if not isinstance(type_name, str) or type_name not in _TYPE_BY_NAME:
        raise ConfigError(
            f"{path}.type: expected one of {sorted(_TYPE_BY_NAME)}, got {type_name!r}"
        )
    if not _finite_floats(entry["x"], entry["y"], entry["z"]):
        for axis in ("x", "y", "z"):
            _require_number(entry, axis, path)


def _load_object(text: str, name: str, error: type[SenseGridError]) -> dict:
    """The JSON object in `text` (a str, bytes or bytearray); `name` starts each
    error. A key repeated in any object raises instead of keeping its last value."""

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise error(f"{name}: repeated field {key!r}")
                seen.add(key)
        return obj

    _require_type(text, (str, bytes, bytearray), name, error)
    try:
        raw = json.loads(text, object_pairs_hook=unique_keys)
    # ValueError, JSONDecodeError's base, is also an int past the digit limit
    except (ValueError, RecursionError) as exc:  # or nested too deeply
        raise error(f"{name} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise error(f"{name}: expected a JSON object")
    return raw


def load_topology(config_text: str) -> ScenarioConfig:
    """Parse and validate a scenario config from its JSON text form.

    Unknown and repeated fields are rejected, each error names its field,
    and the result round-trips exactly through dump_topology.
    """
    raw = _load_object(config_text, "config", ConfigError)
    _check_keys(raw, _TOP_KEYS, _REQUIRED_TOP_KEYS, "config")

    if not isinstance(raw["sensors"], list):
        raise ConfigError("config.sensors: expected an array")
    sensors: list[SensorNode] = []
    for i, entry in enumerate(raw["sensors"]):
        _check_sensor(entry, f"config.sensors[{i}]")
        position = Position(float(entry["x"]), float(entry["y"]), float(entry["z"]))
        sensors.append(SensorNode(entry["id"], _TYPE_BY_NAME[entry["type"]], position))

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
    _require_type(cfg, ScenarioConfig, "cfg", ConfigError)
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
