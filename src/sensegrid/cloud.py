"""Cloud-side storage and the four estimation services.

The cloud keeps one database per sensor type (VDB, SDB, EDB, MDB) with one
append-only table per sensor. The service catalogue, `_SERVICES`, is the
one place that pairs each service with the sensor type that answers it,
that type's payload class and database, and the service's result type.
A payload checks each field's kind and range with `_PAYLOAD_CHECKS`.
Estimators are pure reads over a tick window; an empty window is a flagged
absence, never an error. Each estimator's formula is one function over the
window's payload columns, and `_answer` is the one rule from a query to its
report: service to sensor type, formula, `EstimationReport`. Its callers
differ only in their column source: `answer_centric_query` reads a
`Cloud`'s databases, and the simulator's answer path reads generated
column batches.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields

from .errors import ConfigError, QueryError, WrongDatabaseError
from .topology import SensorType, _require_count, _require_positive, _require_real, _require_type


# ---------------------------------------------------------------------------
# Readings
# ---------------------------------------------------------------------------

class _Payload:
    """Base of the four payload types: a payload applies its type's
    `_PAYLOAD_CHECKS` to its own fields and raises the first that fails."""

    def __post_init__(self) -> None:
        values = tuple(vars(self).values())  # field order
        for index, holds, message in _PAYLOAD_CHECKS[type(self)]:
            if not holds(values[index]):
                raise ConfigError(message)


@dataclass(frozen=True)
class VisionPayload(_Payload):
    lane_count: int
    distorted: bool


@dataclass(frozen=True)
class SpeedPayload(_Payload):
    vehicle_speed: float  # distance-units per tick


@dataclass(frozen=True)
class EnvironmentPayload(_Payload):
    temperature: float
    humidity: float
    light: float


@dataclass(frozen=True)
class MiscPayload(_Payload):
    vehicle_count: int
    crash: bool


Payload = VisionPayload | SpeedPayload | EnvironmentPayload | MiscPayload


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_bool(value: object) -> bool:
    return type(value) is bool


_FLOAT_MAX = sys.float_info.max


def _fits_a_float(number: float) -> bool:
    """Whether a number is a float, inf and NaN included, or an int a float holds."""
    return isinstance(number, float) or -_FLOAT_MAX <= number <= _FLOAT_MAX


# Each payload type's checks, in the order a payload applies them: the index
# of the checked field, a test that holds for an accepted value, and the
# error message. A field's kind is checked before its range, so a range test
# only sees a number, and an int too large for a float is rejected, as a
# mean could not be taken of it.
_PAYLOAD_CHECKS = {
    VisionPayload: (
        (0, lambda v: type(v) is int and v in (1, 2), "lane_count: must be 1 or 2"),
        (1, _is_bool, "distorted: expected a bool"),
    ),
    SpeedPayload: (
        (0, _is_number, "vehicle_speed: expected a number"),
        (0, lambda v: v > 0, "vehicle_speed: must be positive"),
        (0, _fits_a_float, "vehicle_speed: too large for a float"),
    ),
    EnvironmentPayload: (
        (0, _is_number, "temperature: expected a number"),
        (0, _fits_a_float, "temperature: too large for a float"),
        (1, _is_number, "humidity: expected a number"),
        (1, lambda v: 0 <= v <= 100, "humidity: must lie in [0, 100]"),
        (2, _is_number, "light: expected a number"),
        (2, lambda v: not v < 0, "light: must be non-negative"),
        (2, _fits_a_float, "light: too large for a float"),
    ),
    MiscPayload: (
        (0, lambda v: type(v) is int, "vehicle_count: expected an integer"),
        (0, lambda v: v >= 0, "vehicle_count: must be non-negative"),
        (0, _fits_a_float, "vehicle_count: too large for a float"),
        (1, _is_bool, "crash: expected a bool"),
    ),
}


def _check_payload_columns(payload_type: type, columns: Sequence[Sequence]) -> None:
    """Raise the `ConfigError` that building the rows as payloads of this type,
    in row order, would raise first; columns are in field order. The scan
    only finds that some row fails; the payloads then say which error."""
    for index, holds, _ in _PAYLOAD_CHECKS[payload_type]:
        if not all(map(holds, columns[index])):
            for row in zip(*columns):
                payload_type(*row)


@dataclass(frozen=True)
class Reading:
    sensor_id: str
    tick: int
    payload: Payload

    def __post_init__(self) -> None:
        if not isinstance(self.sensor_id, str) or not self.sensor_id:
            raise ConfigError("reading sensor_id: expected a non-empty string")
        _require_count(self.tick, "reading tick", ConfigError)
        if not isinstance(self.payload, Payload):
            raise ConfigError(
                f"reading payload: expected a Payload, got {type(self.payload).__name__}"
            )


# ---------------------------------------------------------------------------
# Databases
# ---------------------------------------------------------------------------

def database_for(sensor_type: SensorType) -> str:
    """Name of the cloud database holding a sensor type's data."""
    _require_type(sensor_type, SensorType, "sensor_type", ConfigError)
    return _DB_NAME[sensor_type]


class CloudDatabase:
    """Per-type database: a table (append-only reading list) per sensor."""

    def __init__(self, sensor_type: SensorType):
        self.sensor_type = sensor_type
        self.name = database_for(sensor_type)
        self.tables: dict[str, list[Reading]] = {}

    def ingest(self, reading: Reading) -> None:
        """Append a reading to its sensor's table, creating the table lazily."""
        _require_type(reading, Reading, "reading", WrongDatabaseError)
        if not isinstance(reading.payload, PAYLOAD_TYPE[self.sensor_type]):
            raise WrongDatabaseError(
                f"{self.name} stores {self.sensor_type.value} readings, "
                f"got {type(reading.payload).__name__}"
            )
        self.tables.setdefault(reading.sensor_id, []).append(reading)


class Cloud:
    """All four databases plus routing of readings by payload variant."""

    def __init__(self) -> None:
        self.databases: dict[SensorType, CloudDatabase] = {
            t: CloudDatabase(t) for t in SensorType
        }

    def ingest(self, reading: Reading) -> None:
        _require_type(reading, Reading, "reading", WrongDatabaseError)
        for sensor_type, payload_cls in PAYLOAD_TYPE.items():
            if isinstance(reading.payload, payload_cls):
                self.databases[sensor_type].ingest(reading)
                return

    def db(self, sensor_type: SensorType) -> CloudDatabase:
        _require_type(sensor_type, SensorType, "sensor_type", ConfigError)
        return self.databases[sensor_type]


# ---------------------------------------------------------------------------
# Services and queries
# ---------------------------------------------------------------------------

class Service(enum.Enum):
    ROAD_CONDITION = "road_condition"
    VELOCITY_TRAVEL_TIME = "velocity_travel_time"
    ENVIRONMENT = "environment"
    CONGESTION = "congestion"


_SERVICE_BY_NAME = {s.value: s for s in Service}


def service_from_name(name: str) -> Service:
    if isinstance(name, str) and name in _SERVICE_BY_NAME:
        return _SERVICE_BY_NAME[name]
    # a non-str is named by its type: the repr of an int past the digit limit raises
    shown = repr(name) if isinstance(name, str) else f"of type {type(name).__name__}"
    raise QueryError(f"unknown service {shown}; expected one of {sorted(_SERVICE_BY_NAME)}")


@dataclass(frozen=True)
class CentricQuery:
    """One query whose answer spans the requested services over a tick window."""

    query_id: str
    requested_services: tuple[Service, ...]
    window: tuple[int, int]

    def __post_init__(self) -> None:
        if not isinstance(self.query_id, str) or not self.query_id:
            raise QueryError("query_id: expected a non-empty string")
        prefix = f"query {self.query_id}: "
        _require_type(self.requested_services, tuple, prefix + "requested_services", QueryError)
        if not self.requested_services:
            raise QueryError(prefix + "requested_services must be non-empty")
        for service in self.requested_services:
            if not isinstance(service, Service):
                raise QueryError(f"{prefix}requested_services: {service!r} is not a Service")
        if len(set(self.requested_services)) != len(self.requested_services):
            raise QueryError(prefix + "duplicate service requested")
        _require_window(self.window, prefix)


def _require_window(window: object, prefix: str) -> None:
    """The one window rule: a pair of non-bool integer ticks, 0 <= from <= to.
    The prefix leads its `QueryError` message."""
    if not (
        isinstance(window, tuple)
        and len(window) == 2
        and all(isinstance(t, int) and not isinstance(t, bool) for t in window)
    ):
        raise QueryError(f"{prefix}window must be a pair of integer ticks")
    start, end = window
    if start < 0 or start > end:
        raise QueryError(f"{prefix}window must satisfy 0 <= from <= to")


@dataclass(frozen=True)
class CongestionThresholds:
    """Mean vehicle count at or below low_max is low, at or below medium_max
    is medium, anything above is high."""

    low_max: float = 5.0
    medium_max: float = 15.0

    def __post_init__(self) -> None:
        for f in fields(self):
            _require_real(getattr(self, f.name), f"congestion thresholds.{f.name}")
        if not 0 <= self.low_max < self.medium_max:
            raise ConfigError("congestion thresholds: need 0 <= low_max < medium_max")


# (test, what it expects) of each field of a result with data: a mean is
# any number, as an infinite reading's mean may be inf
_A_NUMBER = (_is_number, "a number")
_RESULT_RULES = {
    "distorted_fraction": (lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "dominant_lane_count": (lambda v: type(v) is int and v in (1, 2), "1 or 2"),
    "congestion_level": (
        lambda v: isinstance(v, str) and v in ("low", "medium", "high"),
        "'low', 'medium' or 'high'",
    ),
    "any_crash": (_is_bool, "a bool"),
}
_NO_DATA = (lambda v: v is None, "None without data")


class _Result:
    """Base of the four result types: `data_available` is a bool, and every
    other field is None without data and holds what `_RESULT_RULES` expects
    with it. The first field that fails raises a ConfigError naming the
    field and the service whose row in `_SERVICES` has this result type."""

    def __post_init__(self) -> None:
        service = _RESULT_SERVICE[type(self)].value
        if type(self.data_available) is not bool:
            raise ConfigError(f"{service}.data_available: expected a bool")
        for f in fields(self)[1:]:
            rule = _RESULT_RULES.get(f.name, _A_NUMBER) if self.data_available else _NO_DATA
            holds, expected = rule
            if not holds(getattr(self, f.name)):
                raise ConfigError(f"{service}.{f.name}: expected {expected}")


@dataclass(frozen=True)
class RoadConditionResult(_Result):
    data_available: bool
    distorted_fraction: float | None = None
    dominant_lane_count: int | None = None


@dataclass(frozen=True)
class VelocityTravelTimeResult(_Result):
    data_available: bool
    mean_speed: float | None = None
    travel_time_ticks: float | None = None


@dataclass(frozen=True)
class EnvironmentResult(_Result):
    data_available: bool
    mean_temperature: float | None = None
    mean_humidity: float | None = None
    mean_light: float | None = None


@dataclass(frozen=True)
class CongestionResult(_Result):
    data_available: bool
    mean_vehicle_count: float | None = None
    congestion_level: str | None = None
    any_crash: bool | None = None


SectionResult = (
    RoadConditionResult | VelocityTravelTimeResult | EnvironmentResult | CongestionResult
)


# The service catalogue, one row per service: the sensor type whose cloud
# database answers it, that type's payload class and database name, and the
# service's result type. Every other map between these is derived from it.
_SERVICES = {
    Service.ROAD_CONDITION: (SensorType.VISION, VisionPayload, "VDB", RoadConditionResult),
    Service.VELOCITY_TRAVEL_TIME: (SensorType.SPEED, SpeedPayload, "SDB", VelocityTravelTimeResult),
    Service.ENVIRONMENT: (SensorType.ENVIRONMENT, EnvironmentPayload, "EDB", EnvironmentResult),
    Service.CONGESTION: (SensorType.MISCELLANEOUS, MiscPayload, "MDB", CongestionResult),
}
SERVICE_SENSOR_TYPE: dict[Service, SensorType] = {s: t for s, (t, *_) in _SERVICES.items()}
PAYLOAD_TYPE: dict[SensorType, type] = {t: payload for t, payload, _, _ in _SERVICES.values()}
_DB_NAME: dict[SensorType, str] = {t: name for t, _, name, _ in _SERVICES.values()}
_SECTION_TYPE = {s: result for s, (*_, result) in _SERVICES.items()}
_RESULT_SERVICE = {result: s for s, result in _SECTION_TYPE.items()}


@dataclass(frozen=True)
class EstimationReport:
    """One query's answer: a section per service, of that service's own
    result type. The sections are a dict, so they stay out of the hash."""

    query_id: str
    sections: dict[Service, SectionResult] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if not isinstance(self.query_id, str) or not self.query_id:
            raise ConfigError("report.query_id: expected a non-empty string")
        prefix = f"report {self.query_id}: sections"
        _require_type(self.sections, dict, prefix, ConfigError)
        for service, section in self.sections.items():
            _require_type(service, Service, prefix + " key", ConfigError)
            _require_type(section, _SECTION_TYPE[service], f"{prefix}.{service.value}", ConfigError)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------
#
# Each formula reads a window's payload columns, in payload field order, and
# does not depend on row order: counts and `any` read whole columns, and
# `_mean`, math.fsum(col) / len(col), is exactly statistics.fmean wherever
# that returns. It is the one mean, used by the estimators and by the flat
# gateway.

def _mean(column: Sequence[float]) -> float:
    try:
        return math.fsum(column) / len(column)
    except OverflowError:
        # the sum overflows, the mean does not: dividing by 2**k > n keeps
        # the sum finite and, above the subnormal range, is exact
        scale = 2 ** len(column).bit_length()
        return _mean([v / scale for v in column]) * scale
    except ValueError:  # inf and -inf, whose float sum is NaN
        return math.nan


def _road_condition(
    lane_count: Sequence[int], distorted: Sequence[bool]
) -> RoadConditionResult:
    if not lane_count:
        return RoadConditionResult(data_available=False)
    single_lane = sum(1 for lanes in lane_count if lanes == 1)
    return RoadConditionResult(
        data_available=True,
        distorted_fraction=sum(1 for d in distorted if d) / len(distorted),
        dominant_lane_count=1 if single_lane > len(lane_count) - single_lane else 2,
    )


def _velocity_travel_time(
    vehicle_speed: Sequence[float], segment_length: float
) -> VelocityTravelTimeResult:
    _require_positive(segment_length, "segment_length")
    if not vehicle_speed:
        return VelocityTravelTimeResult(data_available=False)
    mean_speed = _mean(vehicle_speed)  # positive, as every speed is
    try:
        travel_time = segment_length / mean_speed
    except OverflowError:  # an int segment_length that no float holds
        travel_time = math.inf
    if travel_time == math.inf:
        raise ConfigError("segment_length: its travel time at the mean speed overflows a float")
    return VelocityTravelTimeResult(
        data_available=True, mean_speed=mean_speed, travel_time_ticks=travel_time
    )


def _environment(
    temperature: Sequence[float], humidity: Sequence[float], light: Sequence[float]
) -> EnvironmentResult:
    if not temperature:
        return EnvironmentResult(data_available=False)
    return EnvironmentResult(
        data_available=True,
        mean_temperature=_mean(temperature),
        mean_humidity=_mean(humidity),
        mean_light=_mean(light),
    )


def _congestion(
    vehicle_count: Sequence[int], crash: Sequence[bool], thresholds: CongestionThresholds
) -> CongestionResult:
    _require_type(thresholds, CongestionThresholds, "thresholds", ConfigError)
    if not vehicle_count:
        return CongestionResult(data_available=False)
    mean_count = _mean(vehicle_count)
    if mean_count <= thresholds.low_max:
        level = "low"
    elif mean_count <= thresholds.medium_max:
        level = "medium"
    else:
        level = "high"
    return CongestionResult(
        data_available=True,
        mean_vehicle_count=mean_count,
        congestion_level=level,
        any_crash=any(crash),
    )


def _window_columns(
    db: CloudDatabase, window: tuple[int, int], sensor_type: SensorType
) -> list[list]:
    """The window's rows as one column per payload field of the sensor type
    the estimator reads, in one pass over the tables in their own order,
    which no formula depends on. A database that holds another type's
    readings is rejected; an empty one of any type reads as no data."""
    if not isinstance(db, CloudDatabase) or (db.tables and db.sensor_type is not sensor_type):
        got = db.name if isinstance(db, CloudDatabase) else type(db).__name__
        raise WrongDatabaseError(f"database: expected {database_for(sensor_type)}, got {got}")
    _require_window(window, "")
    start, end = window
    rows = [r for table in db.tables.values() for r in table if start <= r.tick <= end]
    payload_fields = fields(PAYLOAD_TYPE[sensor_type])
    return [[getattr(r.payload, f.name) for r in rows] for f in payload_fields]


def estimate_road_condition(
    vdb: CloudDatabase, window: tuple[int, int]
) -> RoadConditionResult:
    """Fraction of distorted sightings and the dominant lane count (tie -> 2)."""
    return _road_condition(*_window_columns(vdb, window, SensorType.VISION))


def estimate_velocity_travel_time(
    sdb: CloudDatabase, window: tuple[int, int], segment_length: float
) -> VelocityTravelTimeResult:
    """Mean speed over the window and the ticks needed to cross the segment."""
    return _velocity_travel_time(
        *_window_columns(sdb, window, SensorType.SPEED), segment_length
    )


def estimate_environment(
    edb: CloudDatabase, window: tuple[int, int]
) -> EnvironmentResult:
    return _environment(*_window_columns(edb, window, SensorType.ENVIRONMENT))


def estimate_congestion(
    mdb: CloudDatabase,
    window: tuple[int, int],
    thresholds: CongestionThresholds = CongestionThresholds(),
) -> CongestionResult:
    return _congestion(*_window_columns(mdb, window, SensorType.MISCELLANEOUS), thresholds)


def answer_centric_query(
    query: CentricQuery,
    cloud: Cloud,
    segment_length: float,
    thresholds: CongestionThresholds = CongestionThresholds(),
) -> EstimationReport:
    """Answer a centric query: one section per requested service, nothing more."""
    _require_type(query, CentricQuery, "query", QueryError)
    _require_type(cloud, Cloud, "cloud", WrongDatabaseError)
    _require_positive(segment_length, "segment_length")
    _require_type(thresholds, CongestionThresholds, "thresholds", ConfigError)
    return _answer(
        query, lambda t: _window_columns(cloud.db(t), query.window, t), segment_length, thresholds
    )


def _answer(
    query: CentricQuery,
    columns_of: Callable[[SensorType], Sequence[Sequence]],
    segment_length: float,
    thresholds: CongestionThresholds,
) -> EstimationReport:
    """The one query-to-report rule, over the columns `columns_of(sensor type)` gives."""
    sections: dict[Service, SectionResult] = {}
    for service in query.requested_services:
        columns = columns_of(SERVICE_SENSOR_TYPE[service])
        if service is Service.ROAD_CONDITION:
            sections[service] = _road_condition(*columns)
        elif service is Service.VELOCITY_TRAVEL_TIME:
            sections[service] = _velocity_travel_time(*columns, segment_length)
        elif service is Service.ENVIRONMENT:
            sections[service] = _environment(*columns)
        else:
            sections[service] = _congestion(*columns, thresholds)
    return EstimationReport(query_id=query.query_id, sections=sections)
