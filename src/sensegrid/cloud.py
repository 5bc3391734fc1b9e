"""Cloud-side storage and the four estimation services.

The cloud keeps one database per sensor type (VDB, SDB, EDB, MDB) with one
append-only table per sensor. Estimators are pure reads over a tick window;
an empty window is a flagged absence, never an error. Each estimator's
formula is one function over the window's payload columns, so the public
`estimate_*` functions (fed from a database's rows) and the simulator's
answer path (fed from generated column batches) compute the same values.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

from .errors import ConfigError, QueryError, WrongDatabaseError
from .topology import SensorType, _require_real


# ---------------------------------------------------------------------------
# Readings
# ---------------------------------------------------------------------------

class _Payload:
    """Base of the four payload types: a payload applies its type's
    `_PAYLOAD_CHECKS` to its own fields and raises the first that fails."""

    def __post_init__(self) -> None:
        values = tuple(vars(self).values())  # field order
        for index, rejects, message in _PAYLOAD_CHECKS[type(self)]:
            if rejects(values[index]):
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

# Each payload type's checks, in the order a payload applies them: the index
# of the checked field, a test that is true for a rejected value, and the
# error message.
_PAYLOAD_CHECKS = {
    VisionPayload: ((0, lambda v: v not in (1, 2), "lane_count: must be 1 or 2"),),
    SpeedPayload: ((0, lambda v: not v > 0, "vehicle_speed: must be positive"),),
    EnvironmentPayload: (
        (1, lambda v: not 0 <= v <= 100, "humidity: must lie in [0, 100]"),
        (2, lambda v: v < 0, "light: must be non-negative"),
    ),
    MiscPayload: ((0, lambda v: v < 0, "vehicle_count: must be non-negative"),),
}


def _check_payload_columns(payload_type: type, columns: Sequence[Sequence]) -> None:
    """Raise the `ConfigError` that building the rows as payloads of this type,
    in row order, would raise first; columns are in field order."""
    failures = []
    for order, (index, rejects, message) in enumerate(_PAYLOAD_CHECKS[payload_type]):
        for row, value in enumerate(columns[index]):
            if rejects(value):
                failures.append((row, order, message))
                break
    if failures:
        raise ConfigError(min(failures)[2])


PAYLOAD_TYPE: dict[SensorType, type] = {
    SensorType.VISION: VisionPayload,
    SensorType.SPEED: SpeedPayload,
    SensorType.ENVIRONMENT: EnvironmentPayload,
    SensorType.MISCELLANEOUS: MiscPayload,
}


@dataclass(frozen=True)
class Reading:
    sensor_id: str
    tick: int
    payload: Payload

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ConfigError("reading tick: must be non-negative")


# ---------------------------------------------------------------------------
# Databases
# ---------------------------------------------------------------------------

_DB_NAME: dict[SensorType, str] = {
    SensorType.VISION: "VDB",
    SensorType.SPEED: "SDB",
    SensorType.ENVIRONMENT: "EDB",
    SensorType.MISCELLANEOUS: "MDB",
}


def database_for(sensor_type: SensorType) -> str:
    """Name of the cloud database holding a sensor type's data."""
    return _DB_NAME[sensor_type]


class CloudDatabase:
    """Per-type database: a table (append-only reading list) per sensor."""

    def __init__(self, sensor_type: SensorType):
        self.sensor_type = sensor_type
        self.name = database_for(sensor_type)
        self.tables: dict[str, list[Reading]] = {}

    def ingest(self, reading: Reading) -> None:
        """Append a reading to its sensor's table, creating the table lazily."""
        if not isinstance(reading.payload, PAYLOAD_TYPE[self.sensor_type]):
            raise WrongDatabaseError(
                f"{self.name} stores {self.sensor_type.value} readings, "
                f"got {type(reading.payload).__name__}"
            )
        self.tables.setdefault(reading.sensor_id, []).append(reading)

    def in_window(self, window: tuple[int, int]) -> list[Reading]:
        start, end = window
        rows = []
        for sensor_id in sorted(self.tables):
            rows.extend(r for r in self.tables[sensor_id] if start <= r.tick <= end)
        return rows


class Cloud:
    """All four databases plus routing of readings by payload variant."""

    def __init__(self) -> None:
        self.databases: dict[SensorType, CloudDatabase] = {
            t: CloudDatabase(t) for t in SensorType
        }

    def ingest(self, reading: Reading) -> None:
        for sensor_type, payload_cls in PAYLOAD_TYPE.items():
            if isinstance(reading.payload, payload_cls):
                self.databases[sensor_type].ingest(reading)
                return
        raise WrongDatabaseError(f"unrecognized payload {type(reading.payload).__name__}")

    def db(self, sensor_type: SensorType) -> CloudDatabase:
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

SERVICE_SENSOR_TYPE: dict[Service, SensorType] = {
    Service.ROAD_CONDITION: SensorType.VISION,
    Service.VELOCITY_TRAVEL_TIME: SensorType.SPEED,
    Service.ENVIRONMENT: SensorType.ENVIRONMENT,
    Service.CONGESTION: SensorType.MISCELLANEOUS,
}


def service_from_name(name: str) -> Service:
    try:
        return _SERVICE_BY_NAME[name]
    except KeyError:
        raise QueryError(
            f"unknown service {name!r}; expected one of {sorted(_SERVICE_BY_NAME)}"
        ) from None


@dataclass(frozen=True)
class CentricQuery:
    """One query whose answer spans the requested services over a tick window."""

    query_id: str
    requested_services: tuple[Service, ...]
    window: tuple[int, int]

    def __post_init__(self) -> None:
        if not self.requested_services:
            raise QueryError(f"query {self.query_id}: requested_services must be non-empty")
        for service in self.requested_services:
            if not isinstance(service, Service):
                raise QueryError(
                    f"query {self.query_id}: requested_services: {service!r} is not a Service"
                )
        if len(set(self.requested_services)) != len(self.requested_services):
            raise QueryError(f"query {self.query_id}: duplicate service requested")
        window = self.window
        if not (
            isinstance(window, tuple)
            and len(window) == 2
            and all(isinstance(t, int) and not isinstance(t, bool) for t in window)
        ):
            raise QueryError(f"query {self.query_id}: window must be a pair of integer ticks")
        start, end = window
        if start < 0 or start > end:
            raise QueryError(f"query {self.query_id}: window must satisfy 0 <= from <= to")


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


def _require_thresholds(thresholds: object) -> None:
    if not isinstance(thresholds, CongestionThresholds):
        raise ConfigError("thresholds: expected a CongestionThresholds")


@dataclass(frozen=True)
class RoadConditionResult:
    data_available: bool
    distorted_fraction: float | None = None
    dominant_lane_count: int | None = None


@dataclass(frozen=True)
class VelocityTravelTimeResult:
    data_available: bool
    mean_speed: float | None = None
    travel_time_ticks: float | None = None


@dataclass(frozen=True)
class EnvironmentResult:
    data_available: bool
    mean_temperature: float | None = None
    mean_humidity: float | None = None
    mean_light: float | None = None


@dataclass(frozen=True)
class CongestionResult:
    data_available: bool
    mean_vehicle_count: float | None = None
    congestion_level: str | None = None
    any_crash: bool | None = None


SectionResult = (
    RoadConditionResult | VelocityTravelTimeResult | EnvironmentResult | CongestionResult
)


@dataclass(frozen=True)
class EstimationReport:
    query_id: str
    sections: dict[Service, SectionResult] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------
#
# Each formula reads a window's payload columns, in payload field order, and
# does not depend on row order: counts and `any` read whole columns, and
# `_mean`, math.fsum(col) / len(col), is exactly statistics.fmean. It is the
# one mean, used by the estimators and by the flat gateway.

def _mean(column: Sequence[float]) -> float:
    try:
        return math.fsum(column) / len(column)
    except OverflowError:
        # the sum overflows, the mean does not: dividing by 2**k > n keeps
        # the sum finite and, above the subnormal range, is exact
        scale = 2 ** len(column).bit_length()
        return math.fsum(v / scale for v in column) / len(column) * scale


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
    _require_real(segment_length, "segment_length")
    if not segment_length > 0:
        raise ConfigError("segment_length: must be positive")
    if not vehicle_speed:
        return VelocityTravelTimeResult(data_available=False)
    mean_speed = _mean(vehicle_speed)
    if mean_speed == 0:
        return VelocityTravelTimeResult(data_available=False)
    return VelocityTravelTimeResult(
        data_available=True,
        mean_speed=mean_speed,
        travel_time_ticks=segment_length / mean_speed,
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
    _require_thresholds(thresholds)
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


def _estimate(
    service: Service,
    columns: Sequence[Sequence],
    segment_length: float,
    thresholds: CongestionThresholds,
) -> SectionResult:
    """One service's section from its sensor type's window columns."""
    if service is Service.ROAD_CONDITION:
        return _road_condition(*columns)
    if service is Service.VELOCITY_TRAVEL_TIME:
        return _velocity_travel_time(*columns, segment_length)
    if service is Service.ENVIRONMENT:
        return _environment(*columns)
    return _congestion(*columns, thresholds)


def _window_columns(
    db: CloudDatabase, window: tuple[int, int], sensor_type: SensorType
) -> list[list]:
    """The window's rows as one column per payload field of the sensor type
    the estimator reads. A database that holds another type's readings is
    rejected; an empty one of any type reads as no data."""
    if not isinstance(db, CloudDatabase) or (db.tables and db.sensor_type is not sensor_type):
        got = db.name if isinstance(db, CloudDatabase) else type(db).__name__
        raise WrongDatabaseError(f"database: expected {database_for(sensor_type)}, got {got}")
    rows = db.in_window(window)
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
    sections: dict[Service, SectionResult] = {}
    for service in query.requested_services:
        sensor_type = SERVICE_SENSOR_TYPE[service]
        columns = _window_columns(cloud.db(sensor_type), query.window, sensor_type)
        sections[service] = _estimate(service, columns, segment_length, thresholds)
    return EstimationReport(query_id=query.query_id, sections=sections)
