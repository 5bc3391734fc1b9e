"""Cloud-side storage and the four estimation services.

The cloud keeps one database per sensor type (VDB, SDB, EDB, MDB) with one
append-only table per sensor. Estimators are pure reads over a tick window;
an empty window is a flagged absence, never an error.
"""

from __future__ import annotations

import enum
import statistics
from dataclasses import dataclass, field

from .errors import ConfigError, QueryError, WrongDatabaseError
from .topology import SensorType


# ---------------------------------------------------------------------------
# Readings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VisionPayload:
    lane_count: int
    distorted: bool

    def __post_init__(self) -> None:
        if self.lane_count not in (1, 2):
            raise ConfigError("lane_count: must be 1 or 2")


@dataclass(frozen=True)
class SpeedPayload:
    vehicle_speed: float  # distance-units per tick

    def __post_init__(self) -> None:
        if not self.vehicle_speed > 0:
            raise ConfigError("vehicle_speed: must be positive")


@dataclass(frozen=True)
class EnvironmentPayload:
    temperature: float
    humidity: float
    light: float

    def __post_init__(self) -> None:
        if not 0 <= self.humidity <= 100:
            raise ConfigError("humidity: must lie in [0, 100]")
        if self.light < 0:
            raise ConfigError("light: must be non-negative")


@dataclass(frozen=True)
class MiscPayload:
    vehicle_count: int
    crash: bool

    def __post_init__(self) -> None:
        if self.vehicle_count < 0:
            raise ConfigError("vehicle_count: must be non-negative")


Payload = VisionPayload | SpeedPayload | EnvironmentPayload | MiscPayload

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
        if not 0 <= self.low_max < self.medium_max:
            raise ConfigError("congestion thresholds: need 0 <= low_max < medium_max")


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

def estimate_road_condition(
    vdb: CloudDatabase, window: tuple[int, int]
) -> RoadConditionResult:
    """Fraction of distorted sightings and the dominant lane count (tie -> 2)."""
    rows = vdb.in_window(window)
    if not rows:
        return RoadConditionResult(data_available=False)
    distorted = sum(1 for r in rows if r.payload.distorted)
    single_lane = sum(1 for r in rows if r.payload.lane_count == 1)
    dominant = 1 if single_lane > len(rows) - single_lane else 2
    return RoadConditionResult(
        data_available=True,
        distorted_fraction=distorted / len(rows),
        dominant_lane_count=dominant,
    )


def estimate_velocity_travel_time(
    sdb: CloudDatabase, window: tuple[int, int], segment_length: float
) -> VelocityTravelTimeResult:
    """Mean speed over the window and the ticks needed to cross the segment."""
    if not segment_length > 0:
        raise ConfigError("segment_length: must be positive")
    rows = sdb.in_window(window)
    if not rows:
        return VelocityTravelTimeResult(data_available=False)
    mean_speed = statistics.fmean(r.payload.vehicle_speed for r in rows)
    if mean_speed == 0:
        return VelocityTravelTimeResult(data_available=False)
    return VelocityTravelTimeResult(
        data_available=True,
        mean_speed=mean_speed,
        travel_time_ticks=segment_length / mean_speed,
    )


def estimate_environment(
    edb: CloudDatabase, window: tuple[int, int]
) -> EnvironmentResult:
    rows = edb.in_window(window)
    if not rows:
        return EnvironmentResult(data_available=False)
    return EnvironmentResult(
        data_available=True,
        mean_temperature=statistics.fmean(r.payload.temperature for r in rows),
        mean_humidity=statistics.fmean(r.payload.humidity for r in rows),
        mean_light=statistics.fmean(r.payload.light for r in rows),
    )


def estimate_congestion(
    mdb: CloudDatabase,
    window: tuple[int, int],
    thresholds: CongestionThresholds = CongestionThresholds(),
) -> CongestionResult:
    rows = mdb.in_window(window)
    if not rows:
        return CongestionResult(data_available=False)
    mean_count = statistics.fmean(r.payload.vehicle_count for r in rows)
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
        any_crash=any(r.payload.crash for r in rows),
    )


def answer_centric_query(
    query: CentricQuery,
    cloud: Cloud,
    segment_length: float,
    thresholds: CongestionThresholds = CongestionThresholds(),
) -> EstimationReport:
    """Answer a centric query: one section per requested service, nothing more."""
    sections: dict[Service, SectionResult] = {}
    for service in query.requested_services:
        db = cloud.db(SERVICE_SENSOR_TYPE[service])
        if service is Service.ROAD_CONDITION:
            sections[service] = estimate_road_condition(db, query.window)
        elif service is Service.VELOCITY_TRAVEL_TIME:
            sections[service] = estimate_velocity_travel_time(
                db, query.window, segment_length
            )
        elif service is Service.ENVIRONMENT:
            sections[service] = estimate_environment(db, query.window)
        else:
            sections[service] = estimate_congestion(db, query.window, thresholds)
    return EstimationReport(query_id=query.query_id, sections=sections)
