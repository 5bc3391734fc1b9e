"""Deterministic reading and workload generation.

Every random draw comes from a stream keyed by (seed, purpose, identity,
tick), so any value can be regenerated in isolation and results never
depend on the order in which other values were drawn.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass

from .cloud import (
    PAYLOAD_TYPE,
    CentricQuery,
    Reading,
    Service,
    _check_payload_columns,
    service_from_name,
)
from .errors import ConfigError, WorkloadError
from .topology import (
    ScenarioConfig, SensorNode, SensorType, _load_object,
    _require_count, _require_finite, _require_positive, _require_real, _require_type, _shown,
)


@dataclass(frozen=True)
class ReadingRanges:
    """Value ranges and event probabilities for generated readings.

    Every value drawn from them must make a valid payload, so the ranges are
    checked here rather than failing mid-run on the first bad reading.
    """

    speed: tuple[float, float] = (5.0, 35.0)
    temperature: tuple[float, float] = (-5.0, 45.0)
    humidity: tuple[float, float] = (10.0, 95.0)
    light: tuple[float, float] = (0.0, 1000.0)
    distorted_prob: float = 0.1
    crash_prob: float = 0.01
    vehicle_count: tuple[int, int] = (0, 40)

    def __post_init__(self) -> None:
        for name in ("speed", "temperature", "humidity", "light", "vehicle_count"):
            bounds = getattr(self, name)
            if not isinstance(bounds, tuple) or len(bounds) != 2:
                raise ConfigError(f"ranges.{name}: expected a (low, high) pair")
            if name == "vehicle_count" and any(
                isinstance(b, bool) or not isinstance(b, int) for b in bounds
            ):
                raise ConfigError("ranges.vehicle_count: bounds must be integers")
            for bound in bounds:
                _require_finite(bound, f"ranges.{name}")
            if bounds[0] > bounds[1]:
                raise ConfigError(f"ranges.{name}: low bound exceeds high bound")
            if bounds[1] - bounds[0] == float("inf"):  # a draw would be inf
                raise ConfigError(f"ranges.{name}: its width overflows a float")
        _require_positive(self.speed[0], "ranges.speed")
        if self.humidity[0] < 0 or self.humidity[1] > 100:
            raise ConfigError("ranges.humidity: must lie in [0, 100]")
        if self.light[0] < 0:
            raise ConfigError("ranges.light: must be non-negative")
        if self.vehicle_count[0] < 0:
            raise ConfigError("ranges.vehicle_count: must be non-negative")
        for name in ("distorted_prob", "crash_prob"):
            _require_real(getattr(self, name), f"ranges.{name}")
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"ranges.{name}: must lie in [0, 1]")


DEFAULT_RANGES = ReadingRanges()


def _stream(seed: int, *key_parts: object) -> random.Random:
    """A PRNG keyed by the seed plus an arbitrary identity tuple."""
    material = "|".join([str(seed), *map(str, key_parts)]).encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _draw_vision(rng: random.Random, ranges: ReadingRanges) -> tuple:
    return rng.choice((1, 2)), rng.random() < ranges.distorted_prob


def _draw_speed(rng: random.Random, ranges: ReadingRanges) -> tuple:
    return (rng.uniform(*ranges.speed),)


def _draw_environment(rng: random.Random, ranges: ReadingRanges) -> tuple:
    return (
        rng.uniform(*ranges.temperature),
        rng.uniform(*ranges.humidity),
        rng.uniform(*ranges.light),
    )


def _draw_misc(rng: random.Random, ranges: ReadingRanges) -> tuple:
    return rng.randint(*ranges.vehicle_count), rng.random() < ranges.crash_prob


# The payload field values of one reading, in field order, drawn from the
# reading's keyed stream; the one place the draws and their order are written.
_DRAW = {
    SensorType.VISION: _draw_vision,
    SensorType.SPEED: _draw_speed,
    SensorType.ENVIRONMENT: _draw_environment,
    SensorType.MISCELLANEOUS: _draw_misc,
}


def generate_reading(
    sensor: SensorNode,
    tick: int,
    seed: int,
    ranges: ReadingRanges = DEFAULT_RANGES,
) -> Reading:
    """The reading a sensor produces at a tick; a pure function of its key."""
    _require_type(sensor, SensorNode, "sensor", ConfigError)
    _require_type(ranges, ReadingRanges, "ranges", ConfigError)
    rng = _stream(seed, "reading", sensor.node_id, tick)
    values = _DRAW[sensor.sensor_type](rng, ranges)
    payload = PAYLOAD_TYPE[sensor.sensor_type](*values)
    return Reading(sensor_id=sensor.node_id, tick=tick, payload=payload)


def _reading_columns(
    sensors: list[SensorNode], tick: int, seed: int, ranges: ReadingRanges
) -> list[tuple]:
    """The readings same-type sensors produce at a tick, as one column per
    payload field (in field order, rows in sensor order); no sensors, no
    columns.

    The values are exactly `generate_reading`'s: each sensor's stream is
    keyed by the same sha256 digest, and one reused generator is re-seeded
    with it. No payload or `Reading` is built, but every value passes the
    payload checks and fails them with the same `ConfigError`.
    """
    if not sensors:
        return []
    sensor_type = sensors[0].sensor_type
    draw = _DRAW[sensor_type]
    rng = random.Random(0)
    # Seeding through the base class skips Random.seed's reset of the gauss
    # cache, which no reading draw uses.
    reseed = super(random.Random, rng).seed
    sha256 = hashlib.sha256
    # _stream's key material for (seed, "reading", node id, tick)
    head = str(seed) + "|reading|"
    tail = "|" + str(tick)
    rows = []
    for sensor in sensors:
        key = (head + str(sensor.node_id) + tail).encode()
        reseed(int.from_bytes(sha256(key).digest(), "big"))
        rows.append(draw(rng, ranges))
    columns = list(zip(*rows))
    _check_payload_columns(PAYLOAD_TYPE[sensor_type], columns)
    return columns


@dataclass(frozen=True)
class Workload:
    """Scheduled user queries and inter-sensor requests."""

    queries: tuple[tuple[int, CentricQuery], ...] = ()
    requests: tuple[tuple[int, str, str], ...] = ()


ALL_SERVICES = tuple(Service)


def _spread_ticks(count: int, duration: int) -> list[int]:
    return [(i * duration) // count for i in range(count)]


def _scheduled_query(
    i: int, tick: int, services: tuple[Service, ...]
) -> tuple[int, CentricQuery]:
    """The i-th query of a workload (from 0), scheduled at a tick: id
    Q<i + 1>, window from tick 0 through the query tick."""
    return tick, CentricQuery(f"Q{i + 1}", services, (0, tick))


def generate_workload(
    cfg: ScenarioConfig,
    n_queries: int,
    n_requests: int,
    seed: int | None = None,
) -> Workload:
    """Spread n_queries four-service queries and n_requests sensor-to-sensor
    requests evenly over the scenario duration.

    Query windows run from tick 0 through the query tick. Request pairs are
    drawn uniformly over distinct ordered sensor pairs from a keyed stream.
    """
    _require_type(cfg, ScenarioConfig, "cfg", ConfigError)
    for name, count in (("n_queries", n_queries), ("n_requests", n_requests)):
        _require_count(count, name, WorkloadError)
        if count > sys.maxsize:  # no list of that length can exist
            raise WorkloadError(f"{name}: must be at most {sys.maxsize}")
    if seed is not None:
        _require_count(seed, "seed", WorkloadError)
        if seed >= 2**64:
            raise WorkloadError("seed: must fit in 64 unsigned bits")
    if (n_queries or n_requests) and cfg.duration_ticks <= 0:
        raise WorkloadError("cannot schedule events in a zero-tick scenario")
    if n_requests and len(cfg.sensors) < 2:
        raise WorkloadError("inter-sensor requests need at least two sensors")
    seed = cfg.seed if seed is None else seed

    queries = tuple(
        _scheduled_query(i, tick, ALL_SERVICES)
        for i, tick in enumerate(_spread_ticks(n_queries, cfg.duration_ticks))
    )

    ids = [s.node_id for s in cfg.sensors]
    requests = []
    for i, tick in enumerate(_spread_ticks(n_requests, cfg.duration_ticks)):
        rng = _stream(seed, "request", i)
        requester = ids[rng.randrange(len(ids))]
        target = ids[rng.randrange(len(ids) - 1)]
        if target == requester:
            target = ids[len(ids) - 1]
        requests.append((tick, requester, target))
    return Workload(queries=queries, requests=tuple(requests))


def load_workload(text: str) -> Workload:
    """Parse a workload from JSON with keys `queries` and `requests`."""
    raw = _load_object(text, "workload", WorkloadError)
    for key in raw:
        if key not in ("queries", "requests"):
            raise WorkloadError(f"workload.{key}: unknown field")
        if not isinstance(raw[key], list):
            raise WorkloadError(f"workload.{key}: expected an array")

    queries = []
    for i, entry in enumerate(raw.get("queries", [])):
        path = f"workload.queries[{i}]"
        if not isinstance(entry, dict) or set(entry) != {"tick", "services"}:
            raise WorkloadError(f"{path}: expected an object with tick and services")
        tick = entry["tick"]
        _require_count(tick, f"{path}.tick", WorkloadError)
        services = entry["services"]
        if not isinstance(services, list) or not services:
            raise WorkloadError(f"{path}.services: expected a non-empty array")
        if not all(isinstance(name, str) for name in services):
            raise WorkloadError(f"{path}.services: expected service names")
        queries.append(
            _scheduled_query(i, tick, tuple(service_from_name(s) for s in services))
        )

    requests = []
    for i, entry in enumerate(raw.get("requests", [])):
        path = f"workload.requests[{i}]"
        if not isinstance(entry, dict) or set(entry) != {"tick", "requester", "target"}:
            raise WorkloadError(
                f"{path}: expected an object with tick, requester and target"
            )
        tick = entry["tick"]
        _require_count(tick, f"{path}.tick", WorkloadError)
        if not isinstance(entry["requester"], str) or not isinstance(entry["target"], str):
            raise WorkloadError(f"{path}: requester and target must be sensor ids")
        requests.append((tick, entry["requester"], entry["target"]))

    return Workload(queries=tuple(queries), requests=tuple(requests))


def _is_entry(entry: object, size: int) -> bool:
    return isinstance(entry, (tuple, list)) and len(entry) == size


def _require_tick(tick: object, what: str) -> None:
    if isinstance(tick, bool) or not isinstance(tick, int):
        raise WorkloadError(f"{what}: tick {_shown(tick)} is not an integer")


def validate_workload(workload: Workload, cfg: ScenarioConfig) -> None:
    """Check a workload against a scenario: known ids, ticks inside the run.

    A zero-tick scenario still admits events at tick 0 (nothing is reported,
    but queries and requests are processed).
    """
    for name in ("queries", "requests"):
        _require_type(getattr(workload, name), (tuple, list), name, WorkloadError)
    last_tick = max(0, cfg.duration_ticks - 1)
    known = {s.node_id for s in cfg.sensors}
    for i, entry in enumerate(workload.queries):
        if not (_is_entry(entry, 2) and isinstance(entry[1], CentricQuery)):
            raise WorkloadError(f"queries[{i}]: expected a (tick, CentricQuery) pair")
        tick, query = entry
        _require_tick(tick, f"query {query.query_id}")
        if not 0 <= tick <= last_tick:
            raise WorkloadError(f"query {query.query_id}: tick {tick} outside the run")
    for i, entry in enumerate(workload.requests):
        if not (_is_entry(entry, 3) and all(isinstance(id_, str) for id_ in entry[1:])):
            raise WorkloadError(
                f"requests[{i}]: expected a (tick, requester id, target id) triple"
            )
        tick, requester, target = entry
        _require_tick(tick, "request")
        if not 0 <= tick <= last_tick:
            raise WorkloadError(f"request at tick {tick}: outside the run")
        for node_id in (requester, target):
            if node_id not in known:
                raise WorkloadError(f"request references unknown sensor {node_id!r}")
