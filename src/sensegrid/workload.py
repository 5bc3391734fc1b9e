"""Deterministic reading and workload generation.

Every random draw comes from a stream keyed by (seed, purpose, identity,
tick), so any value can be regenerated in isolation and results never
depend on the order in which other values were drawn.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from .cloud import (
    CentricQuery,
    EnvironmentPayload,
    MiscPayload,
    Reading,
    Service,
    SpeedPayload,
    VisionPayload,
    service_from_name,
)
from .errors import ConfigError, WorkloadError
from .topology import ScenarioConfig, SensorNode, SensorType, _require_finite


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
            for bound in bounds:
                _require_finite(bound, f"ranges.{name}")
            if bounds[0] > bounds[1]:
                raise ConfigError(f"ranges.{name}: low bound exceeds high bound")
        if self.speed[0] <= 0:
            raise ConfigError("ranges.speed: must be positive")
        if self.humidity[0] < 0 or self.humidity[1] > 100:
            raise ConfigError("ranges.humidity: must lie in [0, 100]")
        if self.light[0] < 0:
            raise ConfigError("ranges.light: must be non-negative")
        if any(isinstance(b, bool) or not isinstance(b, int) for b in self.vehicle_count):
            raise ConfigError("ranges.vehicle_count: bounds must be integers")
        if self.vehicle_count[0] < 0:
            raise ConfigError("ranges.vehicle_count: must be non-negative")
        for name in ("distorted_prob", "crash_prob"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"ranges.{name}: must lie in [0, 1]")


DEFAULT_RANGES = ReadingRanges()


def _stream(seed: int, *key_parts: object) -> random.Random:
    """A PRNG keyed by the seed plus an arbitrary identity tuple."""
    material = "|".join([str(seed), *map(str, key_parts)]).encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest, "big"))


def generate_reading(
    sensor: SensorNode,
    tick: int,
    seed: int,
    ranges: ReadingRanges = DEFAULT_RANGES,
) -> Reading:
    """The reading a sensor produces at a tick; a pure function of its key."""
    rng = _stream(seed, "reading", sensor.node_id, tick)
    if sensor.sensor_type is SensorType.VISION:
        payload = VisionPayload(
            lane_count=rng.choice((1, 2)),
            distorted=rng.random() < ranges.distorted_prob,
        )
    elif sensor.sensor_type is SensorType.SPEED:
        payload = SpeedPayload(vehicle_speed=rng.uniform(*ranges.speed))
    elif sensor.sensor_type is SensorType.ENVIRONMENT:
        payload = EnvironmentPayload(
            temperature=rng.uniform(*ranges.temperature),
            humidity=rng.uniform(*ranges.humidity),
            light=rng.uniform(*ranges.light),
        )
    else:
        payload = MiscPayload(
            vehicle_count=rng.randint(*ranges.vehicle_count),
            crash=rng.random() < ranges.crash_prob,
        )
    return Reading(sensor_id=sensor.node_id, tick=tick, payload=payload)


@dataclass(frozen=True)
class Workload:
    """Scheduled user queries and inter-sensor requests."""

    queries: tuple[tuple[int, CentricQuery], ...] = ()
    requests: tuple[tuple[int, str, str], ...] = ()


ALL_SERVICES = tuple(Service)


def _spread_ticks(count: int, duration: int) -> list[int]:
    return [(i * duration) // count for i in range(count)]


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
    for name, count in (("n_queries", n_queries), ("n_requests", n_requests)):
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise WorkloadError(f"{name}: expected a non-negative integer")
    if seed is not None and (
        isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64
    ):
        raise WorkloadError("seed: expected an integer that fits in 64 unsigned bits")
    if (n_queries or n_requests) and cfg.duration_ticks <= 0:
        raise WorkloadError("cannot schedule events in a zero-tick scenario")
    if n_requests and len(cfg.sensors) < 2:
        raise WorkloadError("inter-sensor requests need at least two sensors")
    seed = cfg.seed if seed is None else seed

    queries = tuple(
        (
            tick,
            CentricQuery(
                query_id=f"Q{i + 1}",
                requested_services=ALL_SERVICES,
                window=(0, tick),
            ),
        )
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
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"workload is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise WorkloadError("workload: expected a JSON object")
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
        if isinstance(tick, bool) or not isinstance(tick, int) or tick < 0:
            raise WorkloadError(f"{path}.tick: expected a non-negative integer")
        services = entry["services"]
        if not isinstance(services, list) or not services:
            raise WorkloadError(f"{path}.services: expected a non-empty array")
        if not all(isinstance(name, str) for name in services):
            raise WorkloadError(f"{path}.services: expected service names")
        queries.append(
            (
                tick,
                CentricQuery(
                    query_id=f"Q{i + 1}",
                    requested_services=tuple(service_from_name(s) for s in services),
                    window=(0, tick),
                ),
            )
        )

    requests = []
    for i, entry in enumerate(raw.get("requests", [])):
        path = f"workload.requests[{i}]"
        if not isinstance(entry, dict) or set(entry) != {"tick", "requester", "target"}:
            raise WorkloadError(
                f"{path}: expected an object with tick, requester and target"
            )
        tick = entry["tick"]
        if isinstance(tick, bool) or not isinstance(tick, int) or tick < 0:
            raise WorkloadError(f"{path}.tick: expected a non-negative integer")
        if not isinstance(entry["requester"], str) or not isinstance(entry["target"], str):
            raise WorkloadError(f"{path}: requester and target must be sensor ids")
        requests.append((tick, entry["requester"], entry["target"]))

    return Workload(queries=tuple(queries), requests=tuple(requests))


def _is_entry(entry: object, size: int) -> bool:
    return isinstance(entry, (tuple, list)) and len(entry) == size


def _require_tick(tick: object, what: str) -> None:
    if isinstance(tick, bool) or not isinstance(tick, int):
        raise WorkloadError(f"{what}: tick {tick!r} is not an integer")


def validate_workload(workload: Workload, cfg: ScenarioConfig) -> None:
    """Check a workload against a scenario: known ids, ticks inside the run.

    A zero-tick scenario still admits events at tick 0 (nothing is reported,
    but queries and requests are processed).
    """
    for name in ("queries", "requests"):
        if not isinstance(getattr(workload, name), (tuple, list)):
            raise WorkloadError(f"{name}: expected a tuple or list")
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
