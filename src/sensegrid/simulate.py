"""Logical-clock simulation of the two communication strategies.

qcps: sensors are clustered into grids at tick 0; every tick each sensor
pushes its reading wirelessly to its grid coordinator, which forwards it
over infrastructure (via its co-located base station) to the cloud. User
queries and inter-sensor requests are served from the cloud, so query
traffic never touches the radio medium and all computation happens in the
cloud.

flat: no grids and no cloud. A gateway at the centroid of all sensor
positions answers each query by polling every sensor of the requested
services, one wireless round trip per sensor per tick of the query window
(there is no store, so history is fetched tick by tick). Inter-sensor
requests travel as direct radio round trips, and all computation is
attributed to node sites.

Within a tick, events are processed as: reports, then queries, then
requests, each in input order. Each strategy is one generator of
transmission rows (tick, src, dst, medium, purpose, wireless distance) in
that order, and a run's compute events fill as its rows are consumed.
Traces are a pure function of (config, workload, strategy).

`_run` hands out that stream and is the one place that checks the strategy
and the workload; everything else is a pass over it. `run_scenario` numbers
the rows into the trace's messages, so `msg_id` is the emission index.
Costs are counts and sums, one pass with constant state: `cost_of` prices
a trace's messages, and `_price`, shared by `compare_strategies` and the
CLI's `run`, prices the rows as they are generated, building no trace.

Query answers are strategy-independent: under either strategy a query is
answered from the readings its sensors sensed inside its window up to the
query tick. So `run_scenario` computes the answers once per run, on one
answer path, and `compare_strategies` computes none.
"""

from __future__ import annotations

import statistics
from collections.abc import Iterable
from dataclasses import dataclass, field

from .cloud import (
    CentricQuery,
    Cloud,
    CongestionThresholds,
    EstimationReport,
    SERVICE_SENSOR_TYPE,
    answer_centric_query,
)
from .errors import ConfigError, RoutingError
from .grids import GridSet, form_grids
from .topology import (
    CLOUD_SITE,
    GATEWAY_SITE,
    USER_SITE,
    CostParams,
    Position,
    ScenarioConfig,
    SensorNode,
    SensorType,
    distance,
)
from .workload import DEFAULT_RANGES, ReadingRanges, Workload, generate_reading, validate_workload

QCPS = "qcps"
FLAT = "flat"
STRATEGIES = (QCPS, FLAT)

WIRELESS = "wireless"
INFRASTRUCTURE = "infrastructure"


@dataclass(frozen=True)
class Message:
    """One transmission; wireless messages carry the radio distance paid."""

    msg_id: int
    tick: int
    src: str
    dst: str
    medium: str
    purpose: str  # report | request | response | query | answer
    wireless_distance: float = 0.0


@dataclass(frozen=True)
class ComputeEvent:
    tick: int
    site: str
    op_count: int = 1


@dataclass(frozen=True)
class SimulationTrace:
    strategy: str
    messages: tuple[Message, ...]
    compute_events: tuple[ComputeEvent, ...]
    grid_set: GridSet | None
    answered: tuple[tuple[int, EstimationReport], ...]


@dataclass(frozen=True)
class CostReport:
    strategy: str
    total_wireless_distance: float
    wireless_message_count: int
    infra_message_count: int
    cloud_op_count: int
    node_op_count: int
    monetized_total: float


@dataclass(frozen=True)
class CostComparison:
    qcps: CostReport
    flat: CostReport
    delta: dict[str, float] = field(default_factory=dict)


def route_sensor_request(
    requester: str,
    target: str,
    grids: GridSet,
    sensors_by_id: dict[str, SensorNode],
    tick: int = 0,
    first_msg_id: int = 0,
) -> list[Message]:
    """The qcps message path for one sensor asking for another's data.

    The requester talks wirelessly to its own coordinator, which relays over
    infrastructure to the cloud and back; the target sensor is never
    contacted. A requester that is itself the coordinator pays zero radio
    distance (self-hops). The cloud lookup itself is accounted by the caller
    as one cloud operation.
    """
    for node_id in (requester, target):
        if node_id not in sensors_by_id:
            raise RoutingError(f"unknown sensor {node_id!r}")
        try:
            grids.grid_for(node_id)
        except ConfigError as exc:
            raise RoutingError(str(exc)) from None
    coordinator = grids.coordinator_of(requester)
    hop = distance(
        sensors_by_id[requester].position, sensors_by_id[coordinator].position
    )
    legs = _request_legs(tick, requester, coordinator, hop)
    return [Message(first_msg_id + i, *row) for i, row in enumerate(legs)]


def _request_legs(tick: int, requester: str, coordinator: str, hop: float):
    yield tick, requester, coordinator, WIRELESS, "request", hop
    yield tick, coordinator, CLOUD_SITE, INFRASTRUCTURE, "request", 0.0
    yield tick, CLOUD_SITE, coordinator, INFRASTRUCTURE, "response", 0.0
    yield tick, coordinator, requester, WIRELESS, "response", hop


def route_user_query(
    query: CentricQuery,
    cloud: Cloud,
    segment_length: float,
    thresholds: CongestionThresholds = CongestionThresholds(),
    tick: int = 0,
    first_msg_id: int = 0,
) -> tuple[list[Message], list[ComputeEvent], EstimationReport]:
    """The qcps path for a user query: two infrastructure messages framing
    one cloud computation per requested service."""
    events: list[ComputeEvent] = []
    legs = _query_legs(query, tick, events)
    messages = [Message(first_msg_id + i, *row) for i, row in enumerate(legs)]
    return messages, events, answer_centric_query(query, cloud, segment_length, thresholds)


def _query_legs(query: CentricQuery, tick: int, events: list[ComputeEvent]):
    yield tick, USER_SITE, CLOUD_SITE, INFRASTRUCTURE, "query", 0.0
    yield tick, CLOUD_SITE, USER_SITE, INFRASTRUCTURE, "answer", 0.0
    events.extend(ComputeEvent(tick, CLOUD_SITE) for _ in query.requested_services)


def _ticks_to_process(cfg: ScenarioConfig, workload: Workload) -> range | list[int]:
    if cfg.duration_ticks > 0:
        return range(cfg.duration_ticks)
    if workload.queries or workload.requests:
        return [0]
    return []


def _events_by_tick(workload: Workload):
    queries: dict[int, list[CentricQuery]] = {}
    for tick, query in workload.queries:
        queries.setdefault(tick, []).append(query)
    requests: dict[int, list[tuple[str, str]]] = {}
    for tick, requester, target in workload.requests:
        requests.setdefault(tick, []).append((requester, target))
    return queries, requests


def _answer_queries(
    cfg: ScenarioConfig,
    workload: Workload,
    thresholds: CongestionThresholds = CongestionThresholds(),
    ranges: ReadingRanges = DEFAULT_RANGES,
) -> tuple[tuple[int, EstimationReport], ...]:
    """Every query's (tick, answer), in tick order and input order within a tick.

    Answers are strategy-independent, so this is the one answer path:
    `run_scenario` and the CLI's `run` call it once per run, and
    `compare_strategies` never does. A query sees the readings sensed inside its window up to its tick.
    One store serves every query: each (sensor type, tick) batch goes in the
    first time a window clipped to min(end, tick, last sensed tick) covers
    it. Queries are answered in tick order, so the store never holds a
    reading sensed after the query's tick, and the estimators do not depend
    on row order (fmean is fsum / n).
    """
    sensors_of: dict[SensorType, list[SensorNode]] = {t: [] for t in SensorType}
    for sensor in cfg.sensors:
        sensors_of[sensor.sensor_type].append(sensor)
    cloud = Cloud()
    ingested: set[tuple[SensorType, int]] = set()
    last_sensed = cfg.duration_ticks - 1
    answered = []
    for tick, query in sorted(workload.queries, key=lambda entry: entry[0]):
        start, end = query.window
        for service in query.requested_services:
            sensor_type = SERVICE_SENSOR_TYPE[service]
            db = cloud.db(sensor_type)
            for window_tick in range(start, min(end, tick, last_sensed) + 1):
                if (sensor_type, window_tick) not in ingested:
                    ingested.add((sensor_type, window_tick))
                    for sensor in sensors_of[sensor_type]:
                        db.ingest(generate_reading(sensor, window_tick, cfg.seed, ranges))
        answered.append(
            (tick, answer_centric_query(query, cloud, cfg.segment_length, thresholds))
        )
    return tuple(answered)


def run_scenario(
    cfg: ScenarioConfig,
    workload: Workload,
    strategy: str,
    thresholds: CongestionThresholds = CongestionThresholds(),
    ranges: ReadingRanges = DEFAULT_RANGES,
) -> SimulationTrace:
    """Execute one strategy over the workload and return the full trace,
    with the query answers, which both strategies share."""
    grid_set, rows, events = _run(cfg, workload, strategy)
    answered = _answer_queries(cfg, workload, thresholds, ranges)
    messages = tuple(Message(i, *row) for i, row in enumerate(rows))
    return SimulationTrace(strategy, messages, tuple(events), grid_set, answered)


def _run(cfg: ScenarioConfig, workload: Workload, strategy: str):
    """(grid set, transmission rows, compute events) of one strategy.

    The rows are a generator of (tick, src, dst, medium, purpose, distance)
    in emission order; infrastructure rows carry 0.0. The event list fills
    as the rows are consumed, so read it only after the last row.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy: expected one of {STRATEGIES}, got {strategy!r}")
    validate_workload(workload, cfg)
    events: list[ComputeEvent] = []
    if strategy == QCPS:
        grids = form_grids(cfg.sensors, cfg.threshold, cfg.coordinator_overrides)
        return grids, _qcps_legs(cfg, workload, grids, events), events
    return None, _flat_legs(cfg, workload, events), events


def _qcps_legs(
    cfg: ScenarioConfig, workload: Workload, grids: GridSet, events: list[ComputeEvent]
):
    by_id = cfg.by_id()
    uplink = {}  # node id -> (its coordinator, radio distance to it)
    for sensor in cfg.sensors:
        coordinator = grids.coordinator_of(sensor.node_id)
        uplink[sensor.node_id] = (
            coordinator, distance(sensor.position, by_id[coordinator].position)
        )
    queries_at, requests_at = _events_by_tick(workload)

    for tick in _ticks_to_process(cfg, workload):
        if tick < cfg.duration_ticks:
            for node_id, (coordinator, hop) in uplink.items():
                yield tick, node_id, coordinator, WIRELESS, "report", hop
                yield tick, coordinator, CLOUD_SITE, INFRASTRUCTURE, "report", 0.0
        for query in queries_at.get(tick, ()):
            yield from _query_legs(query, tick, events)
        for requester, _target in requests_at.get(tick, ()):
            yield from _request_legs(tick, requester, *uplink[requester])
            events.append(ComputeEvent(tick, CLOUD_SITE))


def _gateway_position(sensors: tuple[SensorNode, ...]) -> Position:
    return Position(
        statistics.fmean(s.position.x for s in sensors),
        statistics.fmean(s.position.y for s in sensors),
        statistics.fmean(s.position.z for s in sensors),
    )


def _flat_legs(cfg: ScenarioConfig, workload: Workload, events: list[ComputeEvent]):
    by_id = cfg.by_id()
    gateway_distance: dict[str, float] = {}
    if cfg.sensors:
        gateway = _gateway_position(cfg.sensors)
        gateway_distance = {
            s.node_id: distance(gateway, s.position) for s in cfg.sensors
        }
    queries_at, requests_at = _events_by_tick(workload)

    for tick in _ticks_to_process(cfg, workload):
        for query in queries_at.get(tick, ()):
            relevant_types = [
                SERVICE_SENSOR_TYPE[service] for service in query.requested_services
            ]
            polled = [s.node_id for s in cfg.sensors if s.sensor_type in relevant_types]
            start, end = query.window
            for _window_tick in range(start, end + 1):
                for node_id in polled:
                    hop = gateway_distance[node_id]
                    yield tick, GATEWAY_SITE, node_id, WIRELESS, "request", hop
                    yield tick, node_id, GATEWAY_SITE, WIRELESS, "response", hop
            events.extend(ComputeEvent(tick, GATEWAY_SITE) for _ in query.requested_services)
        for requester, target in requests_at.get(tick, ()):
            hop = distance(by_id[requester].position, by_id[target].position)
            yield tick, requester, target, WIRELESS, "request", hop
            yield tick, target, requester, WIRELESS, "response", hop
            events.append(ComputeEvent(tick, target))


def cost_of(trace: SimulationTrace, params: CostParams) -> CostReport:
    """Sum a trace into its cost components plus the monetized total."""
    transmissions = ((m.medium, m.wireless_distance) for m in trace.messages)
    return _sum_costs(trace.strategy, transmissions, trace.compute_events, params)


def _price(cfg: ScenarioConfig, workload: Workload, strategy: str):
    """(grid set, costs) of one strategy: one pass over its rows, no trace."""
    grid_set, rows, events = _run(cfg, workload, strategy)
    transmissions = ((medium, dist) for _, _, _, medium, _, dist in rows)
    return grid_set, _sum_costs(strategy, transmissions, events, cfg.cost_params)


def _sum_costs(
    strategy: str,
    transmissions: Iterable[tuple[str, float]],
    compute_events: Iterable[ComputeEvent],
    params: CostParams,
) -> CostReport:
    """One pass over (medium, distance) pairs in emission order, then the
    compute events; both strategies and both callers price runs here."""
    total_wireless = 0.0
    wireless_count = 0
    infra_count = 0
    for medium, dist in transmissions:
        if medium == WIRELESS:
            wireless_count += 1
            total_wireless += dist
        else:
            infra_count += 1
    cloud_ops = 0
    node_ops = 0
    for event in compute_events:
        if event.site == CLOUD_SITE:
            cloud_ops += event.op_count
        else:
            node_ops += event.op_count
    monetized = (
        params.wireless_cost_per_unit_distance * total_wireless
        + params.infra_message_cost * infra_count
        + params.computation_op_cost * (cloud_ops + node_ops)
    )
    return CostReport(
        strategy=strategy,
        total_wireless_distance=total_wireless,
        wireless_message_count=wireless_count,
        infra_message_count=infra_count,
        cloud_op_count=cloud_ops,
        node_op_count=node_ops,
        monetized_total=monetized,
    )

COST_METRICS = (
    "total_wireless_distance",
    "wireless_message_count",
    "infra_message_count",
    "cloud_op_count",
    "node_op_count",
    "monetized_total",
)


def compare_strategies(cfg: ScenarioConfig, workload: Workload) -> CostComparison:
    """Run both strategies on the identical workload; delta is qcps minus flat,
    so a negative entry means the grid strategy reduced that metric.

    Costs are one pass over each strategy's transmission rows and compute
    events, so this builds no message and no trace. Query answers are
    strategy-independent and do not enter the costs, so it computes none;
    `run_scenario` answers the queries once per run."""
    qcps_report = _price(cfg, workload, QCPS)[1]
    flat_report = _price(cfg, workload, FLAT)[1]
    delta = {
        metric: getattr(qcps_report, metric) - getattr(flat_report, metric)
        for metric in COST_METRICS
    }
    return CostComparison(qcps=qcps_report, flat=flat_report, delta=delta)
