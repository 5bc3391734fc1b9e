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
`(tick, block)` items in that order: a block is an immutable tuple of
transmission rows (src, dst, medium, purpose, wireless distance), all sent
at the item's tick. Rows repeat, so blocks are built once and shared: qcps
builds one report block per run and yields it every tick and one query
block that every query shares; flat computes each sensor's round trip with
the gateway once per run, makes a query's polling block of the trips of its
sensor types and yields it once per window tick; and each request has a
small block of its own.
Both walk one schedule, the workload's events sorted by tick, and a run's
compute events come from that schedule alone, before any block is built:
one computation operation per requested service of a query, at the cloud
under qcps and at the gateway under flat, and one per request, at the
cloud under qcps and at its target under flat. A zero-tick run sends no
report but still serves its tick-0 events. Traces are a pure function of
(config, workload, strategy).

`_run` hands out that stream and is the one place that checks the strategy,
the config and the workload; everything else is a pass over it.
`run_scenario` keeps the items as they are: a runner trace's `messages` is
a read-only sequence over their rows, and `msg_id` is a row's emission
index, so a `Message` is built only when one is read.
Costs are counts and sums, one pass with constant state: each block carries
its wireless distances, which are added in row order by `functools.reduce`
(the same sequential `+` as a loop, so the floats are bit-identical).
`cost_of` prices a trace (a runner trace straight from its blocks), and
`_price`, shared by `compare_strategies` and the CLI's `run`, prices the
items as they are generated, building no trace.

Query answers are strategy-independent: under either strategy a query is
answered from the readings its sensors sensed inside its window up to the
query tick. So `run_scenario` computes the answers once per run, on one
answer path, and `compare_strategies` computes none: plan the (sensor
type, tick) batches the clipped windows cover, in first-read order;
generate each once as payload columns into a store, in plan order, so the
first failing batch raises; answer with `cloud._answer`, the one rule that
`answer_centric_query` also uses, over columns read from the store. It
builds no `Reading` and no `Cloud`. A plan of at least `_FORK_MIN_READINGS`
readings, with two usable CPUs and no other thread, first forks one child
that generates every other batch; a batch's values are keyed on it alone,
so they do not depend on the process.
"""

from __future__ import annotations

import marshal
import math
import operator
import os
import sys
import threading
from bisect import bisect_right
from collections.abc import Callable, Iterable, Sequence
from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import partial, reduce
from itertools import accumulate, repeat
from typing import NamedTuple

from .cloud import (
    PAYLOAD_TYPE,
    CentricQuery,
    Cloud,
    CongestionThresholds,
    EstimationReport,
    SERVICE_SENSOR_TYPE,
    _answer,
    _mean,
    answer_centric_query,
)
from .errors import ConfigError, RoutingError, SenseGridError, WorkloadError
from .grids import _TOO_FAR, GridSet, form_grids
from .topology import (
    CLOUD_SITE,
    FLAT,
    GATEWAY_SITE,
    QCPS,
    STRATEGIES,
    USER_SITE,
    CostParams,
    Position,
    ScenarioConfig,
    SensorNode,
    SensorType,
    _require_count,
    _require_finite,
    _require_type,
    distance,
)
from .workload import (
    DEFAULT_RANGES,
    ReadingRanges,
    Workload,
    _reading_columns,
    validate_workload,
)

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


# The fields of a trace's messages and compute events. An API-built trace's
# entries are read by name, so any object with them will do.
_MESSAGE_FIELDS = tuple(f.name for f in fields(Message))
_EVENT_FIELDS = tuple(f.name for f in fields(ComputeEvent))


def _entry_dicts(entries: Iterable, names: tuple[str, ...], path: str) -> list[dict]:
    """An API-built trace's entries as dicts of their fields `names`; an
    entry without one raises a ConfigError naming the entry and the field."""
    dicts = []
    for i, entry in enumerate(entries):
        for name in names:
            if not hasattr(entry, name):
                raise ConfigError(f"{path}[{i}].{name}: missing field")
        dicts.append({name: getattr(entry, name) for name in names})
    return dicts


class _Block(NamedTuple):
    """Transmission rows (src, dst, medium, purpose, distance) sent together
    at one tick, and the wireless distances among them in row order. Build
    one with `_block`; a stream yields the same block at every tick that
    repeats it."""

    rows: tuple[tuple, ...]
    wireless: tuple[float, ...]


def _block(rows: Iterable[tuple]) -> _Block:
    rows = tuple(rows)
    return _Block(rows, tuple(row[4] for row in rows if row[2] == WIRELESS))


class _Messages(Sequence):
    """A runner trace's messages, kept as the (tick, block) items `_run`
    yielded.

    Message i is `Message(i, tick, *row)` for the i-th row in item order,
    built only when read: indexing, iteration and slicing (which returns a
    tuple) build messages, `len` builds none. It equals, hashes and prints
    as the tuple of its messages, whatever its block structure; a pickle
    keeps the items, each shared block once.
    """

    __slots__ = ("_items", "_ends")

    def __init__(self, items: tuple[tuple[int, _Block], ...]) -> None:
        self._items = items
        # _ends[k]: rows in items 0..k, so item k holds ids _ends[k-1].._ends[k]-1
        self._ends = tuple(accumulate(len(block.rows) for _, block in items))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        ids = range(len(self))[index]
        if isinstance(index, slice):
            return tuple(self._message(i) for i in ids)
        return self._message(ids)

    def _message(self, i: int) -> Message:
        # the first item ending past i holds it, so zero-length items are
        # skipped; i - end counts back from that item's last row
        k = bisect_right(self._ends, i)
        tick, block = self._items[k]
        return Message(i, tick, *block.rows[i - self._ends[k]])

    def __iter__(self):
        rows = ((tick, *row) for tick, block in self._items for row in block.rows)
        for i, row in enumerate(rows):
            yield Message(i, *row)

    def __eq__(self, other) -> bool:
        if isinstance(other, (_Messages, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return _Messages, (self._items,)


@dataclass(frozen=True)
class SimulationTrace:
    """One strategy's run. `messages` is in emission order; a trace from
    `run_scenario` keeps its transmission rows and builds each `Message` on
    read, and an API-built trace may hold any sequence of messages. Only
    the containers are checked, so building a trace costs O(1)."""

    strategy: str
    messages: Sequence[Message]
    compute_events: tuple[ComputeEvent, ...]
    grid_set: GridSet | None
    answered: tuple[tuple[int, EstimationReport], ...]

    def __post_init__(self) -> None:
        _require_type(self.strategy, str, "trace.strategy", ConfigError)
        if isinstance(self.messages, str) or not isinstance(self.messages, Sequence):
            raise ConfigError("trace.messages: expected a sequence of Message")
        for name in ("compute_events", "answered"):
            _require_type(getattr(self, name), (tuple, list), f"trace.{name}", ConfigError)
        if self.grid_set is not None:
            _require_type(self.grid_set, GridSet, "trace.grid_set", ConfigError)


@dataclass(frozen=True)
class CostReport:
    strategy: str
    total_wireless_distance: float
    wireless_message_count: int
    infra_message_count: int
    cloud_op_count: int
    node_op_count: int
    monetized_total: float

    def __post_init__(self) -> None:
        _require_type(self.strategy, str, "cost_report.strategy", ConfigError)
        # counts are priced in floats, so each must be one a float can hold;
        # a float total may be inf or NaN
        for name in COST_METRICS:
            value = getattr(self, name)
            if name.endswith("_count"):
                _require_count(value, f"cost_report.{name}", ConfigError)
            if not isinstance(value, float):
                _require_finite(value, f"cost_report.{name}")


@dataclass(frozen=True)
class CostComparison:
    """Both strategies' costs; delta is qcps minus flat over `COST_METRICS`,
    so a negative entry means the grid strategy reduced that metric."""

    qcps: CostReport
    flat: CostReport
    delta: dict[str, float] = field(init=False)

    def __post_init__(self) -> None:
        for name in ("qcps", "flat"):
            _require_type(getattr(self, name), CostReport, f"comparison.{name}", ConfigError)
        delta = {m: getattr(self.qcps, m) - getattr(self.flat, m) for m in COST_METRICS}
        object.__setattr__(self, "delta", delta)


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
    _require_type(grids, GridSet, "grids", RoutingError)
    _require_type(sensors_by_id, dict, "sensors_by_id", RoutingError)
    _require_count(tick, "tick", RoutingError)
    _require_count(first_msg_id, "first_msg_id", RoutingError)
    for name, node_id in (("requester", requester), ("target", target)):
        _require_type(node_id, str, name, RoutingError)
        if node_id not in sensors_by_id:
            raise RoutingError(f"unknown sensor {node_id!r}")
        try:
            grids.grid_for(node_id)
        except ConfigError as exc:
            raise RoutingError(str(exc)) from None
    coordinator = grids.coordinator_of(requester)
    if coordinator not in sensors_by_id:
        raise RoutingError(f"unknown coordinator {coordinator!r}")
    for node_id in (requester, coordinator):
        node = sensors_by_id[node_id]
        _require_type(node, SensorNode, f"sensors_by_id[{node_id!r}]", RoutingError)
    positions = (sensors_by_id[node_id].position for node_id in (requester, coordinator))
    hop = _finite_distance(*positions, RoutingError)
    legs = _request_legs(requester, coordinator, hop)
    return [Message(first_msg_id + i, tick, *row) for i, row in enumerate(legs)]


def _request_legs(requester: str, coordinator: str, hop: float):
    yield requester, coordinator, WIRELESS, "request", hop
    yield coordinator, CLOUD_SITE, INFRASTRUCTURE, "request", 0.0
    yield CLOUD_SITE, coordinator, INFRASTRUCTURE, "response", 0.0
    yield coordinator, requester, WIRELESS, "response", hop


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
    _require_count(tick, "tick", RoutingError)
    _require_count(first_msg_id, "first_msg_id", RoutingError)
    report = answer_centric_query(query, cloud, segment_length, thresholds)
    messages = [Message(first_msg_id + i, tick, *row) for i, row in enumerate(_QUERY_ROWS)]
    events = [ComputeEvent(tick, CLOUD_SITE) for _ in query.requested_services]
    return messages, events, report


_QUERY_ROWS = (
    (USER_SITE, CLOUD_SITE, INFRASTRUCTURE, "query", 0.0),
    (CLOUD_SITE, USER_SITE, INFRASTRUCTURE, "answer", 0.0),
)


_FORK_MIN_READINGS = 10_000  # forking and reaping costs about 3 ms, some 500 readings


def _clipped(cfg: ScenarioConfig, tick: int, query: CentricQuery) -> range:
    """The ticks a query at `tick` reads: its window up to its tick and the last sensed tick."""
    start, end = query.window
    return range(start, min(end, tick, cfg.duration_ticks - 1) + 1)


def _plan(cfg: ScenarioConfig, workload: Workload) -> list[tuple[SensorType, int]]:
    """The distinct (sensor type, tick) batches the answers read, in first-read order."""
    return list(dict.fromkeys(
        (SERVICE_SENSOR_TYPE[service], t)
        for tick, query in sorted(workload.queries, key=lambda entry: entry[0])
        for service in query.requested_services
        for t in _clipped(cfg, tick, query)
    ))


def _answer_queries(
    cfg: ScenarioConfig,
    workload: Workload,
    thresholds: CongestionThresholds = CongestionThresholds(),
    ranges: ReadingRanges = DEFAULT_RANGES,
) -> tuple[tuple[int, EstimationReport], ...]:
    """Every query's (tick, answer), in tick order and input order within a tick.

    Answers are strategy-independent, so this is the one answer path:
    `run_scenario` and the CLI's `run` call it once per run, and
    `compare_strategies` never does. It plans the batches, generates each
    once into a store (on two processes when `_generate_forked` may run,
    then the rest in plan order), and only then answers each query with
    `cloud._answer` over its `_clipped` window's columns.
    """
    _require_type(thresholds, CongestionThresholds, "thresholds", ConfigError)
    _require_type(ranges, ReadingRanges, "ranges", ConfigError)
    sensors_of: dict[SensorType, list[SensorNode]] = {t: [] for t in SensorType}
    for sensor in cfg.sensors:
        sensors_of[sensor.sensor_type].append(sensor)

    def generate(key: tuple[SensorType, int]) -> list:
        return _reading_columns(sensors_of[key[0]], key[1], cfg.seed, ranges)

    store: dict[tuple[SensorType, int], list] = {}
    plan = _plan(cfg, workload)
    affinity = getattr(os, "sched_getaffinity", None)
    if (
        sum(len(sensors_of[t]) for t, _ in plan) >= _FORK_MIN_READINGS
        and hasattr(os, "fork")
        and (affinity is None or len(affinity(0)) >= 2)
        and threading.active_count() == 1  # a fork copies no other thread
    ):
        _generate_forked(store, plan, generate)
    for key in plan:  # in plan order, so the first failing batch raises
        if key not in store:
            store[key] = generate(key)
    answered = []
    for tick, query in sorted(workload.queries, key=lambda entry: entry[0]):
        columns_of = partial(_batch_columns, store, _clipped(cfg, tick, query))
        answered.append((tick, _answer(query, columns_of, cfg.segment_length, thresholds)))
    return tuple(answered)


def _generate_forked(store: dict, plan: list, generate: Callable) -> None:
    """Store the planned batches: a forked child generates every other one
    and marshals them into a pipe while this process generates the rest.
    A batch that fails, and the rest of its process's share, stay out of
    the store for the caller's plan-order fill. The child is always reaped."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the fill generates every batch
        os.close(read_end)
        os.close(write_end)
        return
    if pid == 0:
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                marshal.dump([generate(key) for key in plan[1::2]], pipe)
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        # closed before the wait, so a child blocked on a full pipe can exit
        with os.fdopen(read_end, "rb") as pipe:
            with suppress(Exception):  # raised again by the plan-order fill
                for key in plan[::2]:
                    store[key] = generate(key)
            with suppress(EOFError, ValueError):  # the child failed or died first
                store.update(zip(plan[1::2], marshal.loads(pipe.read())))
    finally:
        os.waitpid(pid, 0)


def _batch_columns(store: dict, ticks: range, sensor_type: SensorType) -> list[list]:
    """A sensor type's payload columns over the ticks, joined in tick order
    from the run's stored batches."""
    columns = [[] for _ in fields(PAYLOAD_TYPE[sensor_type])]
    for tick in ticks:
        for column, values in zip(columns, store[sensor_type, tick]):
            column.extend(values)
    return columns


def run_scenario(
    cfg: ScenarioConfig,
    workload: Workload,
    strategy: str,
    thresholds: CongestionThresholds = CongestionThresholds(),
    ranges: ReadingRanges = DEFAULT_RANGES,
) -> SimulationTrace:
    """Execute one strategy over the workload and return the full trace,
    with the query answers, which both strategies share. The trace keeps
    the transmission blocks and builds no message until one is read."""
    grid_set, items, events = _run(cfg, workload, strategy)
    answered = _answer_queries(cfg, workload, thresholds, ranges)
    messages = _Messages(tuple(items))
    return SimulationTrace(strategy, messages, tuple(events), grid_set, answered)


def _run(cfg: ScenarioConfig, workload: Workload, strategy: str):
    """(grid set, transmission items, compute events) of one strategy.

    The items are a generator of (tick, block) in emission order; each row
    of a block is (src, dst, medium, purpose, distance), and infrastructure
    rows carry 0.0. Both runners walk one schedule: the workload's
    (tick, query) and (tick, requester, target) entries stably sorted by
    tick, so queries come before requests at a tick, each in input order.
    The compute events are a list complete on return, one per requested
    service of a query and one per request, at the sites the module
    docstring names.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy: expected one of {STRATEGIES}, got {strategy!r}")
    _require_type(cfg, ScenarioConfig, "cfg", ConfigError)
    _require_type(workload, Workload, "workload", WorkloadError)
    _check_extent(cfg.sensors)
    validate_workload(workload, cfg)
    schedule = sorted([*workload.queries, *workload.requests], key=operator.itemgetter(0))
    events = []
    for tick, *event in schedule:
        if len(event) == 1:  # a query; a request is (requester, target)
            site = CLOUD_SITE if strategy == QCPS else GATEWAY_SITE
            events.extend(ComputeEvent(tick, site) for _ in event[0].requested_services)
        else:
            events.append(ComputeEvent(tick, CLOUD_SITE if strategy == QCPS else event[1]))
    if strategy == QCPS:
        grids = form_grids(cfg.sensors, cfg.threshold, cfg.coordinator_overrides)
        return grids, _qcps_legs(cfg, schedule, grids), events
    for _, query in workload.queries:  # flat repeats a query's block per window tick
        start, end = query.window
        if end - start + 1 > sys.maxsize:
            raise WorkloadError(
                f"query {query.query_id}: window {query.window} spans more than "
                f"{sys.maxsize} ticks"
            )
    return None, _flat_legs(cfg, schedule), events


def _check_extent(sensors: tuple[SensorNode, ...]) -> None:
    """Reject sensors whose bounding box has no finite diagonal.

    Every distance a run pays (sensor to coordinator, requester to target,
    the centroid gateway to a sensor) joins two points of that box, and
    distance is monotone in the coordinate gaps, so a finite diagonal keeps
    every hop, and so every cost, finite.
    """
    if not sensors:
        return
    corners = [
        Position(*(pick(getattr(s.position, axis) for s in sensors) for axis in "xyz"))
        for pick in (min, max)
    ]
    _finite_distance(*corners, ConfigError)


def _finite_distance(a: Position, b: Position, error: type[SenseGridError]) -> float:
    """distance(a, b); where no float holds it, `error` says the sensors are too far apart."""
    try:
        hop = distance(a, b)
    except ConfigError:  # a gap of ints whose square no float holds
        hop = math.inf
    if hop == math.inf:
        raise error(_TOO_FAR)
    return hop


def _qcps_legs(cfg: ScenarioConfig, schedule: list[tuple], grids: GridSet):
    by_id = cfg.by_id()
    uplink = {}  # node id -> (its coordinator, radio distance to it)
    reports = []  # every sensor's report and its coordinator's forward
    for sensor in cfg.sensors:
        coordinator = grids.coordinator_of(sensor.node_id)
        hop = distance(sensor.position, by_id[coordinator].position)
        uplink[sensor.node_id] = (coordinator, hop)
        reports.append((sensor.node_id, coordinator, WIRELESS, "report", hop))
        reports.append((coordinator, CLOUD_SITE, INFRASTRUCTURE, "report", 0.0))
    report_block = _block(reports)
    query_block = _block(_QUERY_ROWS)
    reported = 0  # every tick below this has sent its reports
    for tick, *event in schedule:
        yield from zip(range(reported, min(tick + 1, cfg.duration_ticks)), repeat(report_block))
        reported = tick + 1
        if len(event) == 1:
            yield tick, query_block
        else:
            yield tick, _block(_request_legs(event[0], *uplink[event[0]]))
    yield from zip(range(reported, cfg.duration_ticks), repeat(report_block))


def _gateway_position(sensors: tuple[SensorNode, ...]) -> Position:
    return Position(*(_mean([getattr(s.position, axis) for s in sensors]) for axis in "xyz"))


def _round_trip(a: str, b: str, hop: float) -> tuple[tuple, tuple]:
    """A wireless request from a to b over `hop` and b's response."""
    return (a, b, WIRELESS, "request", hop), (b, a, WIRELESS, "response", hop)


def _flat_legs(cfg: ScenarioConfig, schedule: list[tuple]):
    by_id = cfg.by_id()
    gateway = _gateway_position(cfg.sensors) if cfg.sensors else None
    # each sensor's type and round trip with the gateway, in sensor order
    trips = [
        (s.sensor_type, _round_trip(GATEWAY_SITE, s.node_id, distance(gateway, s.position)))
        for s in cfg.sensors
    ]
    for tick, *event in schedule:
        if len(event) == 1:
            query = event[0]
            types = {SERVICE_SENSOR_TYPE[service] for service in query.requested_services}
            polling = _block(row for kind, trip in trips if kind in types for row in trip)
            start, end = query.window
            # the same round trips once per tick of the window
            yield from repeat((tick, polling), end - start + 1)
        else:
            requester, target = event
            hop = distance(by_id[requester].position, by_id[target].position)
            yield tick, _block(_round_trip(requester, target, hop))


def cost_of(trace: SimulationTrace, params: CostParams) -> CostReport:
    """Sum a trace into its cost components plus the monetized total. An
    entry of an API-built trace that cannot be priced raises a ConfigError
    naming it."""
    _require_type(trace, SimulationTrace, "trace", ConfigError)
    _require_type(params, CostParams, "cost_params", ConfigError)
    messages = trace.messages
    if type(messages) is _Messages:
        items = messages._items
    else:  # an API-built trace is priced as one block of its messages
        rows = _entry_dicts(messages, _MESSAGE_FIELDS[2:], "trace.messages")
        rows = [tuple(row.values()) for row in rows]  # a row: a message after id and tick
        for i, (_, _, medium, _, hop) in enumerate(rows):
            if medium == WIRELESS and not isinstance(hop, float):
                _require_finite(hop, f"trace.messages[{i}].wireless_distance")
        items = ((None, _block(rows)),)
    # an event after its tick: its site, and its op_count, which is priced in floats
    events = _entry_dicts(trace.compute_events, _EVENT_FIELDS[1:], "trace.compute_events")
    ops = 0
    for i, event in enumerate(events):
        _require_count(event["op_count"], f"trace.compute_events[{i}].op_count", ConfigError)
        ops += event["op_count"]
    _require_finite(ops, "trace.compute_events op_count total")
    return _sum_costs(trace.strategy, items, trace.compute_events, params)


def _price(cfg: ScenarioConfig, workload: Workload, strategy: str):
    """(grid set, costs) of one strategy: one pass over its items, no trace."""
    grid_set, items, events = _run(cfg, workload, strategy)
    return grid_set, _sum_costs(strategy, items, events, cfg.cost_params)


def _sum_costs(
    strategy: str,
    items: Iterable[tuple[object, _Block]],
    compute_events: Iterable[ComputeEvent],
    params: CostParams,
) -> CostReport:
    """One pass over the (tick, block) items in emission order, then the
    compute events; both strategies and both callers price runs here. Each
    block's wireless distances are added in row order, one `+` at a time.
    A price whose cost of a finite quantity overflows a float, or a total
    that does, raises a `ConfigError` naming it."""
    total_wireless = 0.0
    wireless_count = 0
    infra_count = 0
    for _, block in items:
        wireless = block.wireless
        wireless_count += len(wireless)
        infra_count += len(block.rows) - len(wireless)
        total_wireless = reduce(operator.add, wireless, total_wireless)
    cloud_ops = 0
    node_ops = 0
    for event in compute_events:
        if event.site == CLOUD_SITE:
            cloud_ops += event.op_count
        else:
            node_ops += event.op_count
    quantities = {
        "wireless_cost_per_unit_distance": total_wireless,
        "infra_message_cost": infra_count,
        "computation_op_cost": cloud_ops + node_ops,
    }
    products = []
    for name, quantity in quantities.items():
        products.append(getattr(params, name) * quantity)
        if math.isfinite(quantity) and not math.isfinite(products[-1]):
            raise ConfigError(f"cost_params.{name}: its cost overflows a float")
    monetized = products[0] + products[1] + products[2]
    if not math.isfinite(monetized) and all(map(math.isfinite, products)):
        raise ConfigError("cost_params: the monetized total overflows a float")
    return CostReport(
        strategy=strategy,
        total_wireless_distance=total_wireless,
        wireless_message_count=wireless_count,
        infra_message_count=infra_count,
        cloud_op_count=cloud_ops,
        node_op_count=node_ops,
        monetized_total=monetized,
    )

COST_METRICS = tuple(f.name for f in fields(CostReport) if f.name != "strategy")


def compare_strategies(cfg: ScenarioConfig, workload: Workload) -> CostComparison:
    """Run both strategies on the identical workload.

    Costs are one pass over each strategy's transmission blocks and compute
    events, so this builds no message and no trace. Query answers are
    strategy-independent and do not enter the costs, so it computes none;
    `run_scenario` answers the queries once per run."""
    return CostComparison(_price(cfg, workload, QCPS)[1], _price(cfg, workload, FLAT)[1])
