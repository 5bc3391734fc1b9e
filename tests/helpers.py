"""Independent oracles and instance generators shared by the test modules.

The oracles deliberately avoid the package's own clustering, election, and
accounting code paths: clustering is checked against fixpoint set merging,
election against a from-scratch argmin, cost reports against a direct
re-summation of the raw trace, flat's answers against a fresh store
rebuilt for every query, the trace serializer against the recursive
canonical writer over a dict per message, message counts against their
closed forms, and the transmission stream against a rebuild from the
simulator's documented rules. Distance terms are accumulated in the same (sorted) order as
the implementation so exact-tie cases stay exact.
"""

from __future__ import annotations

import math
import os
import random
import statistics

from sensegrid import (
    Cloud,
    CongestionThresholds,
    Position,
    SensorNode,
    SensorType,
    answer_centric_query,
    generate_reading,
)
from sensegrid.cloud import SERVICE_SENSOR_TYPE
from sensegrid.simulate import ComputeEvent, Message, SimulationTrace
from sensegrid.report import canonical_json, estimation_report_dict, gridset_list
from sensegrid.workload import DEFAULT_RANGES


def raw_distance(a: Position, b: Position) -> float:
    dx = a.x - b.x
    dy = a.y - b.y
    dz = a.z - b.z
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def closure_oracle(
    sensors: list[SensorNode], threshold: float
) -> set[frozenset[str]]:
    """Transitive clustering by repeated all-pairs merging until fixpoint."""
    groups: list[list[SensorNode]] = [[s] for s in sensors]
    changed = True
    while changed:
        changed = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if _should_merge(groups[i], groups[j], threshold):
                    groups[i] = groups[i] + groups[j]
                    del groups[j]
                    changed = True
                    break
            if changed:
                break
    return {frozenset(s.node_id for s in group) for group in groups}


def _should_merge(a: list[SensorNode], b: list[SensorNode], threshold: float) -> bool:
    for s in a:
        for t in b:
            if s.sensor_type is t.sensor_type and raw_distance(s.position, t.position) < threshold:
                return True
    return False


def medoid_oracle(members: tuple[str, ...], nodes: dict[str, SensorNode]) -> str:
    """Argmin of summed distances with smallest-id tie-break, from scratch."""
    ordered = sorted(members)
    sums = {}
    for candidate in ordered:
        total = 0.0
        for other in ordered:
            total += raw_distance(nodes[candidate].position, nodes[other].position)
        sums[candidate] = total
    return min(ordered, key=lambda m: (sums[m], m))


def resum_costs(trace) -> dict[str, float | int]:
    """Re-derive every cost component straight from the raw trace."""
    total_wireless = 0.0
    wireless_count = 0
    infra_count = 0
    for message in trace.messages:
        if message.medium == "wireless":
            wireless_count += 1
            total_wireless += message.wireless_distance
        else:
            infra_count += 1
    cloud_ops = sum(e.op_count for e in trace.compute_events if e.site == "cloud")
    node_ops = sum(e.op_count for e in trace.compute_events if e.site != "cloud")
    return {
        "total_wireless_distance": total_wireless,
        "wireless_message_count": wireless_count,
        "infra_message_count": infra_count,
        "cloud_op_count": cloud_ops,
        "node_op_count": node_ops,
    }


def trace_dict(trace) -> dict:
    """A trace as plain data, one dict per message and compute event."""
    return {
        "strategy": trace.strategy,
        "messages": [
            {
                "msg_id": m.msg_id,
                "tick": m.tick,
                "src": m.src,
                "dst": m.dst,
                "medium": m.medium,
                "purpose": m.purpose,
                "wireless_distance": m.wireless_distance,
            }
            for m in trace.messages
        ],
        "compute_events": [
            {"tick": e.tick, "site": e.site, "op_count": e.op_count}
            for e in trace.compute_events
        ],
        "grids": gridset_list(trace.grid_set) if trace.grid_set is not None else None,
        "reports": [
            dict(estimation_report_dict(r), tick=tick) for tick, r in trace.answered
        ],
    }


def serialize_trace_oracle(trace) -> str:
    """The canonical trace text through the recursive writer."""
    return canonical_json(trace_dict(trace))


def qcps_message_count(cfg, workload) -> int:
    """Each sensor reports and its coordinator forwards every tick; a query
    is a user/cloud round trip, a request two wireless and two
    infrastructure legs: 2NT + 2Q + 4R."""
    return (
        2 * len(cfg.sensors) * cfg.duration_ticks
        + 2 * len(workload.queries)
        + 4 * len(workload.requests)
    )


def flat_message_count(cfg, workload) -> int:
    """The gateway polls every sensor of a requested type once per window
    tick, the whole window even past the run's end, and each request is a
    direct round trip: sum over queries of 2 * |polled| * (end - start + 1),
    plus 2R."""
    total = 2 * len(workload.requests)
    for _, query in workload.queries:
        types = {SERVICE_SENSOR_TYPE[service] for service in query.requested_services}
        polled = sum(1 for s in cfg.sensors if s.sensor_type in types)
        start, end = query.window
        total += 2 * polled * (end - start + 1)
    return total


def flat_answers_oracle(
    cfg, workload, thresholds=CongestionThresholds(), ranges=DEFAULT_RANGES
):
    """Flat's answers, each from a fresh cloud that holds exactly the readings
    its polled sensors sensed inside the query window up to the query tick."""
    answered = []
    last_sensed = cfg.duration_ticks - 1
    for tick, query in sorted(workload.queries, key=lambda entry: entry[0]):
        types = {SERVICE_SENSOR_TYPE[service] for service in query.requested_services}
        polled = [s for s in cfg.sensors if s.sensor_type in types]
        start, end = query.window
        scratch = Cloud()
        for window_tick in range(start, min(end, tick, last_sensed) + 1):
            for sensor in polled:
                scratch.ingest(generate_reading(sensor, window_tick, cfg.seed, ranges))
        answered.append(
            (tick, answer_centric_query(query, scratch, cfg.segment_length, thresholds))
        )
    return tuple(answered)


def stream_oracle(cfg, workload, strategy: str) -> SimulationTrace:
    """A run's transmissions and compute events, rebuilt row by row from the
    rules in the `simulate` docstring, as a trace with no grids or answers.

    Every tick of the run (tick 0 of a zero-tick run) sends its reports,
    then its queries, then its requests, each in input order. qcps sends
    each sensor's report to its coordinator, found by `closure_oracle` and
    `medoid_oracle` with the config's overrides applied, which forwards it
    to the cloud; a query is a user/cloud round trip, and a request goes
    through the requester's own coordinator to the cloud and back. flat's
    gateway sits at the `statistics.fmean` centroid and polls every sensor
    of a requested type once per window tick; a request is a direct round
    trip whose compute event is at the target. Every row is one `Message`,
    numbered in emission order.
    """
    nodes = {s.node_id: s for s in cfg.sensors}
    rows = []  # (tick, src, dst, medium, purpose, wireless distance)
    events = []
    if strategy == "qcps":
        coordinator = {}
        for group in closure_oracle(list(cfg.sensors), cfg.threshold):
            members = tuple(sorted(group))
            pinned = cfg.coordinator_overrides.get(nodes[members[0]].sensor_type)
            chosen = pinned if pinned in group else medoid_oracle(members, nodes)
            coordinator.update(dict.fromkeys(members, chosen))
    elif cfg.sensors:
        gateway = Position(*(
            statistics.fmean(getattr(s.position, axis) for s in cfg.sensors)
            for axis in "xyz"
        ))
    for tick in range(max(cfg.duration_ticks, 1)):
        if strategy == "qcps" and tick < cfg.duration_ticks:
            for sensor in cfg.sensors:
                hub = coordinator[sensor.node_id]
                hop = raw_distance(sensor.position, nodes[hub].position)
                rows.append((tick, sensor.node_id, hub, "wireless", "report", hop))
                rows.append((tick, hub, "cloud", "infrastructure", "report", 0.0))
        for query in (query for at, query in workload.queries if at == tick):
            if strategy == "qcps":
                rows.append((tick, "user", "cloud", "infrastructure", "query", 0.0))
                rows.append((tick, "cloud", "user", "infrastructure", "answer", 0.0))
                site = "cloud"
            else:
                types = {SERVICE_SENSOR_TYPE[service] for service in query.requested_services}
                polled = [(s.node_id, raw_distance(gateway, s.position))
                          for s in cfg.sensors if s.sensor_type in types]
                start, end = query.window
                for _ in range(start, end + 1):
                    for node_id, hop in polled:
                        rows.append((tick, "gateway", node_id, "wireless", "request", hop))
                        rows.append((tick, node_id, "gateway", "wireless", "response", hop))
                site = "gateway"
            events.extend(ComputeEvent(tick, site) for _ in query.requested_services)
        for at, requester, target in workload.requests:
            if at != tick:
                continue
            if strategy == "qcps":
                hub = coordinator[requester]
                hop = raw_distance(nodes[requester].position, nodes[hub].position)
                rows.append((tick, requester, hub, "wireless", "request", hop))
                rows.append((tick, hub, "cloud", "infrastructure", "request", 0.0))
                rows.append((tick, "cloud", hub, "infrastructure", "response", 0.0))
                rows.append((tick, hub, requester, "wireless", "response", hop))
                events.append(ComputeEvent(tick, "cloud"))
            else:
                hop = raw_distance(nodes[requester].position, nodes[target].position)
                rows.append((tick, requester, target, "wireless", "request", hop))
                rows.append((tick, target, requester, "wireless", "response", hop))
                events.append(ComputeEvent(tick, target))
    messages = tuple(Message(i, *row) for i, row in enumerate(rows))
    return SimulationTrace(strategy, messages, tuple(events), None, ())


def random_instance(rng: random.Random, max_nodes: int = 50) -> list[SensorNode]:
    """A random topology with occasional duplicate positions for tie cases."""
    n = rng.randint(1, max_nodes)
    types = list(SensorType)
    sensors: list[SensorNode] = []
    for i in range(n):
        if sensors and rng.random() < 0.05:
            position = rng.choice(sensors).position
        else:
            position = Position(
                rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100)
            )
        sensors.append(SensorNode(f"N_{i:03d}", rng.choice(types), position))
    return sensors


def assert_same_text(actual: str, expected: str, context: int = 100) -> None:
    """Exact equality for long texts. A mismatch reports the first differing
    offset with `context` characters on each side, not a diff of both whole
    strings, which takes pytest seconds on a multi-megabyte trace."""
    if actual == expected:
        return
    at = len(os.path.commonprefix([actual, expected]))
    lo, hi = max(0, at - context), at + context
    raise AssertionError(
        f"texts differ at offset {at} (lengths {len(actual)} and {len(expected)})\n"
        f"actual:   {actual[lo:hi]!r}\n"
        f"expected: {expected[lo:hi]!r}"
    )
