import ast
import contextlib
import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import os
import pickle
import random
import re
import statistics
import subprocess
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import sensegrid
from sensegrid import (
    CentricQuery,
    Cloud,
    ConfigError,
    CongestionThresholds,
    CostComparison,
    CostParams,
    CostReport,
    FLAT,
    Grid,
    GridSet,
    Message,
    Position,
    QCPS,
    QueryError,
    Reading,
    ReadingRanges,
    RoutingError,
    ScenarioConfig,
    SenseGridError,
    SensorNode,
    SensorType,
    Service,
    SimulationTrace,
    Workload,
    WorkloadError,
    answer_centric_query,
    builtin_testbed,
    compare_strategies,
    cost_of,
    database_for,
    distance,
    dump_topology,
    estimate_congestion,
    estimate_environment,
    estimate_road_condition,
    estimate_velocity_travel_time,
    form_grids,
    generate_workload,
    load_topology,
    load_workload,
    route_sensor_request,
    route_user_query,
    run_scenario,
    serialize_trace,
)
from sensegrid import cli, report, simulate
from sensegrid import workload as workload_module
from sensegrid.cloud import (
    SERVICE_SENSOR_TYPE,
    CongestionResult,
    EnvironmentPayload,
    EstimationReport,
    MiscPayload,
    RoadConditionResult,
    SpeedPayload,
    VisionPayload,
    _SECTION_TYPE,
    service_from_name,
)
from sensegrid.grids import elect_coordinator_ids
from sensegrid.simulate import CLOUD_SITE, INFRASTRUCTURE, WIRELESS, ComputeEvent

from helpers import (
    assert_same_text,
    flat_answers_oracle,
    flat_message_count,
    huge_integer_literal,
    qcps_message_count,
    random_instance,
    resum_costs,
    serialize_trace_oracle,
    stream_oracle,
    trace_dict,
)


@pytest.fixture(scope="module")
def testbed():
    return builtin_testbed()


@pytest.fixture(scope="module")
def testbed_grids(testbed):
    return form_grids(testbed.sensors, testbed.threshold)


def _wireless(trace):
    return [m for m in trace.messages if m.medium == WIRELESS]


def _infra(trace):
    return [m for m in trace.messages if m.medium == INFRASTRUCTURE]


FOUR_SERVICE_QUERY = CentricQuery("Q1", tuple(Service), (0, 0))


def test_qcps_single_tick_reporting(testbed):
    cfg = dataclasses.replace(testbed, duration_ticks=1)
    trace = run_scenario(cfg, Workload(), QCPS)
    wireless, infra = _wireless(trace), _infra(trace)
    assert len(wireless) == 16
    assert len(infra) == 16
    assert all(m.purpose == "report" for m in trace.messages)
    self_reports = [m for m in wireless if m.src == m.dst]
    assert {m.src for m in self_reports} == {"VS_3", "SS_4", "ES_3", "MS_1"}
    assert all(m.wireless_distance == 0.0 for m in self_reports)
    assert all(m.dst == CLOUD_SITE for m in infra)


def test_flat_single_query_polls_every_sensor(testbed):
    cfg = dataclasses.replace(testbed, duration_ticks=0)
    workload = Workload(queries=((0, FOUR_SERVICE_QUERY),))
    trace = run_scenario(cfg, workload, FLAT)
    assert len(_wireless(trace)) == 32  # 16 polls + 16 replies
    assert len(_infra(trace)) == 0
    polls = [m for m in trace.messages if m.purpose == "request"]
    replies = [m for m in trace.messages if m.purpose == "response"]
    assert len(polls) == len(replies) == 16
    # nothing was ever reported, so every section is a flagged absence
    (tick, report), = trace.answered
    assert not any(s.data_available for s in report.sections.values())


def test_empty_topology_empty_trace():
    cfg = dataclasses.replace(builtin_testbed(), sensors=(), duration_ticks=5)
    for strategy in (QCPS, FLAT):
        trace = run_scenario(cfg, Workload(), strategy)
        assert trace.messages == ()
        assert trace.compute_events == ()


def test_unknown_request_id_rejected(testbed):
    workload = Workload(requests=((0, "VS_1", "ghost"),))
    with pytest.raises(WorkloadError):
        run_scenario(testbed, workload, QCPS)


def test_route_sensor_request_path(testbed, testbed_grids):
    messages = route_sensor_request("VS_1", "ES_2", testbed_grids, testbed.by_id())
    assert [(m.src, m.dst, m.medium) for m in messages] == [
        ("VS_1", "VS_3", WIRELESS),
        ("VS_3", CLOUD_SITE, INFRASTRUCTURE),
        (CLOUD_SITE, "VS_3", INFRASTRUCTURE),
        ("VS_3", "VS_1", WIRELESS),
    ]
    total = sum(m.wireless_distance for m in messages)
    assert total == pytest.approx(99.70, abs=0.01)


def test_route_sensor_request_from_coordinator_is_free(testbed, testbed_grids):
    messages = route_sensor_request("VS_3", "MS_2", testbed_grids, testbed.by_id())
    assert sum(m.wireless_distance for m in messages) == 0.0


def test_route_sensor_request_unknown_id(testbed, testbed_grids):
    with pytest.raises(RoutingError):
        route_sensor_request("VS_1", "ghost", testbed_grids, testbed.by_id())


def test_route_helpers_number_legs_from_first_msg_id(testbed, testbed_grids):
    legs = route_sensor_request(
        "VS_1", "ES_2", testbed_grids, testbed.by_id(), tick=3, first_msg_id=7
    )
    assert [m.msg_id for m in legs] == [7, 8, 9, 10]
    assert {m.tick for m in legs} == {3}
    messages, _, _ = route_user_query(
        FOUR_SERVICE_QUERY, Cloud(), 600.0, tick=3, first_msg_id=7
    )
    assert [m.msg_id for m in messages] == [7, 8]
    assert {m.tick for m in messages} == {3}


def test_flat_request_is_direct_round_trip(testbed):
    cfg = dataclasses.replace(testbed, duration_ticks=0)
    workload = Workload(requests=((0, "VS_1", "ES_2"),))
    trace = run_scenario(cfg, workload, FLAT)
    assert [(m.src, m.dst) for m in trace.messages] == [
        ("VS_1", "ES_2"),
        ("ES_2", "VS_1"),
    ]
    total = sum(m.wireless_distance for m in trace.messages)
    assert total == pytest.approx(204.72, abs=0.01)
    assert trace.compute_events == (trace.compute_events[0],)
    assert trace.compute_events[0].site == "ES_2"


def test_route_user_query_costs():
    cloud = Cloud()
    messages, events, report = route_user_query(FOUR_SERVICE_QUERY, cloud, 600.0)
    assert len(messages) == 2
    assert all(m.medium == INFRASTRUCTURE for m in messages)
    assert sum(m.wireless_distance for m in messages) == 0.0
    assert len(events) == 4
    assert all(e.site == CLOUD_SITE for e in events)

    single = CentricQuery("Q2", (Service.ENVIRONMENT,), (0, 0))
    messages, events, report = route_user_query(single, cloud, 600.0)
    assert len(messages) == 2
    assert len(events) == 1
    # store is empty: answered, but flagged unavailable
    assert not report.sections[Service.ENVIRONMENT].data_available


def test_qcps_queries_never_use_radio(testbed):
    workload = generate_workload(testbed, 5, 0)
    trace = run_scenario(testbed, workload, QCPS)
    query_msgs = [m for m in trace.messages if m.purpose in ("query", "answer")]
    assert len(query_msgs) == 10
    assert all(m.medium == INFRASTRUCTURE for m in query_msgs)


def test_cost_report_sites_by_strategy(testbed):
    workload = generate_workload(testbed, 3, 3)
    qcps_costs = cost_of(run_scenario(testbed, workload, QCPS), testbed.cost_params)
    flat_costs = cost_of(run_scenario(testbed, workload, FLAT), testbed.cost_params)
    assert qcps_costs.node_op_count == 0
    assert qcps_costs.cloud_op_count == 15  # 3 queries x 4 services + 3 requests
    assert flat_costs.cloud_op_count == 0
    assert flat_costs.node_op_count == 15


def test_cost_of_empty_trace(testbed):
    trace = SimulationTrace(QCPS, (), (), None, ())
    report = cost_of(trace, testbed.cost_params)
    assert report.total_wireless_distance == 0.0
    assert report.wireless_message_count == 0
    assert report.infra_message_count == 0
    assert report.monetized_total == 0.0


def test_cost_of_linear_combination():
    trace = SimulationTrace(
        QCPS,
        (Message(0, 0, "A", "B", WIRELESS, "report", 5.0),),
        (),
        None,
        (),
    )
    params = CostParams(
        wireless_cost_per_unit_distance=2.0, infra_message_cost=0.0, computation_op_cost=0.0
    )
    assert cost_of(trace, params).monetized_total == 10.0


def test_compare_default_scenario_direction(testbed):
    comparison = compare_strategies(testbed, generate_workload(testbed, 20, 10))
    assert comparison.qcps.total_wireless_distance < comparison.flat.total_wireless_distance
    assert comparison.qcps.node_op_count == 0
    assert comparison.flat.node_op_count > 0
    assert comparison.delta["total_wireless_distance"] < 0


def test_compare_empty_workload_all_zero(testbed):
    cfg = dataclasses.replace(testbed, duration_ticks=0)
    comparison = compare_strategies(cfg, Workload())
    for report in (comparison.qcps, comparison.flat):
        assert report.total_wireless_distance == 0.0
        assert report.monetized_total == 0.0
    assert all(v == 0 for v in comparison.delta.values())


def test_compare_single_request_anchor(testbed):
    cfg = dataclasses.replace(testbed, duration_ticks=0)
    comparison = compare_strategies(cfg, Workload(requests=((0, "VS_1", "ES_2"),)))
    assert comparison.qcps.total_wireless_distance == pytest.approx(99.70, abs=0.01)
    assert comparison.flat.total_wireless_distance == pytest.approx(204.72, abs=0.01)


def test_compare_costs_match_run_scenario_over_random_scenarios():
    rng = random.Random(27182)
    for _ in range(12):
        sensors = random_instance(rng, max_nodes=12)
        cfg = dataclasses.replace(
            builtin_testbed(),
            sensors=tuple(sensors),
            threshold=rng.uniform(10, 200),
            duration_ticks=rng.randint(0, 10),
            seed=rng.getrandbits(32),
        )
        n_queries = rng.randint(0, 4) if cfg.duration_ticks else 0
        n_requests = rng.randint(0, 4) if cfg.duration_ticks and len(sensors) > 1 else 0
        workload = generate_workload(cfg, n_queries, n_requests)
        comparison = compare_strategies(cfg, workload)
        for strategy in (QCPS, FLAT):
            expected = cost_of(run_scenario(cfg, workload, strategy), cfg.cost_params)
            assert getattr(comparison, strategy) == expected


@pytest.fixture
def built_messages(monkeypatch):
    """How many Message objects the simulator constructs."""
    built = []
    real = simulate.Message

    def counting(*args, **kwargs):
        built.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "Message", counting)
    return built


def test_compare_builds_no_message(testbed, built_messages):
    # costs are one pass over the transmission rows, so compare never
    # materializes a message or a trace
    workload = generate_workload(testbed, 20, 10)
    compare_strategies(testbed, workload)
    assert built_messages == []
    # the counter sees every message a trace holds
    trace = run_scenario(testbed, workload, FLAT)
    messages = list(trace.messages)
    assert len(built_messages) == len(messages) > 0


def test_run_scenario_builds_no_message(testbed, built_messages):
    # a trace keeps its transmission rows, so counting, pricing and
    # serializing it build no message
    workload = generate_workload(testbed, 20, 10)
    for strategy in (QCPS, FLAT):
        trace = run_scenario(testbed, workload, strategy)
        assert len(trace.messages) > 0
        cost_of(trace, testbed.cost_params)
        serialize_trace(trace)
    assert built_messages == []


@pytest.mark.parametrize("strategy", [QCPS, FLAT])
def test_trace_messages_act_as_the_tuple_of_numbered_rows(testbed, strategy):
    workload = generate_workload(testbed, 6, 4)
    rows = [
        (tick, *row)
        for tick, block in next(simulate._run(testbed, workload, strategy))[1]
        for row in block.rows
    ]
    expected = tuple(Message(i, *row) for i, row in enumerate(rows))
    trace = run_scenario(testbed, workload, strategy)
    messages = trace.messages
    n = len(expected)
    assert len(messages) == n > 6
    assert bool(messages)
    assert messages[0] == expected[0]
    assert messages[-1] == expected[-1]
    assert messages[-n] == expected[0]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            messages[index]
    assert messages[:6] == expected[:6]
    assert type(messages[:6]) is tuple
    assert messages[5:-3:7] == expected[5:-3:7]
    assert tuple(reversed(messages)) == tuple(reversed(expected))
    assert expected[-1] in messages
    assert Message(0, *rows[1]) not in messages
    assert messages.index(expected[3]) == 3
    assert messages.count(expected[3]) == 1
    assert messages == expected
    assert expected == messages
    assert messages != expected[:-1]
    assert expected[:-1] != messages
    assert messages != expected[1:] + expected[:1]
    assert messages != list(expected)
    assert hash(messages) == hash(expected)
    for copy in (messages, trace):
        assert pickle.loads(pickle.dumps(copy, protocol=pickle.HIGHEST_PROTOCOL)) == copy
    # an API-built trace of the same messages prices and serializes the same
    api = dataclasses.replace(trace, messages=expected)
    assert api == trace
    assert cost_of(api, testbed.cost_params) == cost_of(trace, testbed.cost_params)
    assert serialize_trace(api) == serialize_trace(trace)


def test_trace_repr_shows_its_messages(testbed):
    cfg = dataclasses.replace(testbed, duration_ticks=1)
    trace = run_scenario(cfg, Workload(), QCPS)
    messages = tuple(trace.messages)
    assert repr(trace.messages) == repr(messages)
    assert repr(trace) == repr(dataclasses.replace(trace, messages=messages))
    assert "Message(msg_id=31, tick=0, " in repr(trace)


def _cli_run(tmp_path, strategy, fmt, *args):
    out = tmp_path / f"run_{strategy}.{fmt}"
    argv = ["run", *args, "--strategy", strategy, "--format", fmt, "--out", str(out)]
    assert cli.main(argv) == 0
    return out.read_text(encoding="utf-8")


TESTBED_RUN = ("--testbed", "--ticks", "10", "--queries", "4", "--requests", "3")


def test_cli_run_builds_no_message(tmp_path, built_messages):
    # run prices the transmission rows as compare does, so no trace is built
    for strategy in (QCPS, FLAT):
        for fmt in ("json", "csv"):
            assert _cli_run(tmp_path, strategy, fmt, *TESTBED_RUN)
    assert built_messages == []


@pytest.mark.parametrize("strategy", [QCPS, FLAT])
def test_cli_run_csv_generates_no_reading(tmp_path, monkeypatch, strategy):
    # the CSV holds costs only, so no query is answered
    generated = []
    real = simulate._reading_columns

    def counting(sensors, *rest):
        generated.extend(None for _ in sensors)
        return real(sensors, *rest)

    monkeypatch.setattr(simulate, "_reading_columns", counting)
    _cli_run(tmp_path, strategy, "csv", *TESTBED_RUN)
    assert generated == []
    # the counter sees the readings the JSON report's answers need
    _cli_run(tmp_path, strategy, "json", *TESTBED_RUN)
    assert generated


def test_cli_run_matches_run_scenario_over_random_scenarios(tmp_path):
    # the reference is the trace path: run_scenario, cost_of, then the report
    rng = random.Random(31415)
    for _ in range(12):
        sensors = random_instance(rng, max_nodes=12)
        cfg = dataclasses.replace(
            builtin_testbed(),
            sensors=tuple(sensors),
            threshold=rng.uniform(10, 200),
            duration_ticks=rng.randint(0, 10),
            seed=rng.getrandbits(32),
        )
        n_queries = rng.randint(0, 4) if cfg.duration_ticks else 0
        n_requests = rng.randint(0, 4) if cfg.duration_ticks and len(sensors) > 1 else 0
        workload = generate_workload(cfg, n_queries, n_requests)
        topology = tmp_path / "scenario.json"
        topology.write_text(dump_topology(cfg), encoding="utf-8")
        args = ("--topology", str(topology), "--queries", str(n_queries),
                "--requests", str(n_requests))
        for strategy in (QCPS, FLAT):
            trace = run_scenario(cfg, workload, strategy)
            costs = {strategy: cost_of(trace, cfg.cost_params)}
            expected_json = report.canonical_json(
                report.build_run_report(cfg, trace.grid_set, costs, trace.answered)
            )
            assert _cli_run(tmp_path, strategy, "json", *args) == expected_json
            assert _cli_run(tmp_path, strategy, "csv", *args) == report.cost_csv(costs)


def test_flat_costs_ignore_threshold(testbed):
    workload = generate_workload(testbed, 4, 4)
    baseline = cost_of(run_scenario(testbed, workload, FLAT), testbed.cost_params)
    for threshold in (0.001, 7.0, 350.0):
        cfg = dataclasses.replace(testbed, threshold=threshold)
        assert cost_of(run_scenario(cfg, workload, FLAT), cfg.cost_params) == baseline


def test_traces_are_deterministic(testbed):
    workload = generate_workload(testbed, 5, 5)
    for strategy in (QCPS, FLAT):
        first = serialize_trace(run_scenario(testbed, workload, strategy))
        second = serialize_trace(run_scenario(testbed, workload, strategy))
        assert first == second


def test_reports_identical_across_strategies(testbed):
    cfg = dataclasses.replace(testbed, duration_ticks=20)
    workload = generate_workload(cfg, 4, 0)
    qcps_answers = run_scenario(cfg, workload, QCPS).answered
    flat_answers = run_scenario(cfg, workload, FLAT).answered
    assert qcps_answers == flat_answers
    assert all(
        section.data_available
        for _, report in qcps_answers
        for section in report.sections.values()
    )


def test_cost_conservation_over_random_scenarios():
    rng = random.Random(60601)
    for _ in range(10):
        sensors = random_instance(rng, max_nodes=12)
        cfg = dataclasses.replace(
            builtin_testbed(),
            sensors=tuple(sensors),
            threshold=rng.uniform(10, 200),
            duration_ticks=rng.randint(0, 12),
            seed=rng.getrandbits(32),
        )
        n_queries = rng.randint(0, 4) if cfg.duration_ticks else 0
        n_requests = rng.randint(0, 4) if cfg.duration_ticks and len(sensors) > 1 else 0
        workload = generate_workload(cfg, n_queries, n_requests)
        for strategy in (QCPS, FLAT):
            trace = run_scenario(cfg, workload, strategy)
            report = cost_of(trace, cfg.cost_params)
            expected = resum_costs(trace)
            for metric, value in expected.items():
                assert getattr(report, metric) == value
            params = cfg.cost_params
            assert report.monetized_total == (
                params.wireless_cost_per_unit_distance * report.total_wireless_distance
                + params.infra_message_cost * report.infra_message_count
                + params.computation_op_cost
                * (report.cloud_op_count + report.node_op_count)
            )


def test_per_request_dominance():
    rng = random.Random(424242)
    checked = 0
    while checked < 25:
        sensors = random_instance(rng, max_nodes=16)
        if len(sensors) < 2:
            continue
        cfg = dataclasses.replace(
            builtin_testbed(),
            sensors=tuple(sensors),
            threshold=rng.uniform(5, 80),
            duration_ticks=0,
        )
        grids = form_grids(cfg.sensors, cfg.threshold)
        requester, target = rng.sample(sensors, 2)
        if grids.grid_for(requester.node_id) == grids.grid_for(target.node_id):
            continue
        coordinator = cfg.by_id()[grids.coordinator_of(requester.node_id)]
        if not (
            2 * distance(requester.position, coordinator.position)
            < 2 * distance(requester.position, target.position)
        ):
            continue
        workload = Workload(requests=((0, requester.node_id, target.node_id),))
        qcps_total = sum(
            m.wireless_distance for m in run_scenario(cfg, workload, QCPS).messages
        )
        flat_total = sum(
            m.wireless_distance for m in run_scenario(cfg, workload, FLAT).messages
        )
        assert qcps_total < flat_total
        checked += 1


def test_messages_ordered_and_unique(testbed):
    workload = generate_workload(testbed, 5, 5)
    for strategy in (QCPS, FLAT):
        trace = run_scenario(testbed, workload, strategy)
        ids = [m.msg_id for m in trace.messages]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        keys = [(m.tick, m.msg_id) for m in trace.messages]
        assert keys == sorted(keys)


def test_flat_answers_match_oracle_over_random_scenarios():
    rng = random.Random(31337)
    for _ in range(15):
        sensors = random_instance(rng, max_nodes=12)
        cfg = dataclasses.replace(
            builtin_testbed(),
            sensors=tuple(sensors),
            duration_ticks=rng.randint(1, 12),
            seed=rng.getrandbits(32),
        )
        workload = generate_workload(cfg, rng.randint(1, 5), 0)
        assert run_scenario(cfg, workload, FLAT).answered == flat_answers_oracle(
            cfg, workload
        )


def _queries(*entries):
    """(tick, services, window) triples as a workload of API-built queries."""
    return Workload(
        queries=tuple(
            (tick, CentricQuery(f"Q{i + 1}", tuple(services), window))
            for i, (tick, services, window) in enumerate(entries)
        )
    )


ALL = tuple(Service)
SPEED, ROAD, ENV, CONGESTION = (
    Service.VELOCITY_TRAVEL_TIME,
    Service.ROAD_CONDITION,
    Service.ENVIRONMENT,
    Service.CONGESTION,
)

WINDOW_CASES = {
    "start_after_zero": (12, _queries((5, ALL, (3, 5)), (9, ALL, (4, 9)))),
    "end_before_tick": (12, _queries((8, ALL, (0, 2)), (10, ALL, (1, 6)))),
    "reach_back_before_earlier_window": (
        12, _queries((4, ALL, (3, 4)), (6, ALL, (0, 6)), (6, ALL, (2, 2)))
    ),
    "end_past_tick_and_run": (12, _queries((3, ALL, (0, 20)), (11, ALL, (2, 30)))),
    "single_service": (
        12,
        _queries(
            (2, (SPEED,), (0, 2)),
            (5, (ROAD,), (1, 9)),
            (7, (ENV,), (0, 7)),
            (7, (CONGESTION,), (3, 4)),
            (11, (SPEED,), (0, 11)),
        ),
    ),
    "zero_tick_run": (0, _queries((0, ALL, (0, 0)), (0, (ENV,), (0, 5)))),
    "one_tick_run": (1, _queries((0, ALL, (0, 3)), (0, (SPEED, ROAD), (1, 2)))),
}


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_flat_answers_match_oracle_for_api_windows(testbed, case):
    ticks, workload = WINDOW_CASES[case]
    cfg = dataclasses.replace(testbed, duration_ticks=ticks)
    flat = run_scenario(cfg, workload, FLAT).answered
    assert flat == flat_answers_oracle(cfg, workload)
    assert flat == run_scenario(cfg, workload, QCPS).answered


# crash_prob 1.0, distorted_prob 0.0, a narrow speed range, and vehicle
# counts whose mean lies in [10, 20]
NON_DEFAULT_RANGES = ReadingRanges(
    speed=(12.0, 12.5), distorted_prob=0.0, crash_prob=1.0, vehicle_count=(10, 20)
)


@pytest.mark.parametrize(
    "thresholds, level",
    [
        (CongestionThresholds(low_max=20.0, medium_max=25.0), "low"),
        (CongestionThresholds(low_max=5.0, medium_max=20.0), "medium"),
        (CongestionThresholds(low_max=1.0, medium_max=5.0), "high"),
    ],
)
@pytest.mark.parametrize("strategy", [QCPS, FLAT])
def test_answers_match_oracle_with_non_default_settings(testbed, thresholds, level, strategy):
    cfg = dataclasses.replace(testbed, duration_ticks=12)
    workload = _queries((3, ALL, (0, 3)), (7, (CONGESTION, SPEED), (2, 9)), (11, ALL, (0, 30)))
    answered = run_scenario(
        cfg, workload, strategy, thresholds=thresholds, ranges=NON_DEFAULT_RANGES
    ).answered
    assert answered == flat_answers_oracle(cfg, workload, thresholds, NON_DEFAULT_RANGES)
    for _, answer in answered:
        congestion = answer.sections[CONGESTION]
        assert (congestion.congestion_level, congestion.any_crash) == (level, True)
        assert 12.0 <= answer.sections[SPEED].mean_speed <= 12.5
        if ROAD in answer.sections:
            assert answer.sections[ROAD].distorted_fraction == 0.0


@pytest.mark.parametrize(
    "call, error, argument",
    [
        (lambda cfg: run_scenario(cfg, None, QCPS), WorkloadError, "workload"),
        (lambda cfg: run_scenario(None, Workload(), QCPS), ConfigError, "cfg"),
        (lambda cfg: compare_strategies(cfg, {"queries": ()}), WorkloadError, "workload"),
        (lambda cfg: compare_strategies("x", Workload()), ConfigError, "cfg"),
        (lambda cfg: generate_workload(None, 1, 1), ConfigError, "cfg"),
        (lambda cfg: distance(None, cfg.sensors[0].position), ConfigError, "a"),
        (lambda cfg: distance(cfg.sensors[0].position, cfg.sensors[0]), ConfigError, "b"),
        (lambda cfg: dump_topology(None), ConfigError, "cfg"),
        (lambda cfg: serialize_trace(None), ConfigError, "trace"),
        (lambda cfg: load_topology(None), ConfigError, "config"),
        (lambda cfg: load_workload(None), WorkloadError, "workload"),
    ],
    ids=[
        "run_workload", "run_cfg", "compare_workload", "compare_cfg", "generate_cfg",
        "distance_a", "distance_b", "dump_cfg", "serialize_trace", "load_config", "load_workload",
    ],
)
def test_arguments_of_the_wrong_type_raise_a_named_error(testbed, call, error, argument):
    with pytest.raises(error, match=rf"^{argument}: expected a "):
        call(testbed)


@pytest.mark.parametrize("kind", [bytes, bytearray])
def test_config_and_workload_texts_load_from_their_utf8_bytes(testbed, kind):
    # json.loads takes these too, so the loaders accept what it accepts
    texts = (
        (load_topology, dump_topology(testbed)),
        (load_workload, json.dumps({"queries": [{"tick": 3, "services": ["environment"]}]})),
    )
    for load, text in texts:
        assert load(kind(text.encode())) == load(text)


@pytest.fixture
def generated(monkeypatch):
    """The (sensor id, tick) key of every reading the simulator generates."""
    keys = []
    real = simulate._reading_columns

    def counting(sensors, tick, *rest):
        keys.extend((sensor.node_id, tick) for sensor in sensors)
        return real(sensors, tick, *rest)

    monkeypatch.setattr(simulate, "_reading_columns", counting)
    return keys


def test_compare_generates_each_reading_once(testbed, generated):
    # costs depend only on messages and compute events, so compare answers
    # no query and generates no reading at all
    cfg = dataclasses.replace(testbed, duration_ticks=30)
    compare_strategies(cfg, generate_workload(cfg, 6, 4))
    assert generated == []


def test_compare_checks_its_run_once(testbed, monkeypatch):
    # both strategies come from one `_run`, which checks the run once
    calls = Counter()
    for name in ("validate_workload", "_check_extent"):

        def counting(*args, name=name, real=getattr(simulate, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(simulate, name, counting)
    compare_strategies(testbed, generate_workload(testbed, 6, 4))
    assert calls == {"validate_workload": 1, "_check_extent": 1}


@pytest.mark.parametrize("strategy", [FLAT, QCPS])
def test_flat_generates_only_its_clipped_windows(testbed, generated, strategy):
    cfg = dataclasses.replace(testbed, duration_ticks=12)
    workload = _queries(
        (4, (SPEED,), (2, 6)),
        (6, (ROAD, ENV), (3, 20)),
        (9, (SPEED, CONGESTION), (0, 3)),
        (11, (ENV,), (5, 8)),
    )
    run_scenario(cfg, workload, strategy)
    expected = set()
    for tick, query in workload.queries:
        types = {SERVICE_SENSOR_TYPE[service] for service in query.requested_services}
        start, end = query.window
        expected.update(
            (sensor.node_id, window_tick)
            for window_tick in range(start, min(end, tick) + 1)
            for sensor in cfg.sensors
            if sensor.sensor_type in types
        )
    assert len(generated) == len(set(generated))
    assert set(generated) == expected


def test_flat_shares_one_polling_block_per_service_set(testbed):
    workload = _queries(
        (1, (ENV, SPEED), (0, 1)), (2, ALL, (0, 2)), (3, (SPEED, ENV), (1, 3)), (4, ALL, (2, 2))
    )
    # the items stay alive while their ids are counted, so no id is reused
    items = tuple(next(simulate._run(testbed, workload, FLAT))[1])
    assert len(items) == 2 + 3 + 3 + 1
    assert len({id(block) for _, block in items}) == 2


@st.composite
def _small_scenarios(draw):
    sensors = tuple(
        SensorNode(
            f"N{i}",
            draw(st.sampled_from(SensorType)),
            Position(*(draw(st.integers(0, 40)) for _ in range(3))),
        )
        for i in range(draw(st.integers(0, 6)))
    )
    ticks = draw(st.integers(0, 6))
    cfg = ScenarioConfig(
        sensors=sensors,
        threshold=draw(st.integers(1, 60)),
        duration_ticks=ticks,
        seed=draw(st.integers(0, 2**32)),
    )
    entries = []
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, 8))
        entries.append(
            (
                draw(st.integers(0, max(0, ticks - 1))),
                draw(st.lists(st.sampled_from(Service), min_size=1, max_size=4, unique=True)),
                (start, draw(st.integers(start, 10))),
            )
        )
    return cfg, _queries(*entries)


@contextlib.contextmanager
def _forced_fork(in_child=lambda: None):
    """Send every `_answer_queries` inside to the forked path, as on a host
    with two CPUs, and yield the pids of the children it forked; `in_child`
    runs first in each child."""
    real_fork = os.fork
    forked = []

    def fork():
        pid = real_fork()
        if pid == 0:
            in_child()
        else:
            forked.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_FORK_MIN_READINGS", 0)
        patch.setattr(os, "fork", fork)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield forked


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(_small_scenarios())
def test_forked_answers_equal_serial_answers(scenario):
    # zero-tick runs, windows past the run, empty and single-sensor types,
    # API-built windows, and generated queries over (0, tick)
    cfg, workload = scenario
    workloads = [workload]
    if cfg.duration_ticks:
        workloads.append(generate_workload(cfg, 3, 0))
    for workload in workloads:
        serial = simulate._answer_queries(cfg, workload)
        with _forced_fork() as forked:
            assert simulate._answer_queries(cfg, workload) == serial
        assert len(forked) == 1


def test_the_default_threshold_forks_only_a_large_plan(testbed):
    workload = generate_workload(testbed, 20, 10)
    with _forced_fork() as forked, pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_FORK_MIN_READINGS", 10_000)
        serial = simulate._answer_queries(testbed, workload)
        assert forked == []
        patch.setattr(simulate, "_FORK_MIN_READINGS", 1_000)  # the plan holds 1,536
        assert simulate._answer_queries(testbed, workload) == serial
        assert len(forked) == 1


def test_a_forced_out_of_range_draw_raises_the_same_error_on_both_paths(testbed, monkeypatch):
    def rounded_past_100(rng, ranges):
        return 20.0, 100.00000000000001, 5.0

    monkeypatch.setitem(workload_module._DRAW, SensorType.ENVIRONMENT, rounded_past_100)
    cfg = dataclasses.replace(testbed, duration_ticks=8)
    workload = generate_workload(cfg, 4, 0)
    message = "^" + re.escape("humidity: must lie in [0, 100]")
    with pytest.raises(ConfigError, match=message):
        simulate._answer_queries(cfg, workload)
    with _forced_fork() as forked, pytest.raises(ConfigError, match=message):
        simulate._answer_queries(cfg, workload)
    assert len(forked) == 1


def test_failed_batches_raise_in_serial_order_on_both_paths(testbed, monkeypatch):
    # batches fail in both processes' shares, each with its own message,
    # and the first one read is the child's; both paths raise that one
    real = simulate._reading_columns

    def failing(sensors, tick, *rest):
        if sensors and tick in (2, 3, 5):
            raise ConfigError(f"{sensors[0].sensor_type.value} at tick {tick}")
        return real(sensors, tick, *rest)

    monkeypatch.setattr(simulate, "_reading_columns", failing)
    cfg = dataclasses.replace(testbed, duration_ticks=8)
    workload = _queries((1, (ROAD, SPEED, CONGESTION), (0, 0)), (6, (ENV, SPEED), (3, 6)),
                        (7, ALL, (0, 7)))
    plan = simulate._plan(cfg, sorted(workload.queries, key=lambda e: e[0]))
    failed = [i for i, (_, tick) in enumerate(plan) if tick in (2, 3, 5)]
    # plan[1::2] is the child's share
    assert failed[0] % 2 == 1 and any(i % 2 == 0 for i in failed)
    with pytest.raises(ConfigError) as serial:
        simulate._answer_queries(cfg, workload)
    assert str(serial.value) == "environment at tick 3"
    with _forced_fork() as forked, pytest.raises(ConfigError) as forked_error:
        simulate._answer_queries(cfg, workload)
    assert len(forked) == 1
    assert str(forked_error.value) == str(serial.value)


def test_a_forked_run_leaves_no_child_behind(testbed):
    workload = generate_workload(testbed, 5, 0)
    with _forced_fork() as forked:
        simulate._answer_queries(testbed, workload)
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_live_thread_keeps_the_answers_in_one_process(testbed):
    workload = generate_workload(testbed, 5, 0)
    serial = simulate._answer_queries(testbed, workload)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with _forced_fork() as forked:
            assert simulate._answer_queries(testbed, workload) == serial
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forked == []


def test_a_child_that_dies_before_writing_changes_no_answer(testbed):
    cfg = dataclasses.replace(testbed, duration_ticks=12)
    workload = generate_workload(cfg, 6, 0)
    serial = simulate._answer_queries(cfg, workload)
    with _forced_fork(in_child=lambda: os._exit(1)) as forked:
        assert simulate._answer_queries(cfg, workload) == serial
    assert len(forked) == 1


def test_a_fork_that_fails_leaves_the_answers_to_this_process(testbed, monkeypatch):
    attempts = []

    def no_fork():
        attempts.append(None)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    workload = generate_workload(testbed, 5, 0)
    serial = simulate._answer_queries(testbed, workload)
    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(simulate, "_FORK_MIN_READINGS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert simulate._answer_queries(testbed, workload) == serial
    assert len(attempts) == 1
    assert len(os.listdir("/proc/self/fd")) == open_fds


def test_the_plan_lists_the_batches_a_serial_run_generates(generated):
    # in the order the answers first read them, so it counts a run's
    # readings before the run
    rng = random.Random(2024)
    for _ in range(20):
        cfg = ScenarioConfig(
            sensors=tuple(random_instance(rng, max_nodes=12)),
            threshold=50.0,
            duration_ticks=rng.randint(0, 10),
            seed=rng.getrandbits(32),
        )
        windows = [
            (rng.randint(0, max(0, cfg.duration_ticks - 1)),
             rng.sample(ALL, rng.randint(1, 4)),
             (start, start + rng.randint(0, 12)))
            for start in (rng.randint(0, 12) for _ in range(rng.randint(0, 4)))
        ]
        n_queries = rng.randint(0, 4) if cfg.duration_ticks else 0
        for workload in (_queries(*windows), generate_workload(cfg, n_queries, 0)):
            generated.clear()
            simulate._answer_queries(cfg, workload)
            plan = simulate._plan(cfg, sorted(workload.queries, key=lambda e: e[0]))
            per_type = Counter(sensor.sensor_type for sensor in cfg.sensors)
            assert sum(per_type[t] for t, _ in plan) == len(generated)
            assert generated == [
                (sensor.node_id, tick)
                for sensor_type, tick in plan
                for sensor in cfg.sensors
                if sensor.sensor_type is sensor_type
            ]


def test_a_serial_run_generates_every_planned_batch_before_its_first_answer(
    testbed, generated, monkeypatch
):
    # the plan holds 176 readings, under the fork threshold
    cfg = dataclasses.replace(testbed, duration_ticks=12)
    workload = generate_workload(cfg, 6, 0)
    at_first_answer = []
    real = simulate._answer

    def answer(*args):
        if not at_first_answer:
            at_first_answer.append(list(generated))
        return real(*args)

    monkeypatch.setattr(simulate, "_answer", answer)
    simulate._answer_queries(cfg, workload)
    planned = [
        (sensor.node_id, tick)
        for sensor_type, tick in simulate._plan(cfg, sorted(workload.queries, key=lambda e: e[0]))
        for sensor in cfg.sensors
        if sensor.sensor_type is sensor_type
    ]
    assert planned and at_first_answer == [planned]


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(_small_scenarios())
def test_strategies_answer_like_the_oracle(scenario):
    cfg, workload = scenario
    qcps = run_scenario(cfg, workload, QCPS).answered
    assert qcps == run_scenario(cfg, workload, FLAT).answered
    assert qcps == flat_answers_oracle(cfg, workload)


@pytest.mark.parametrize(
    "segment_length, speed",
    [(600.0, (1e-310, 1e-310)), (1e308, (0.1, 0.5))],
    ids=["subnormal_speed", "long_segment"],
)
def test_a_travel_time_that_overflows_raises_a_named_error(testbed, segment_length, speed):
    cfg = dataclasses.replace(testbed, duration_ticks=3, segment_length=segment_length)
    workload = _queries((2, (SPEED,), (0, 2)))
    message = "^segment_length: its travel time at the mean speed overflows a float$"
    for strategy in (QCPS, FLAT):
        with pytest.raises(ConfigError, match=message):
            run_scenario(cfg, workload, strategy, ranges=ReadingRanges(speed=speed))
    # an answer raises it, not a batch, so the forked path's fill must not pre-empt it
    with _forced_fork() as forked, pytest.raises(ConfigError, match=message):
        run_scenario(cfg, workload, QCPS, ranges=ReadingRanges(speed=speed))
    assert len(forked) == 1


@st.composite
def _stream_scenarios(draw):
    """Small runs with requests, overrides and duplicate positions; windows
    may run past the run, and a run may have zero ticks."""
    sensors = []
    for i in range(draw(st.integers(0, 7))):
        if sensors and draw(st.booleans()):
            position = draw(st.sampled_from(sensors)).position
        else:
            position = Position(*(draw(st.integers(0, 40)) for _ in range(3)))
        sensors.append(SensorNode(f"N{i}", draw(st.sampled_from(SensorType)), position))
    overrides = {}
    for sensor in sensors:
        if sensor.sensor_type not in overrides and draw(st.booleans()):
            overrides[sensor.sensor_type] = sensor.node_id
    ticks = draw(st.integers(0, 5))
    cfg = ScenarioConfig(
        sensors=tuple(sensors),
        threshold=draw(st.integers(1, 60)),
        duration_ticks=ticks,
        coordinator_overrides=overrides,
    )
    event_tick = st.integers(0, max(0, ticks - 1))
    queries = []
    for i in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, 7))
        services = draw(st.lists(st.sampled_from(Service), min_size=1, max_size=4, unique=True))
        window = (start, draw(st.integers(start, 9)))
        queries.append((draw(event_tick), CentricQuery(f"Q{i}", tuple(services), window)))
    ids = st.sampled_from([s.node_id for s in sensors]) if sensors else st.nothing()
    requests = draw(st.lists(st.tuples(event_tick, ids, ids), max_size=4 if sensors else 0))
    return cfg, Workload(queries=tuple(queries), requests=tuple(requests))


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(_stream_scenarios())
def test_runs_emit_the_stream_the_docstring_describes(scenario):
    cfg, workload = scenario
    for strategy in (QCPS, FLAT):
        expected = stream_oracle(cfg, workload, strategy)
        trace = run_scenario(cfg, workload, strategy)
        assert tuple(trace.messages) == expected.messages
        assert trace.compute_events == expected.compute_events
        costs = resum_costs(expected)
        _, items, events = next(simulate._run(cfg, workload, strategy))
        price = simulate._sum_costs(strategy, items, events, cfg.cost_params)
        assert {name: getattr(price, name) for name in costs} == costs


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _magnitudes(low, high):
    """Powers of ten from 10**low through 10**high, half of them extremes."""
    exponents = st.sampled_from((low, high)) | st.integers(low, high)
    return exponents.map(lambda exponent: 10.0**exponent)


@st.composite
def _any_ranges(draw):
    """Reading ranges anywhere in the float range, subnormal speeds included;
    a pair's width stays finite, as `ReadingRanges` requires."""
    top = sys.float_info.max

    def pair(low, high):
        first = draw(st.floats(low, high))
        return first, draw(st.floats(first, min(high, first + top)))

    low_count = draw(st.integers(0, 2**40))
    return ReadingRanges(
        speed=tuple(sorted(draw(st.tuples(_magnitudes(-323, 308), _magnitudes(-323, 308))))),
        temperature=pair(-top, top),
        humidity=pair(0.0, 100.0),
        light=pair(0.0, top),
        distorted_prob=draw(st.floats(0.0, 1.0)),
        crash_prob=draw(st.floats(0.0, 1.0)),
        vehicle_count=(low_count, draw(st.integers(low_count, 2**50))),
    )


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(_small_scenarios(), _any_ranges(), _magnitudes(-300, 308))
def test_traces_and_run_reports_are_strict_json(scenario, ranges, segment_length):
    # a run writes no inf or nan: its texts parse as strict JSON, or the
    # run raises the error that names the input at fault
    cfg, workload = scenario
    cfg = dataclasses.replace(cfg, segment_length=segment_length)
    workloads = [workload]
    if cfg.duration_ticks:  # generated queries ask every service over (0, tick)
        workloads.append(generate_workload(cfg, 3, 0))
    for workload, strategy in itertools.product(workloads, (QCPS, FLAT)):
        try:
            trace = run_scenario(cfg, workload, strategy, ranges=ranges)
        except ConfigError as exc:
            assert str(exc).startswith("segment_length: ")
            continue
        costs = {strategy: cost_of(trace, cfg.cost_params)}
        run_report = report.build_run_report(cfg, trace.grid_set, costs, trace.answered)
        for text in (serialize_trace(trace), report.canonical_json(run_report)):
            json.loads(text, parse_constant=_refuse_constant)


# sha256 of serialize_trace on the testbed with generate_workload(testbed, 20, 10),
# recorded from the recursive writer before the row writer replaced it.
TRACE_SHA256 = {
    QCPS: "0d03d98b431f8ec9b1a592c0219e8609a90e20c0f5fcedcd7c49d7ec189f9b3e",
    FLAT: "d42031bbe3d6b1e1453ae459973db7a2ce196ef5380f688d78cfe4ee0d488f91",
}


@pytest.fixture(scope="module")
def golden_run(testbed):
    workload = generate_workload(testbed, 20, 10)
    return workload, {s: run_scenario(testbed, workload, s) for s in (QCPS, FLAT)}


def test_trace_goldens(golden_run):
    _, traces = golden_run
    for strategy, trace in traces.items():
        text = serialize_trace(trace)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TRACE_SHA256[strategy]


def test_serialize_trace_matches_oracle_on_testbed(golden_run):
    _, traces = golden_run
    for trace in traces.values():
        assert_same_text(serialize_trace(trace), serialize_trace_oracle(trace))


@pytest.mark.parametrize("strategy", [QCPS, FLAT])
def test_runner_messages_are_written_as_their_dicts_at_any_depth(golden_run, strategy):
    trace = golden_run[1][strategy]
    messages, dicts = trace.messages, trace_dict(trace)["messages"]
    for place in (lambda m: m, lambda m: {"m": m}, lambda m: {"a": [{"m": m}]}):
        assert_same_text(report.canonical_json(place(messages)), report.canonical_json(place(dicts)))


def test_traces_match_serializer_and_count_oracles_over_random_scenarios():
    rng = random.Random(90210)
    for _ in range(12):
        sensors = random_instance(rng, max_nodes=12)
        cfg = dataclasses.replace(
            builtin_testbed(),
            sensors=tuple(sensors),
            threshold=rng.uniform(10, 200),
            duration_ticks=rng.randint(0, 10),
            seed=rng.getrandbits(32),
        )
        n_queries = rng.randint(0, 4) if cfg.duration_ticks else 0
        n_requests = rng.randint(0, 4) if cfg.duration_ticks and len(sensors) > 1 else 0
        workload = generate_workload(cfg, n_queries, n_requests)
        counts = {QCPS: qcps_message_count, FLAT: flat_message_count}
        for strategy, count in counts.items():
            trace = run_scenario(cfg, workload, strategy)
            assert_same_text(serialize_trace(trace), serialize_trace_oracle(trace))
            assert len(trace.messages) == count(cfg, workload)


class _Name(str):
    pass


def _api_trace(*messages, strategy=QCPS, events=()):
    return SimulationTrace(strategy, tuple(messages), tuple(events), None, ())


def _sent(src="VS_1", dst="VS_3", distance=1.5, tick=0, msg_id=0):
    return Message(msg_id, tick, src, dst, WIRELESS, "report", distance)


SERIALIZE_CASES = {
    "no_messages": _api_trace(),
    "no_messages_with_events": _api_trace(events=(ComputeEvent(0, CLOUD_SITE, 2),)),
    "no_grid_set": _api_trace(_sent(), _sent(msg_id=1, distance=0.0)),
    "int_distance": _api_trace(_sent(distance=7)),
    "negative_zero": _api_trace(_sent(distance=-0.0)),
    "tiny_negative": _api_trace(_sent(distance=-1e-9)),
    "non_finite": _api_trace(_sent(distance=float("inf")), _sent(distance=float("nan"))),
    "bool_tick": _api_trace(_sent(tick=True), _sent(tick=False)),
    "bool_distance": _api_trace(_sent(distance=True)),
    "str_subclass_ids": _api_trace(
        _sent(src=_Name("VS_1"), dst=_Name('q"')), strategy=_Name(FLAT)
    ),
    "json_escapes": _api_trace(
        _sent(src='quote"d', dst="back\\slash"),
        _sent(src="Zürich", dst="東京"),
        _sent(src="tab\tnew\nline", dst="\x00"),
    ),
    "nested_values": _api_trace(
        _sent(src=("a", 1), dst={"b": [2.5, None]}, distance=None),
        _sent(src=[], dst={}),
    ),
    "one_full_chunk": _api_trace(
        *(_sent(msg_id=i, tick=i // 16) for i in range(4096))
    ),
    "chunk_and_one_row": _api_trace(
        *(_sent(msg_id=i, distance=i / 7) for i in range(4096 + 1))
    ),
}


@pytest.mark.parametrize("case", sorted(SERIALIZE_CASES))
def test_serialize_trace_matches_oracle_for_api_traces(case):
    trace = SERIALIZE_CASES[case]
    assert_same_text(serialize_trace(trace), serialize_trace_oracle(trace))


@pytest.mark.parametrize(
    "actual, expected, offset",
    [("abcX" + "d" * 300, "abcY" + "d" * 300, 3), ("abc", "abcd", 3), ("", "a", 0)],
)
def test_assert_same_text_reports_the_first_difference(actual, expected, offset):
    assert_same_text(expected, expected)
    with pytest.raises(AssertionError, match=rf"^texts differ at offset {offset} ") as info:
        assert_same_text(actual, expected)
    assert len(str(info.value)) < 600


def test_message_counts_match_closed_forms_on_goldens(testbed, golden_run):
    workload, traces = golden_run
    assert len(traces[QCPS].messages) == qcps_message_count(testbed, workload) == 1620 + 1660
    assert len(traces[FLAT].messages) == flat_message_count(testbed, workload) == 31060


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_message_counts_match_closed_forms_for_api_windows(testbed, case):
    ticks, queries = WINDOW_CASES[case]
    cfg = dataclasses.replace(testbed, duration_ticks=ticks)
    workload = Workload(queries=queries.queries, requests=((0, "VS_1", "ES_2"),))
    assert len(run_scenario(cfg, workload, QCPS).messages) == qcps_message_count(
        cfg, workload
    )
    assert len(run_scenario(cfg, workload, FLAT).messages) == flat_message_count(
        cfg, workload
    )


def _unit_cross(sensor_type, prefix, far):
    """A coordinator at the origin with eight members about 1.0 away, and two
    sensors of another type 2.5e16 apart, beyond which adding 1.0 is lost."""
    units = [
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0)
    ]
    sensors = [SensorNode(f"{prefix}_0", sensor_type, Position(0.0, 0.0, 0.0))]
    sensors += [
        SensorNode(f"{prefix}_{i + 1}", sensor_type, Position(*map(float, unit)))
        for i, unit in enumerate(units)
    ]
    sensors += [
        SensorNode("FAR_0", far, Position(-1.25e16, 0.0, 0.0)),
        SensorNode("FAR_1", far, Position(1.25e16, 0.0, 0.0)),
    ]
    return ScenarioConfig(sensors=tuple(sensors), threshold=3e16, duration_ticks=1)


def test_pricing_keeps_the_emission_order_of_every_hop(tmp_path):
    # hops of about 1e16 and 1.0 mixed, so any other summation order gives a
    # different float; every pricing path must add them one by one in order
    cfg = _unit_cross(SensorType.VISION, "A", SensorType.SPEED)
    topology = tmp_path / "mixed.json"
    topology.write_text(dump_topology(cfg), encoding="utf-8")
    workload = generate_workload(cfg, 2, 2)
    comparison = compare_strategies(cfg, workload)
    for strategy in (QCPS, FLAT):
        trace = run_scenario(cfg, workload, strategy)
        expected = resum_costs(trace)
        total = expected["total_wireless_distance"]
        reversed_total = 0.0
        for message in reversed(trace.messages):
            if message.medium == WIRELESS:
                reversed_total += message.wireless_distance
        assert reversed_total != total
        for priced in (cost_of(trace, cfg.cost_params), getattr(comparison, strategy)):
            assert priced.total_wireless_distance.hex() == total.hex()
            for metric, value in expected.items():
                assert getattr(priced, metric) == value
        csv = _cli_run(tmp_path, strategy, "csv", "--topology", str(topology),
                       "--queries", "2", "--requests", "2")
        row = dict(zip(*(line.split(",") for line in csv.splitlines())))
        assert row["total_wireless_distance"] == format(total, ".6f")
        assert row["total_wireless_distance"] != format(reversed_total, ".6f")


ODD_IDS = ("per%cent", "fmt%s", "%%d", 'q"uote', "Zürich", "東京", "%(x)s")


@pytest.mark.parametrize("strategy", [QCPS, FLAT])
def test_serialize_trace_matches_oracle_for_odd_sensor_ids(strategy):
    # a block's names are written into its fixed texts once and reused by
    # every item, so quotes, `%` and non-ASCII must come out as the writer
    # escapes them in a message dict
    sensors = tuple(
        SensorNode(node_id, list(SensorType)[i % 4], Position(i * 7.0, (i * 13) % 50, i % 3))
        for i, node_id in enumerate(ODD_IDS + tuple(f"N_{i}" for i in range(9)))
    )
    cfg = ScenarioConfig(sensors=sensors, threshold=30.0, duration_ticks=6)
    workload = Workload(
        queries=((2, CentricQuery("Q%s", ALL, (0, 2))), (5, CentricQuery("Q2", (ENV,), (3, 7)))),
        requests=((1, "fmt%s", 'q"uote'), (4, "東京", "%%d")),
    )
    trace = run_scenario(cfg, workload, strategy)
    assert {m.src for m in trace.messages} >= set(ODD_IDS)
    assert_same_text(serialize_trace(trace), serialize_trace_oracle(trace))


ZERO_LENGTH_CASES = {
    # flat polls no sensor for a service whose type has none
    "flat_service_without_sensors": (
        FLAT,
        lambda s: s.sensor_type is not SensorType.SPEED,
        _queries((1, (SPEED,), (0, 2)), (2, ALL, (1, 2)), (3, (SPEED, ENV), (0, 0))),
    ),
    # qcps with no sensors of one type, and with none at all: every report
    # block of the second run is empty
    "qcps_type_without_sensors": (
        QCPS, lambda s: s.sensor_type is not SensorType.VISION, _queries((1, ALL, (0, 1)))
    ),
    "qcps_without_sensors": (
        QCPS, lambda s: False, _queries((1, ALL, (0, 1)), (2, (ENV,), (0, 2)))
    ),
}


@pytest.mark.parametrize("case", sorted(ZERO_LENGTH_CASES))
def test_zero_length_blocks_keep_the_messages_aligned(testbed, case):
    strategy, keep, workload = ZERO_LENGTH_CASES[case]
    cfg = dataclasses.replace(
        testbed, sensors=tuple(filter(keep, testbed.sensors)), duration_ticks=4
    )
    items = tuple(next(simulate._run(cfg, workload, strategy))[1])
    rows = [(tick, *row) for tick, block in items for row in block.rows]
    expected = tuple(Message(i, *row) for i, row in enumerate(rows))
    trace = run_scenario(cfg, workload, strategy)
    messages = trace.messages
    if not cfg.sensors or strategy == FLAT:
        assert any(not block.rows for _, block in items)
    n = len(expected)
    assert len(messages) == n > 0
    assert tuple(messages) == expected
    assert [messages[i] for i in range(-n, n)] == list(expected + expected)
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            messages[index]
    for window in (slice(None), slice(1, -1), slice(None, None, -2), slice(n - 3, n + 5)):
        assert messages[window] == expected[window]
    assert_same_text(serialize_trace(trace), serialize_trace_oracle(trace))


def test_messages_equal_row_wise_whatever_their_blocks():
    # the same rows split into blocks differently are the same messages
    rows = [
        (0, "a", "b", WIRELESS, "request", 1.5),
        (0, "b", "a", WIRELESS, "response", 1.5),
        (1, "a", CLOUD_SITE, INFRASTRUCTURE, "report", 0.0),
    ]
    whole = simulate._Messages(
        ((0, simulate._block(row[1:] for row in rows[:2])), (1, simulate._block([rows[2][1:]])))
    )
    split = simulate._Messages(
        tuple((tick, simulate._block([row])) for tick, *row in rows)
        + ((1, simulate._block(())),)
    )
    assert whole == split and split == whole
    assert hash(whole) == hash(split)
    assert repr(whole) == repr(split)
    assert whole != simulate._Messages(split._items[:2])
    empty = simulate._Messages(())
    assert len(empty) == 0 and not empty and tuple(empty) == ()
    assert empty == simulate._Messages(((3, simulate._block(())),))


@pytest.mark.parametrize("gap", [1e300, 2**1000, 1e154], ids=["float", "int", "just_over"])
def test_runs_reject_sensors_whose_distances_overflow(testbed, gap):
    # the layout itself is valid config; only pricing it would overflow
    sensors = list(testbed.sensors)
    for i, x in ((0, gap), (1, -gap)):
        sensors[i] = dataclasses.replace(sensors[i], position=Position(x, 0, 0))
    cfg = dataclasses.replace(testbed, sensors=tuple(sensors), duration_ticks=2)
    assert load_topology(dump_topology(cfg)) == cfg
    workload = generate_workload(cfg, 1, 1)
    for price in (
        lambda: compare_strategies(cfg, workload),
        lambda: run_scenario(cfg, workload, QCPS),
        lambda: run_scenario(cfg, workload, FLAT),
    ):
        with pytest.raises(ConfigError, match=r"^sensors: "):
            price()


def test_runs_price_sensors_just_inside_a_float():
    # a bounding-box diagonal of about 1.3e154 still squares to a finite float
    cfg = _unit_cross(SensorType.VISION, "A", SensorType.SPEED)
    sensors = cfg.sensors[:-2] + tuple(
        dataclasses.replace(s, position=Position(x, 0.0, 0.0))
        for s, x in zip(cfg.sensors[-2:], (-6.5e153, 6.5e153))
    )
    cfg = dataclasses.replace(cfg, sensors=sensors, threshold=1e155)
    workload = generate_workload(cfg, 1, 1)
    comparison = compare_strategies(cfg, workload)
    for strategy in (QCPS, FLAT):
        report_ = getattr(comparison, strategy)
        assert report_.total_wireless_distance > 1e154
        assert report_.monetized_total < float("inf")


# 2.0 of radio distance, two infrastructure messages and two operations
_ONE_OF_EACH = SimulationTrace(
    QCPS,
    (
        Message(0, 0, "A", "B", WIRELESS, "report", 2.0),
        Message(1, 0, "B", CLOUD_SITE, INFRASTRUCTURE, "report"),
        Message(2, 0, CLOUD_SITE, "B", INFRASTRUCTURE, "response"),
    ),
    (ComputeEvent(0, CLOUD_SITE, 2),),
    None,
    (),
)


@pytest.mark.parametrize(
    "prices, field",
    [
        ((1e308, 0.0, 0.0), "cost_params.wireless_cost_per_unit_distance: "),
        ((0.0, 1e308, 0.0), "cost_params.infra_message_cost: "),
        ((0.0, 0.0, 1e308), "cost_params.computation_op_cost: "),
        ((5e307, 5e307, 5e307), "cost_params: "),  # each product finite, the sum not
    ],
    ids=["wireless", "infra", "computation", "total"],
)
def test_prices_whose_cost_overflows_raise_a_named_error(prices, field):
    assert cost_of(_ONE_OF_EACH, CostParams(*(p / 2 for p in prices))).monetized_total < float("inf")
    with pytest.raises(ConfigError, match="^" + re.escape(field)):
        cost_of(_ONE_OF_EACH, CostParams(*prices))


_prices = st.just(0.0) | st.floats(0.01, 100.0)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(_small_scenarios(), st.tuples(_prices, _prices, _prices), st.integers(-4, 4), st.data())
def test_monetized_total_scales_exactly_with_its_prices(scenario, prices, k, data):
    cfg, workload = scenario
    ids = [s.node_id for s in cfg.sensors]
    if len(ids) >= 2 and cfg.duration_ticks:
        pairs = st.permutations(ids).map(lambda order: order[:2])
        ticks = st.integers(0, cfg.duration_ticks - 1)
        requests = data.draw(st.lists(st.tuples(ticks, pairs), max_size=3))
        workload = dataclasses.replace(
            workload, requests=tuple((tick, *pair) for tick, pair in requests)
        )
    base = compare_strategies(
        dataclasses.replace(cfg, cost_params=CostParams(*prices)), workload
    )
    scaled = compare_strategies(
        dataclasses.replace(cfg, cost_params=CostParams(*(p * 2**k for p in prices))),
        workload,
    )
    for strategy in (QCPS, FLAT):
        total = getattr(base, strategy).monetized_total
        assert getattr(scaled, strategy).monetized_total == total * 2**k
    assert scaled.delta["monetized_total"] == base.delta["monetized_total"] * 2**k


_COORDINATES = st.one_of(
    st.integers(-(2**60), 2**60),
    st.integers(-(10**300), 10**300),
    st.floats(-1e300, 1e300),
    st.floats(9e299, 1e300),
    st.floats(-1e300, -9e299),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COORDINATES, _COORDINATES, _COORDINATES), min_size=1, max_size=12))
def test_gateway_position_is_bitwise_statistics_fmean(points):
    # statistics is only the oracle here; the package's one mean is cloud._mean
    sensors = tuple(
        SensorNode(f"S_{i}", SensorType.SPEED, Position(*point)) for i, point in enumerate(points)
    )
    gateway = simulate._gateway_position(sensors)
    expected = [statistics.fmean(point[axis] for point in points) for axis in range(3)]
    assert [float.hex(v) for v in dataclasses.astuple(gateway)] == list(map(float.hex, expected))


def _modules_loaded_by(code: str) -> list[str]:
    """The modules that running `code` in a fresh interpreter adds."""
    code = f"import sys\nbefore = set(sys.modules)\n{code}\nprint(sorted(set(sys.modules) - before))\n"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return ast.literal_eval(result.stdout.splitlines()[-1])


def test_import_loads_no_statistics_fractions_or_decimal():
    # every submodule, since importing the package alone loads none of them
    loaded = _modules_loaded_by(
        "import pkgutil, sensegrid\n"
        "for module in pkgutil.iter_modules(sensegrid.__path__):\n"
        "    if module.name != '__main__':\n"
        "        __import__(f'sensegrid.{module.name}')\n"
    )
    assert "sensegrid.simulate" in loaded and "sensegrid.cli" in loaded
    assert {"statistics", "fractions", "decimal"}.isdisjoint(loaded)


def test_import_loads_no_submodule():
    loaded = _modules_loaded_by(
        "import sensegrid\n"
        "assert {*sensegrid.__all__, 'simulate', 'workload'} <= set(dir(sensegrid))\n"
        "sensegrid.__version__, sensegrid.TOOL_VERSION\n"
    )
    assert [name for name in loaded if name.startswith("sensegrid")] == ["sensegrid"]


def test_public_names_are_their_submodules_own():
    for module, names in sensegrid._EXPORTS.items():
        for name in names:
            assert getattr(sensegrid, name) is getattr(importlib.import_module(f"sensegrid.{module}"), name)
    assert sensegrid.TOOL_VERSION is sensegrid.__version__ is report.TOOL_VERSION
    with pytest.raises(AttributeError, match="^module 'sensegrid' has no attribute 'missing'$"):
        sensegrid.missing


def test_star_import_submodule_access_and_pickles_work_from_a_fresh_import():
    loaded = _modules_loaded_by(
        "import pickle, sensegrid\n"
        "cfg = sensegrid.builtin_testbed()\n"
        "assert pickle.loads(pickle.dumps(cfg)) == cfg\n"
        "assert sensegrid.simulate.ScenarioConfig is type(cfg)\n"
        "from sensegrid import workload\n"
        "from sensegrid import *\n"
        "assert run_scenario is sensegrid.simulate.run_scenario and Workload is workload.Workload\n"
    )
    assert "sensegrid.report" in loaded


@pytest.mark.parametrize("argument", ["thresholds", "ranges"])
def test_run_scenario_rejects_a_missing_thresholds_or_ranges(argument):
    cfg = dataclasses.replace(builtin_testbed(), duration_ticks=3)
    workload = generate_workload(cfg, 2, 1)
    with pytest.raises(ConfigError, match=rf"^{argument}: expected a "):
        run_scenario(cfg, workload, QCPS, **{argument: None})


def test_velocity_answer_whose_speed_sum_overflows_is_finite(testbed):
    cfg = dataclasses.replace(testbed, duration_ticks=3)
    workload = _queries((2, (SPEED,), (0, 2)))
    ranges = ReadingRanges(speed=(1e308, 1.5e308))
    for strategy in (QCPS, FLAT):
        section = run_scenario(cfg, workload, strategy, ranges=ranges).answered[0][1].sections
        assert 1e308 <= section[SPEED].mean_speed <= 1.5e308


def test_cost_of_rejects_cost_params_of_the_wrong_type():
    with pytest.raises(ConfigError, match="^cost_params: expected a CostParams, got NoneType$"):
        cost_of(_ONE_OF_EACH, None)


@st.composite
def _scenarios_with_requests(draw):
    cfg, workload = draw(_small_scenarios())
    ids = [s.node_id for s in cfg.sensors]
    if len(ids) >= 2 and cfg.duration_ticks:
        pairs = st.permutations(ids).map(lambda order: order[:2])
        ticks = st.integers(0, cfg.duration_ticks - 1)
        requests = draw(st.lists(st.tuples(ticks, pairs), max_size=3))
        workload = dataclasses.replace(
            workload, requests=tuple((tick, *pair) for tick, pair in requests)
        )
    return cfg, workload


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(_scenarios_with_requests(), st.data())
def test_order_preserving_relabelling_leaves_costs_unchanged(scenario, data):
    # medoid ties go to the smallest id, so the new ids keep the old order
    cfg, workload = scenario
    old = sorted(s.node_id for s in cfg.sensors)
    new = data.draw(
        st.lists(st.text("ab_XY0", min_size=1, max_size=4), min_size=len(old),
                 max_size=len(old), unique=True)
    )
    rename = dict(zip(old, sorted(new))).__getitem__
    relabelled = dataclasses.replace(
        cfg, sensors=tuple(dataclasses.replace(s, node_id=rename(s.node_id)) for s in cfg.sensors)
    )
    requests = tuple((tick, rename(a), rename(b)) for tick, a, b in workload.requests)
    moved = compare_strategies(relabelled, dataclasses.replace(workload, requests=requests))
    assert moved == compare_strategies(cfg, workload)


_SHIFTS = st.integers(-(2**60), 2**60)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(_scenarios_with_requests(), st.tuples(_SHIFTS, _SHIFTS, _SHIFTS))
def test_integer_translation_leaves_grids_and_qcps_costs_unchanged(scenario, shift):
    # integer gaps are exact; flat's distances are not compared, because its
    # centroid gateway is a float mean that rounds differently once moved
    cfg, workload = scenario
    sensors = tuple(
        dataclasses.replace(
            s, position=Position(*(c + d for c, d in zip(dataclasses.astuple(s.position), shift)))
        )
        for s in cfg.sensors
    )
    moved = dataclasses.replace(cfg, sensors=sensors)
    assert form_grids(sensors, cfg.threshold) == form_grids(cfg.sensors, cfg.threshold)
    before, after = compare_strategies(cfg, workload), compare_strategies(moved, workload)
    assert after.qcps == before.qcps
    counts = ("wireless_message_count", "infra_message_count", "cloud_op_count", "node_op_count")
    assert [getattr(after.flat, c) for c in counts] == [getattr(before.flat, c) for c in counts]


def test_cost_of_rejects_a_trace_that_is_not_one():
    with pytest.raises(ConfigError, match="^trace: expected a SimulationTrace, got NoneType$"):
        cost_of(None, CostParams())


@pytest.mark.parametrize("value", ["x", -1, True, 1.0], ids=["str", "negative", "bool", "float"])
@pytest.mark.parametrize("name", ["tick", "first_msg_id"])
def test_route_helpers_reject_a_tick_or_msg_id_that_is_not_a_count(
    testbed, testbed_grids, name, value
):
    expected = f"^{name}: expected a non-negative integer$"
    with pytest.raises(RoutingError, match=expected):
        route_user_query(FOUR_SERVICE_QUERY, Cloud(), 600.0, **{name: value})
    with pytest.raises(RoutingError, match=expected):
        route_sensor_request("VS_1", "ES_2", testbed_grids, testbed.by_id(), **{name: value})


def test_route_sensor_request_rejects_whole_arguments_of_the_wrong_type(testbed, testbed_grids):
    with pytest.raises(RoutingError, match="^grids: expected a GridSet, got NoneType$"):
        route_sensor_request("VS_1", "ES_2", None, testbed.by_id())
    with pytest.raises(RoutingError, match="^sensors_by_id: expected a dict, got NoneType$"):
        route_sensor_request("VS_1", "ES_2", testbed_grids, None)
    with pytest.raises(QueryError, match="^query: expected a CentricQuery, got NoneType$"):
        route_user_query(None, Cloud(), 600.0)


def test_negative_zero_prices_print_one_zero_in_every_format(testbed):
    # -0.0 is a non-negative price, and three of them make a -0.0 total
    cfg = dataclasses.replace(testbed, cost_params=CostParams(-0.0, -0.0, -0.0))
    comparison = compare_strategies(cfg, generate_workload(cfg, 2, 2))
    assert math.copysign(1.0, comparison.qcps.monetized_total) == -1.0
    rows = [line.split(",") for line in report.comparison_csv(comparison).splitlines()]
    assert rows[-1] == ["monetized_total", "0.000000", "0.000000", "0.000000", "Unchanged"]
    assert report.comparison_table(comparison).count("-0.000000") == 0
    costs_csv = report.cost_csv({QCPS: comparison.qcps})
    assert costs_csv.splitlines()[1].endswith(",0.000000")
    assert '"monetized_total": 0.000000' in report.canonical_json(
        report.comparison_dict(comparison)
    )


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"strategy": None}, "trace.strategy: expected a str, got NoneType"),
        ({"messages": None}, "trace.messages: expected a sequence of Message"),
        ({"messages": "abc"}, "trace.messages: expected a sequence of Message"),
        ({"compute_events": None}, "trace.compute_events: expected a tuple or list, got NoneType"),
        ({"answered": None}, "trace.answered: expected a tuple or list, got NoneType"),
        ({"grid_set": ()}, "trace.grid_set: expected a GridSet, got tuple"),
    ],
    ids=["strategy", "no_messages", "str_messages", "compute_events", "answered", "grid_set"],
)
def test_simulation_trace_rejects_containers_of_the_wrong_kind(fields, message):
    # cost_of and serialize_trace iterate these fields, so a wrong kind stops here
    base = {"strategy": QCPS, "messages": (), "compute_events": (), "grid_set": None, "answered": ()}
    with pytest.raises(ConfigError, match=f"^{message}$"):
        SimulationTrace(**{**base, **fields})


def test_simulation_trace_accepts_lists_and_a_grid_set(testbed):
    grids = form_grids(testbed.sensors, testbed.threshold)
    trace = SimulationTrace(QCPS, [_sent()], [ComputeEvent(0, CLOUD_SITE)], grids, [])
    assert cost_of(trace, testbed.cost_params).cloud_op_count == 1


def test_run_scenario_rejects_an_unknown_strategy_and_a_query_after_the_run(testbed):
    workload = generate_workload(testbed, 1, 0)
    with pytest.raises(ConfigError, match=r"^strategy: expected one of \('qcps', 'flat'\), got 'mesh'$"):
        run_scenario(testbed, workload, "mesh")
    late = Workload(queries=((100, CentricQuery("Q1", (Service.ENVIRONMENT,), (0, 1))),))
    for strategy in (QCPS, FLAT):
        with pytest.raises(WorkloadError, match="^query Q1: tick 100 outside the run$"):
            run_scenario(testbed, late, strategy)


def test_route_sensor_request_rejects_a_sensor_the_grid_set_does_not_cover(testbed):
    grids = form_grids([s for s in testbed.sensors if s.node_id != "SS_2"], testbed.threshold)
    with pytest.raises(RoutingError, match="^node 'SS_2' is not covered by this grid set$"):
        route_sensor_request("SS_1", "SS_2", grids, testbed.by_id())


@pytest.mark.parametrize("far", [1e308, 10**200], ids=["float", "int"])
def test_route_sensor_request_rejects_a_hop_no_float_holds(far):
    # a run rejects these sensors through _check_extent; this path checks its hop
    index = {
        "A": SensorNode("A", SensorType.VISION, Position(-far, 0.0, 0.0)),
        "B": SensorNode("B", SensorType.VISION, Position(far, 0.0, 0.0)),
    }
    grids = GridSet((Grid("A", SensorType.VISION, ("A", "B"), "B"),))
    message = "^sensors: positions too far apart; their distances overflow a float$"
    with pytest.raises(RoutingError, match=message):
        route_sensor_request("A", "B", grids, index)
    with pytest.raises(ConfigError, match=message):
        run_scenario(ScenarioConfig(tuple(index.values()), 1.0, duration_ticks=1), Workload(), QCPS)


def test_cost_comparison_derives_its_delta_from_the_two_reports(testbed):
    comparison = compare_strategies(testbed, generate_workload(testbed, 5, 5))
    rebuilt = CostComparison(comparison.qcps, comparison.flat)
    assert rebuilt == comparison
    assert list(rebuilt.delta) == list(simulate.COST_METRICS)
    renders = (
        report.comparison_csv,
        report.comparison_table,
        lambda c: report.canonical_json(report.comparison_dict(c)),
    )
    for render in renders:
        assert render(rebuilt) == render(comparison)
    with pytest.raises(TypeError):
        CostComparison(comparison.qcps, comparison.flat, delta={})
    for reports, message in (
        ((None, comparison.flat), "comparison.qcps: expected a CostReport, got NoneType"),
        ((comparison.qcps, "flat"), "comparison.flat: expected a CostReport, got str"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            CostComparison(*reports)


def test_run_report_forms_the_grids_a_flat_trace_lacks(testbed):
    cfg = dataclasses.replace(testbed, coordinator_overrides={SensorType.VISION: "VS_1"})
    trace = run_scenario(cfg, generate_workload(cfg, 3, 2), FLAT)
    costs = {FLAT: cost_of(trace, cfg.cost_params)}
    grids = form_grids(cfg.sensors, cfg.threshold, cfg.coordinator_overrides)
    flat_report = report.build_run_report(cfg, trace.grid_set, costs, trace.answered)
    assert flat_report == report.build_run_report(cfg, grids, costs, trace.answered)
    vision = next(g for g in flat_report["grids"] if g["type"] == "vision")
    assert (vision["coordinator"], vision["election"]) == ("VS_1", "overridden")
    with pytest.raises(ConfigError, match="^grids: expected a GridSet, got list$"):
        report.build_run_report(cfg, [], costs, trace.answered)


@pytest.mark.parametrize(
    "render, message",
    [
        (lambda cfg: report.build_run_report(None, None, {}, ()),
         "cfg: expected a ScenarioConfig, got NoneType"),
        (lambda cfg: report.build_run_report(cfg, None, {"qcps": None}, ()),
         "costs.qcps: expected a CostReport, got NoneType"),
        (lambda cfg: report.build_run_report(cfg, None, {}, [5]),
         "answered[0]: expected a tuple, got int"),
        (lambda cfg: report.cost_csv({"x": None}), "costs.x: expected a CostReport, got NoneType"),
        (lambda cfg: report.cost_csv({None: CostReport(**_VALID_COSTS)}),
         "costs key: expected a str, got NoneType"),
        (lambda cfg: report.comparison_csv(None),
         "comparison: expected a CostComparison, got NoneType"),
        (lambda cfg: report.comparison_table(None),
         "comparison: expected a CostComparison, got NoneType"),
    ],
    ids=["run_report_cfg", "run_report_costs", "run_report_answered", "cost_csv",
         "cost_csv_key", "comparison_csv", "comparison_table"],
)
def test_report_builders_name_the_argument_at_fault(testbed, render, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        render(testbed)


def test_answered_entries_must_be_tick_report_pairs(testbed):
    answer = EstimationReport("Q1", {})
    for answered, message in (
        (None, "answered: expected a Sequence, got NoneType"),
        ([(1,)], "answered[0]: expected a (tick, report) pair"),
        (((1, "report"),), "answered[0][1]: expected a EstimationReport, got str"),
        ((("x", answer),), "answered[0][0]: expected a non-negative integer"),
        (((-1, answer),), "answered[0][0]: expected a non-negative integer"),
        (((True, answer),), "answered[0][0]: expected a non-negative integer"),
        ([(0, answer), (1.0, answer)], "answered[1][0]: expected a non-negative integer"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            report.build_run_report(testbed, None, {}, answered)


_ROAD = RoadConditionResult(True, 0.5, 1)


@pytest.mark.parametrize(
    "query_id, sections, message",
    [
        ("Q1", None, "report Q1: sections: expected a dict, got NoneType"),
        ("Q1", {"x": 1}, "report Q1: sections key: expected a Service, got str"),
        ("Q1", {Service.ENVIRONMENT: 1},
         "report Q1: sections.environment: expected a EnvironmentResult, got int"),
        ("Q1", {Service.ENVIRONMENT: _ROAD},
         "report Q1: sections.environment: expected a EnvironmentResult, got RoadConditionResult"),
        (5, {}, "report.query_id: expected a non-empty string"),
        ("", {}, "report.query_id: expected a non-empty string"),
    ],
    ids=["no_sections", "str_key", "int_section", "other_services_section", "int_id", "empty_id"],
)
def test_estimation_report_names_a_field_of_the_wrong_kind(query_id, sections, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        EstimationReport(query_id, sections)


def test_a_trace_with_answers_hashes(testbed):
    trace = run_scenario(testbed, generate_workload(testbed, 2, 0), QCPS)
    assert trace.answered and hash(trace) == hash(dataclasses.replace(trace))
    # the sections are left out of the hash, so it is the query id's
    answer = trace.answered[0][1]
    assert hash(answer) == hash(EstimationReport(answer.query_id, {Service.ROAD_CONDITION: _ROAD}))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"messages": [_sent(distance="x")]},
         "trace.messages[0].wireless_distance: expected a number"),
        ({"messages": [_sent(distance=None)]},
         "trace.messages[0].wireless_distance: expected a number"),
        ({"messages": [_sent(distance=10**400)]},
         "trace.messages[0].wireless_distance: too large for a float"),
        ({"compute_events": [ComputeEvent(0, CLOUD_SITE, "x")]},
         "trace.compute_events[0].op_count: expected a non-negative integer"),
        ({"compute_events": [ComputeEvent(0, CLOUD_SITE, 10**308)] * 2},
         "trace.compute_events op_count total: too large for a float"),
        ({"messages": [_sent(), 1]}, "trace.messages[1].src: missing field"),
        ({"compute_events": [None]}, "trace.compute_events[0].site: missing field"),
    ],
    ids=["str_distance", "none_distance", "huge_distance", "str_op_count", "huge_op_counts",
         "int_message", "none_event"],
)
def test_cost_of_names_the_malformed_entry_of_an_api_trace(fields, message):
    trace = dataclasses.replace(_api_trace(), **fields)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cost_of(trace, CostParams())


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"messages": [None]}, "trace.messages[0].msg_id: missing field"),
        ({"messages": [_sent(), 1]}, "trace.messages[1].msg_id: missing field"),
        ({"compute_events": [None]}, "trace.compute_events[0].tick: missing field"),
    ],
    ids=["none_message", "int_message", "none_event"],
)
def test_serialize_trace_names_the_entry_that_lacks_a_field(fields, message):
    trace = dataclasses.replace(_api_trace(), **fields)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        serialize_trace(trace)


def test_cost_of_prices_an_inf_distance_and_skips_an_infrastructure_one():
    trace = _api_trace(
        _sent(distance=float("inf")),
        Message(1, 0, "A", CLOUD_SITE, INFRASTRUCTURE, "report", "unread"),
    )
    costs = cost_of(trace, CostParams())
    assert costs.total_wireless_distance == costs.monetized_total == float("inf")
    assert (costs.wireless_message_count, costs.infra_message_count) == (1, 1)


_VALID_COSTS = {
    "strategy": QCPS,
    "total_wireless_distance": 1.5,
    "wireless_message_count": 1,
    "infra_message_count": 2,
    "cloud_op_count": 3,
    "node_op_count": 0,
    "monetized_total": 7.5,
}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("strategy", None, "expected a str, got NoneType"),
        ("total_wireless_distance", "abc", "expected a number"),
        ("total_wireless_distance", None, "expected a number"),
        ("monetized_total", True, "expected a number"),
        ("monetized_total", 10**400, "too large for a float"),
        ("wireless_message_count", 1.0, "expected a non-negative integer"),
        ("cloud_op_count", -1, "expected a non-negative integer"),
        ("node_op_count", False, "expected a non-negative integer"),
        ("infra_message_count", 10**400, "too large for a float"),
    ],
    ids=["strategy", "str_total", "none_total", "bool_total", "huge_total", "float_count",
         "negative_count", "bool_count", "huge_count"],
)
def test_cost_report_names_a_field_of_the_wrong_kind(field, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(f'cost_report.{field}: {message}')}$"):
        CostReport(**{**_VALID_COSTS, field: value})


def test_cost_report_accepts_int_and_non_finite_totals():
    for total, text in ((3, "3"), (float("inf"), "inf"), (float("nan"), "nan")):
        costs = CostReport(**{**_VALID_COSTS, "total_wireless_distance": total})
        assert report.cost_csv({QCPS: costs}).splitlines()[1].split(",")[1] == text


_COST_JUNK = st.one_of(
    st.text(max_size=3),
    st.none(),
    st.booleans(),
    st.integers(),
    st.just(10**400),
    st.floats(),
    st.lists(st.integers(), max_size=2),
    # canonical_json cannot write these: an int past the int-to-str digit
    # limit (where the interpreter has one), a dict with a non-str key, a set
    st.just(10**5000),
    st.just({1: "a non-str key"}),
    st.just(frozenset()),
)


def _entries_from_junk(kind, valid: dict):
    """Lists of `kind` built from valid fields, at most one of them junk, or
    a list of one junk entry; a plain `|` of the two would draw junk nearly
    every time, since each of junk's branches weighs as much as `kind`."""
    fields = st.dictionaries(st.sampled_from(sorted(valid)), _COST_JUNK, max_size=1)
    built = fields.map(lambda junk: kind(**{**valid, **junk}))
    return st.lists(built, max_size=3) | st.lists(_COST_JUNK, min_size=1, max_size=1)


_JUNK_MESSAGES = _entries_from_junk(Message, dataclasses.asdict(_sent()))
_JUNK_EVENTS = _entries_from_junk(ComputeEvent, {"tick": 0, "site": CLOUD_SITE, "op_count": 2})


def _returns_or_raises_a_sensegrid_error(call, *args, writes=False):
    """call(*args), or None if it raised a SenseGridError; a call that
    writes canonical JSON may also raise its TypeError for a value the
    writer cannot write."""
    try:
        return call(*args)
    except SenseGridError:
        return None
    except TypeError as exc:
        if writes and str(exc).startswith("cannot canonicalize"):
            return None
        raise


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(st.data())
def test_cost_layer_inputs_built_from_junk_return_or_raise_a_sensegrid_error(data):
    trace = SimulationTrace(QCPS, data.draw(_JUNK_MESSAGES), data.draw(_JUNK_EVENTS), None, ())
    _returns_or_raises_a_sensegrid_error(serialize_trace, trace, writes=True)
    priced = _returns_or_raises_a_sensegrid_error(cost_of, trace, CostParams())
    names = st.sampled_from(sorted(_VALID_COSTS))
    reports = [priced] + [
        _returns_or_raises_a_sensegrid_error(
            lambda junk: CostReport(**{**_VALID_COSTS, **junk}),
            data.draw(st.dictionaries(names, _COST_JUNK, max_size=2)),
        )
        for _ in range(2)
    ]
    reports = [r for r in reports if r is not None]
    keys = data.draw(st.lists(st.text(max_size=2) | st.none() | st.integers(), max_size=3))
    _returns_or_raises_a_sensegrid_error(report.cost_csv, dict(zip(keys, reports)))
    if len(reports) >= 2:
        comparison = CostComparison(reports[-2], reports[-1])
        report.comparison_table(comparison)
        report.comparison_csv(comparison)
        report.canonical_json(report.comparison_dict(comparison))


_VALID_GRIDS = (
    {"grid_id": "A", "sensor_type": SensorType.VISION, "members": ("A", "B"), "coordinator": "B",
     "election": "medoid"},
    {"grid_id": "C", "sensor_type": SensorType.SPEED, "members": ("C",), "coordinator": "C",
     "election": "overridden"},
)
_VALID_ANSWER = {"query_id": "Q1", "sections": {Service.ROAD_CONDITION: _ROAD}}
_VALID_SECTIONS = (
    (Service.ROAD_CONDITION, RoadConditionResult,
     {"data_available": True, "distorted_fraction": 0.5, "dominant_lane_count": 1}),
    (Service.CONGESTION, CongestionResult,
     {"data_available": True, "mean_vehicle_count": 3.0, "congestion_level": "low",
      "any_crash": False}),
)
# values that nearly fit each input: ("A", "B", "0") and ("C", "0") keep a
# valid grid's first member and coordinator but are out of order
_NEAR_MISSES = {
    "grid_id": ("Z", "B", 7),
    "sensor_type": ("vision",),
    "members": (("B", "A"), ("A", 7), (["A"],), ("A", "B", "0"), ("C", "0"), "AB"),
    "coordinator": ("Z", 7),
    "election": ("Medoid", 5),
    "grids": (("x",), (None,), []),
    "query_id": ("", 5),
    "sections": (None, {"x": 1}, {Service.ENVIRONMENT: 1}, {Service.ENVIRONMENT: _ROAD}),
    "tick": (-1, True, 1.0),
    "entry": ((0,), (0, "report"), [0, None]),
    "data_available": ("yes", 1, None, False),
    "distorted_fraction": (1.5, -0.5, [0.5], True, None),
    "dominant_lane_count": (3, 2.0, True, None),
    "congestion_level": ("extreme", "Low", None),
    "any_crash": (1, "no", None),
    "node": ("A", Position(0, 0, 0)),
    "missing": (None,),  # drops the coordinator's index entry; the value is not used
    "index": ("AB", ["A", "B"]),
    "requester": ("C", ["A"], 7),
    "target": ("C", ["A"], 7),
}


_POSITIONS = st.sampled_from((-sys.float_info.max, 0.0, sys.float_info.max)) | st.floats(
    allow_nan=False, allow_infinity=False
)


# what a result field holds when there is data, where that is not just any number
_SECTION_FIELD_HOLDS = {
    "distorted_fraction": lambda v: type(v) in (int, float) and 0 <= v <= 1,
    "dominant_lane_count": lambda v: type(v) is int and v in (1, 2),
    "congestion_level": lambda v: v in ("low", "medium", "high"),
    "any_crash": lambda v: type(v) is bool,
}


def _assert_section_holds(service: str, section: dict) -> None:
    """A result's fields, built or as written: `data_available` is a bool;
    without data no other field is set, and with data every one is, each a
    number (a bool is not one) or what `_SECTION_FIELD_HOLDS` asks for."""
    available = section["data_available"]
    others = {name: value for name, value in section.items() if name != "data_available"}
    assert type(available) is bool
    if not available:
        assert all(value is None for value in others.values())
        return
    names = [f.name for f in dataclasses.fields(_SECTION_TYPE[Service(service)])][1:]
    assert sorted(others) == sorted(names)
    for name, value in others.items():
        holds = _SECTION_FIELD_HOLDS.get(name)
        if holds is None:
            assert type(value) in (int, float)
        else:
            assert holds(value), (service, name, value)


def _assert_written_grids_and_answers_hold(written: str) -> None:
    """A written report or trace parses; each grid's ids are strs, its members
    distinct and sorted, the first its grid_id, and its election one of the
    two; each answer has a str query id and a non-negative int tick, and its
    sections hold as `_assert_section_holds` says."""
    document = json.loads(written)
    for grid in document["grids"] or ():
        members = grid["members"]
        assert all(isinstance(i, str) for i in (grid["coordinator"], *members))
        assert members == sorted(set(members)) and grid["grid_id"] == members[0]
        assert grid["election"] in ("medoid", "overridden")
    for answer in document["reports"]:
        assert isinstance(answer["query_id"], str)
        assert type(answer["tick"]) is int and answer["tick"] >= 0
        for service, section in answer["sections"].items():
            _assert_section_holds(service, section)


# each near miss is a case of its own, so every one is tried
_FAULTS = [pytest.param(None, None, id="none")] + [
    pytest.param(name, value, id=f"{name}-{i}")
    for name, values in _NEAR_MISSES.items()
    for i, value in enumerate(values)
]


@pytest.mark.parametrize("fault, near_miss", _FAULTS)
@settings(derandomize=True, deadline=None, max_examples=12, database=None)
@given(data=st.data())
def test_grid_and_answer_inputs_built_from_junk_return_or_raise_a_sensegrid_error(
    testbed, fault, near_miss, data
):
    """Everything is valid but the input `fault`: half the time `near_miss`,
    else any junk the cost-layer property draws."""
    junk = near_miss if data.draw(st.booleans()) else data.draw(_COST_JUNK)

    def junk_for(name, value):
        return junk if name == fault else value

    def built(kind, valid):
        """kind(**valid), the faulty field junk, or None if that raised; what
        it builds hashes, as a frozen value type's instances do."""
        value = _returns_or_raises_a_sensegrid_error(
            lambda: kind(**{name: junk_for(name, field) for name, field in valid.items()})
        )
        hash(value)
        return value

    # every grid takes the fault, and one answer, if there are any
    grids = [built(Grid, valid) for valid in _VALID_GRIDS]
    grid_set = built(GridSet, {"grids": tuple(g for g in grids if g is not None)})
    answered = [(0, EstimationReport(**_VALID_ANSWER)) for _ in range(data.draw(st.integers(0, 2)))]
    # the answer's sections take the fault too
    sections = {service: built(kind, valid) for service, kind, valid in _VALID_SECTIONS}
    for service, section in sections.items():
        if section is not None:
            _assert_section_holds(service.value, vars(section))
    sections = {service: section for service, section in sections.items() if section is not None}
    answer = built(EstimationReport, {"query_id": "Q1", "sections": sections})
    if answered and answer is not None:
        tick = junk_for("tick", data.draw(st.integers(0, 3)))
        answered[-1] = junk_for("entry", (tick, answer))
    run_report = _returns_or_raises_a_sensegrid_error(
        report.build_run_report, testbed, grid_set, {}, answered
    )
    # a tick past the int-to-str digit limit is an int canonical_json cannot write
    written = [
        _returns_or_raises_a_sensegrid_error(report.canonical_json, run_report, writes=True)
        if run_report is not None else None,
        _returns_or_raises_a_sensegrid_error(
            serialize_trace, SimulationTrace(QCPS, (), (), grid_set, answered), writes=True
        ),
    ]
    for text in written:
        if text is not None:
            _assert_written_grids_and_answers_hold(text)

    # two sensors whose distance may overflow; the coordinator's entry may be
    # junk or missing, or the whole index junk
    index = {
        i: SensorNode(i, SensorType.VISION, Position(*(data.draw(_POSITIONS) for _ in "xyz")))
        for i in "AB"
    }
    coordinator = data.draw(st.sampled_from("AB"))
    index[coordinator] = junk_for("node", index[coordinator])
    if fault == "missing":
        del index[coordinator]
    index = junk_for("index", index)
    members = junk_for("members", data.draw(st.sampled_from((("A",), ("A", "B"), ("B", "A")))))
    try:
        elected = elect_coordinator_ids(members, index)
    except SenseGridError:
        pass
    else:
        assert type(members) is tuple and elected in members
    pair = GridSet((Grid("A", SensorType.VISION, ("A", "B"), coordinator),))
    requester, target = (
        junk_for(name, data.draw(st.sampled_from("AB"))) for name in ("requester", "target")
    )
    legs = _returns_or_raises_a_sensegrid_error(route_sensor_request, requester, target, pair, index)
    for leg in legs or ():
        assert math.isfinite(leg.wireless_distance)


_VALID_PAYLOADS = (
    (VisionPayload, {"lane_count": 1, "distorted": True}),
    (SpeedPayload, {"vehicle_speed": 12.5}),
    (EnvironmentPayload, {"temperature": 20.0, "humidity": 50.0, "light": 300.0}),
    (MiscPayload, {"vehicle_count": 4, "crash": False}),
)
# values that nearly fit each field of a payload, a reading, a lookup or an
# answer; some are valid, as an infinite temperature is
_CLOUD_NEAR_MISSES = {
    "lane_count": (3, True, 1.0),
    "distorted": (1, "yes", None),
    "vehicle_speed": ("5", True, 0, math.nan, math.inf, 10**400),
    "temperature": ("hot", math.inf, -math.inf, math.nan, -(10**400)),
    "humidity": ("50", 100.5, math.nan, 100),
    "light": ("x", -1, math.inf, math.nan, 10**400),
    "vehicle_count": ("3", 2.5, True, -1, 10**400, int(sys.float_info.max)),
    "crash": ("no", 1, None),
    "sensor_id": ("", 7),
    "tick": (-1, True, 1.0, 4),
    "payload": (None, (1, False)),
    "sensor_type": ("vision", None),
    "service_name": ("Congestion", [], None),
    "cloud": (None, Cloud().db(SensorType.VISION)),
    "window": ((0,), (3, 1), (0, 10**400), [0, 3]),
    "segment_length": ("600", 0, math.inf, 10**400, 5e-324),
    "thresholds": (None, (5.0, 15.0)),
}
_CLOUD_FAULTS = [pytest.param(None, None, id="none")] + [
    pytest.param(name, value, id=f"{name}-{i}")
    for name, values in _CLOUD_NEAR_MISSES.items()
    for i, value in enumerate(values)
]


@pytest.mark.parametrize("fault, near_miss", _CLOUD_FAULTS)
@settings(derandomize=True, deadline=None, max_examples=12, database=None)
@given(data=st.data())
def test_cloud_inputs_built_from_junk_return_or_raise_a_sensegrid_error(fault, near_miss, data):
    """Everything is valid but the input `fault`, which each use draws anew:
    its valid value, `near_miss`, or any junk the cost-layer property draws,
    so a window may mix valid and junk readings. Payloads, readings and a
    cloud are built from them; answering a query and each estimator return
    or raise a SenseGridError, and every section they build holds."""

    def junk_for(name, value):
        if name != fault:
            return value
        return data.draw(st.sampled_from((value, near_miss)) | _COST_JUNK)

    cloud = Cloud()
    for kind, valid in _VALID_PAYLOADS:
        for sensor_id in ("S1", "S2"):
            payload = _returns_or_raises_a_sensegrid_error(
                lambda: kind(**{name: junk_for(name, value) for name, value in valid.items()})
            )
            reading = _returns_or_raises_a_sensegrid_error(
                Reading,
                junk_for("sensor_id", sensor_id),
                junk_for("tick", data.draw(st.integers(0, 3))),
                junk_for("payload", payload),
            )
            if reading is not None:
                cloud.ingest(reading)
    _returns_or_raises_a_sensegrid_error(database_for, junk_for("sensor_type", SensorType.SPEED))
    _returns_or_raises_a_sensegrid_error(service_from_name, junk_for("service_name", "congestion"))

    window = junk_for("window", (0, 3))
    segment_length = junk_for("segment_length", 600.0)
    thresholds = junk_for("thresholds", CongestionThresholds())
    query = _returns_or_raises_a_sensegrid_error(CentricQuery, "Q1", tuple(Service), window)
    answer = _returns_or_raises_a_sensegrid_error(
        answer_centric_query, query, junk_for("cloud", cloud), segment_length, thresholds
    )
    sections = list(answer.sections.items()) if answer is not None else []
    estimates = {
        Service.ROAD_CONDITION: lambda db: estimate_road_condition(db, window),
        Service.VELOCITY_TRAVEL_TIME: lambda db: estimate_velocity_travel_time(
            db, window, segment_length
        ),
        Service.ENVIRONMENT: lambda db: estimate_environment(db, window),
        Service.CONGESTION: lambda db: estimate_congestion(db, window, thresholds),
    }
    for service, estimate in estimates.items():
        db = _returns_or_raises_a_sensegrid_error(
            lambda: cloud.db(junk_for("sensor_type", SERVICE_SENSOR_TYPE[service]))
        )
        section = _returns_or_raises_a_sensegrid_error(estimate, db)
        if section is not None:
            sections.append((service, section))
    for service, section in sections:
        _assert_section_holds(service.value, vars(section))


def test_canonical_json_rejects_an_int_past_the_digit_limit():
    digits = len(huge_integer_literal())  # skips where there is no limit
    with pytest.raises(TypeError, match="^cannot canonicalize an int of that many digits$"):
        report.canonical_json({"count": [10**digits]})


def test_flat_rejects_a_window_longer_than_a_sequence_can_be(testbed):
    cfg = dataclasses.replace(testbed, duration_ticks=3)
    workload = Workload(queries=((1, CentricQuery("Q1", (Service.ENVIRONMENT,), (0, 2**63))),))
    message = f"^query Q1: window \\(0, {2**63}\\) spans more than {sys.maxsize} ticks$"
    with pytest.raises(WorkloadError, match=message):
        run_scenario(cfg, workload, FLAT)
    with pytest.raises(WorkloadError, match=message):
        compare_strategies(cfg, workload)
    assert len(run_scenario(cfg, workload, QCPS).messages) == 98


def test_compare_raises_qcps_errors_before_flat_checks_its_windows(testbed):
    # each strategy's own steps run in turn: qcps's cost overflows before
    # flat's window is checked
    cost_params = CostParams(wireless_cost_per_unit_distance=1e308)
    cfg = dataclasses.replace(testbed, duration_ticks=3, cost_params=cost_params)
    workload = _queries((1, (ENV,), (0, sys.maxsize)))
    with pytest.raises(ConfigError, match="^cost_params.wireless_cost_per_unit_distance: "):
        compare_strategies(cfg, workload)
    with pytest.raises(WorkloadError, match="spans more than"):
        run_scenario(cfg, workload, FLAT)


# any code point, lone surrogates too, with the ones JSON escapes drawn often
_ANY_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\/\x00\x1f\x7f\ud800\udfffé東\u2028')
)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(_ANY_TEXT)
def test_canonical_json_writes_a_str_as_json_dumps_does(text):
    assert report.canonical_json(text) == json.dumps(text) + "\n"
    assert report.canonical_json({text: text}) == f"{{\n  {json.dumps(text)}: {json.dumps(text)}\n}}\n"


def test_canonical_json_rejects_a_value_it_cannot_write():
    with pytest.raises(TypeError, match="^cannot canonicalize object$"):
        report.canonical_json(object())
    with pytest.raises(TypeError, match="^cannot canonicalize set$"):
        report.canonical_json({"key": [{1}]})
    # keys sort as the texts they are written as: 10 would come before 2
    with pytest.raises(TypeError, match="^cannot canonicalize a dict key of type int$"):
        report.canonical_json({1: "x", 2: "y", 10: "z"})
    with pytest.raises(TypeError, match="^cannot canonicalize a dict key of type int$"):
        report.canonical_json({"key": {1: "x", "1": "y"}})
