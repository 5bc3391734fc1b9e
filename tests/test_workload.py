import dataclasses
import json
import re

import pytest

from sensegrid import (
    CentricQuery,
    ConfigError,
    ReadingRanges,
    Service,
    Workload,
    WorkloadError,
    builtin_testbed,
    generate_reading,
    generate_workload,
    load_workload,
)
from sensegrid.cloud import (
    EnvironmentPayload,
    MiscPayload,
    PAYLOAD_TYPE,
    SpeedPayload,
    VisionPayload,
)
from sensegrid.workload import validate_workload


@pytest.fixture(scope="module")
def testbed():
    return builtin_testbed()


def test_same_key_same_reading(testbed):
    sensor = testbed.sensors[0]
    assert generate_reading(sensor, 7, 42) == generate_reading(sensor, 7, 42)
    # a continuous payload collides across keys with probability ~0
    env = next(s for s in testbed.sensors if s.node_id == "ES_1")
    assert generate_reading(env, 7, 42) != generate_reading(env, 8, 42)
    assert generate_reading(env, 7, 42) != generate_reading(env, 7, 43)


def test_payload_variant_matches_sensor_type(testbed):
    for sensor in testbed.sensors:
        reading = generate_reading(sensor, 0, 42)
        assert isinstance(reading.payload, PAYLOAD_TYPE[sensor.sensor_type])


def test_generation_is_order_independent(testbed):
    sensor = testbed.sensors[3]
    forward = [generate_reading(sensor, t, 42) for t in range(50)]
    backward = [generate_reading(sensor, t, 42) for t in reversed(range(50))]
    assert forward == list(reversed(backward))


def test_generated_values_in_declared_ranges(testbed):
    env = next(s for s in testbed.sensors if s.node_id == "ES_1")
    speed = next(s for s in testbed.sensors if s.node_id == "SS_1")
    misc = next(s for s in testbed.sensors if s.node_id == "MS_1")
    vision = next(s for s in testbed.sensors if s.node_id == "VS_1")
    for tick in range(10_000):
        payload = generate_reading(env, tick, 42).payload
        assert 10 <= payload.humidity <= 95
        assert -5 <= payload.temperature <= 45
        assert 0 <= payload.light <= 1000
    for tick in range(2_000):
        assert 5 <= generate_reading(speed, tick, 42).payload.vehicle_speed <= 35
        m = generate_reading(misc, tick, 42).payload
        assert 0 <= m.vehicle_count <= 40
        assert generate_reading(vision, tick, 42).payload.lane_count in (1, 2)


def test_workload_empty_counts(testbed):
    workload = generate_workload(testbed, 0, 0)
    assert workload == Workload()


@pytest.mark.parametrize(
    "args, field",
    [
        ((2.5, 0), "n_queries"),
        (("2", 0), "n_queries"),
        ((True, 0), "n_queries"),
        ((-1, 0), "n_queries"),
        ((0, 1.0), "n_requests"),
        ((0, False), "n_requests"),
        ((1, 1, True), "seed"),
        ((1, 1, -1), "seed"),
        ((1, 1, 1.5), "seed"),
        ((1, 1, 2**64), "seed"),
        ((1, 1, "1"), "seed"),
    ],
)
def test_generate_workload_rejects_bad_arguments(testbed, args, field):
    with pytest.raises(WorkloadError, match=rf"^{field}: "):
        generate_workload(testbed, *args)


def test_workload_same_seed_identical(testbed):
    assert generate_workload(testbed, 20, 10, seed=7) == generate_workload(
        testbed, 20, 10, seed=7
    )
    assert generate_workload(testbed, 20, 10, seed=7) != generate_workload(
        testbed, 20, 10, seed=8
    )


def test_workload_requests_are_distinct_pairs(testbed):
    workload = generate_workload(testbed, 0, 10)
    assert len(workload.requests) == 10
    for _, requester, target in workload.requests:
        assert requester != target


def test_workload_ticks_spread_over_duration(testbed):
    workload = generate_workload(testbed, 20, 0)
    ticks = [t for t, _ in workload.queries]
    assert ticks == list(range(0, 100, 5))
    for _, query in workload.queries:
        assert query.requested_services == tuple(Service)


def test_workload_zero_duration_with_events_rejected(testbed):
    cfg = dataclasses.replace(testbed, duration_ticks=0)
    with pytest.raises(WorkloadError):
        generate_workload(cfg, 1, 0)
    assert generate_workload(cfg, 0, 0) == Workload()


def test_load_workload_file():
    text = json.dumps(
        {
            "queries": [{"tick": 3, "services": ["environment", "congestion"]}],
            "requests": [{"tick": 5, "requester": "VS_1", "target": "ES_2"}],
        }
    )
    workload = load_workload(text)
    assert workload.queries[0][0] == 3
    assert workload.queries[0][1].requested_services == (
        Service.ENVIRONMENT,
        Service.CONGESTION,
    )
    assert workload.queries[0][1].window == (0, 3)
    assert workload.requests == ((5, "VS_1", "ES_2"),)


def test_load_workload_rejects_bad_shapes():
    with pytest.raises(WorkloadError):
        load_workload("[]")
    with pytest.raises(WorkloadError, match="unknown field"):
        load_workload(json.dumps({"polls": []}))
    with pytest.raises(WorkloadError, match="services"):
        load_workload(json.dumps({"queries": [{"tick": 0, "services": []}]}))
    with pytest.raises(WorkloadError, match="tick"):
        load_workload(json.dumps({"queries": [{"tick": -1, "services": ["environment"]}]}))
    for key in ("queries", "requests"):
        for value in (5, None, "ab", {"tick": 0}):
            with pytest.raises(WorkloadError, match=rf"^workload\.{key}: expected an array$"):
                load_workload(json.dumps({key: value}))
    for name in ({"a": 1}, ["environment"], 3):
        with pytest.raises(
            WorkloadError, match=r"^workload\.queries\[0\]\.services: expected service names$"
        ):
            load_workload(json.dumps({"queries": [{"tick": 0, "services": [name]}]}))


def test_validate_workload_checks_ids_and_ticks(testbed):
    validate_workload(generate_workload(testbed, 5, 5), testbed)
    with pytest.raises(WorkloadError, match="unknown sensor"):
        validate_workload(Workload(requests=((0, "VS_1", "nobody"),)), testbed)
    with pytest.raises(WorkloadError, match="outside the run"):
        validate_workload(Workload(requests=((100, "VS_1", "ES_2"),)), testbed)
    query = CentricQuery("Q1", (Service.ENVIRONMENT,), (0, 0))
    for tick in (0.5, 1.0, True, "1"):
        with pytest.raises(WorkloadError, match=r"^query Q1: tick .* is not an integer$"):
            validate_workload(Workload(queries=((tick, query),)), testbed)
        with pytest.raises(WorkloadError, match=r"^request: tick .* is not an integer$"):
            validate_workload(Workload(requests=((tick, "VS_1", "ES_2"),)), testbed)
    # containers must be sequences: a generator would be consumed by the check
    for field in ("queries", "requests"):
        with pytest.raises(WorkloadError, match=rf"^{field}: expected a tuple or list$"):
            validate_workload(Workload(**{field: iter(())}), testbed)
    for entry in ((1, "x"), (1,), (1, query, query), query):
        with pytest.raises(WorkloadError, match=r"^queries\[0\]: expected a \(tick, "):
            validate_workload(Workload(queries=(entry,)), testbed)
    for entry in ((1, "VS_1"), (1, ["VS_1"], "VS_2"), (1, "VS_1", None), "VS_1"):
        with pytest.raises(WorkloadError, match=r"^requests\[0\]: expected a \(tick, "):
            validate_workload(Workload(requests=(entry,)), testbed)


NAN = float("nan")

# case: (field, value, the message after "ranges.<field>: ")
BAD_RANGES = {
    "bound_not_finite": ("temperature", (-5.0, float("inf")), "must be finite"),
    "bound_nan": ("light", (NAN, 10.0), "must be finite"),
    "bound_too_large": ("speed", (1.0, 10**400), "too large for a float"),
    "low_above_high": ("humidity", (60.0, 40.0), "low bound exceeds high bound"),
    "not_a_pair": ("speed", (5.0,), "expected a (low, high) pair"),
    "speed_negative": ("speed", (-5.0, 5.0), "must be positive"),
    "speed_zero": ("speed", (0.0, 5.0), "must be positive"),
    "humidity_below_0": ("humidity", (-1.0, 50.0), "must lie in [0, 100]"),
    "humidity_above_100": ("humidity", (10.0, 100.5), "must lie in [0, 100]"),
    "light_negative": ("light", (-0.5, 10.0), "must be non-negative"),
    "vehicle_count_negative": ("vehicle_count", (-1, 5), "must be non-negative"),
    "vehicle_count_float": ("vehicle_count", (0, 5.5), "bounds must be integers"),
    "vehicle_count_bool": ("vehicle_count", (False, 5), "bounds must be integers"),
    "probability_above_1": ("crash_prob", 1.5, "must lie in [0, 1]"),
    "probability_negative": ("distorted_prob", -0.1, "must lie in [0, 1]"),
    "probability_nan": ("distorted_prob", NAN, "must lie in [0, 1]"),
}


@pytest.mark.parametrize("case", sorted(BAD_RANGES))
def test_reading_ranges_rejected(case):
    field, value, message = BAD_RANGES[case]
    with pytest.raises(ConfigError, match=re.escape(f"ranges.{field}: {message}")):
        ReadingRanges(**{field: value})


def test_reading_ranges_accept_their_limits(testbed):
    ranges = ReadingRanges(
        speed=(0.5, 0.5),
        humidity=(0.0, 100.0),
        light=(0.0, 0.0),
        distorted_prob=0.0,
        crash_prob=1.0,
        vehicle_count=(0, 0),
    )
    for sensor in testbed.sensors:
        generate_reading(sensor, 3, testbed.seed, ranges)
