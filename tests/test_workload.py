import dataclasses
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from sensegrid import (
    CentricQuery,
    ConfigError,
    Position,
    QueryError,
    ReadingRanges,
    SensorNode,
    SensorType,
    Service,
    Workload,
    WorkloadError,
    builtin_testbed,
    generate_reading,
    generate_workload,
    load_workload,
)
from sensegrid import workload as workload_module
from sensegrid.cloud import (
    EnvironmentPayload,
    MiscPayload,
    PAYLOAD_TYPE,
    SpeedPayload,
    VisionPayload,
    _check_payload_columns,
)
from sensegrid.workload import _reading_columns, validate_workload
from helpers import huge_integer_literal


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


NAN = float("nan")
INF = float("inf")


@st.composite
def _reading_ranges(draw):
    def pair(low, high):
        first = draw(st.floats(low, high))
        return first, draw(st.floats(first, high))

    low_count = draw(st.integers(0, 50))
    return ReadingRanges(
        speed=pair(1e-3, 1e3),
        temperature=pair(-100.0, 100.0),
        humidity=pair(0.0, 100.0),
        light=pair(0.0, 1e5),
        distorted_prob=draw(st.floats(0.0, 1.0)),
        crash_prob=draw(st.floats(0.0, 1.0)),
        vehicle_count=(low_count, draw(st.integers(low_count, 100))),
    )


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(
    sensor_type=st.sampled_from(SensorType),
    ids=st.lists(st.text(min_size=1, max_size=8), max_size=6, unique=True),
    tick=st.integers(0, 10**6),
    seed=st.integers(0, 2**64 - 1),
    ranges=_reading_ranges(),
)
def test_reading_columns_match_generate_reading(sensor_type, ids, tick, seed, ranges):
    sensors = [SensorNode(node_id, sensor_type, Position(0, 0, 0)) for node_id in ids]
    payloads = [generate_reading(s, tick, seed, ranges).payload for s in sensors]
    expected = [
        tuple(getattr(payload, f.name) for payload in payloads)
        for f in dataclasses.fields(PAYLOAD_TYPE[sensor_type])
    ]
    assert _reading_columns(sensors, tick, seed, ranges) == (expected if ids else [])


# rows of payload fields, and the error of the first payload check to fail
# in row order (None: every row is valid)
PAYLOAD_ROWS = {
    "later_row_fails_later_check": (
        EnvironmentPayload,
        [(20.0, 50.0, 1.0), (20.0, 50.0, -1.0), (20.0, 101.0, 1.0)],
        "light: must be non-negative",
    ),
    "one_row_fails_both_checks": (
        EnvironmentPayload, [(20.0, 100.5, -1.0)], "humidity: must lie in [0, 100]"
    ),
    "humidity_nan": (EnvironmentPayload, [(20.0, NAN, 1.0)], "humidity: must lie in [0, 100]"),
    "light_nan_passes": (EnvironmentPayload, [(20.0, 50.0, NAN)], None),
    "lane_count": (
        VisionPayload, [(1, False), (2, True), (3, False)], "lane_count: must be 1 or 2"
    ),
    "speed_nan": (SpeedPayload, [(1.0,), (NAN,)], "vehicle_speed: must be positive"),
    "vehicle_count": (
        MiscPayload, [(0, False), (-1, True)], "vehicle_count: must be non-negative"
    ),
    "all_valid": (MiscPayload, [(0, False), (7, True)], None),
    # a field's kind is checked before its range, in every row
    "str_speed_in_a_later_row": (
        SpeedPayload, [(1.0,), ("5",)], "vehicle_speed: expected a number"
    ),
    "bool_speed": (SpeedPayload, [(True,)], "vehicle_speed: expected a number"),
    "str_light_after_bad_humidity": (
        EnvironmentPayload,
        [(20.0, 50.0, "x"), (20.0, 101.0, 1.0)],
        "light: expected a number",
    ),
    "huge_speed": (SpeedPayload, [(10**400,)], "vehicle_speed: too large for a float"),
    "str_temperature": (EnvironmentPayload, [("hot", 50.0, 1.0)], "temperature: expected a number"),
    "huge_temperature": (
        EnvironmentPayload, [(-(10**400), 50.0, 1.0)], "temperature: too large for a float"
    ),
    "str_humidity": (EnvironmentPayload, [(20.0, "50", 1.0)], "humidity: expected a number"),
    "huge_light": (EnvironmentPayload, [(20.0, 50.0, 10**400)], "light: too large for a float"),
    "infinite_temperature_and_light_pass": (
        EnvironmentPayload, [(INF, 50.0, INF), (-INF, 50.0, NAN)], None
    ),
    "bool_lane_count": (VisionPayload, [(1, False), (True, False)], "lane_count: must be 1 or 2"),
    "float_lane_count": (VisionPayload, [(1.0, False)], "lane_count: must be 1 or 2"),
    "str_distorted": (VisionPayload, [(1, "yes")], "distorted: expected a bool"),
    "int_distorted": (VisionPayload, [(2, 1)], "distorted: expected a bool"),
    "str_vehicle_count": (MiscPayload, [("3", False)], "vehicle_count: expected an integer"),
    "float_vehicle_count": (
        MiscPayload, [(1, False), (2.5, False)], "vehicle_count: expected an integer"
    ),
    "bool_vehicle_count": (MiscPayload, [(True, False)], "vehicle_count: expected an integer"),
    "huge_vehicle_count": (
        MiscPayload, [(10**400, False)], "vehicle_count: too large for a float"
    ),
    "str_crash": (MiscPayload, [(3, "no")], "crash: expected a bool"),
}


def _error(check):
    try:
        check()
    except ConfigError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("case", sorted(PAYLOAD_ROWS))
def test_payload_column_checks_match_payloads(case):
    payload_type, rows, expected = PAYLOAD_ROWS[case]
    assert _error(lambda: [payload_type(*row) for row in rows]) == expected
    assert _error(lambda: _check_payload_columns(payload_type, list(zip(*rows)))) == expected


def test_reading_columns_reject_a_value_a_payload_rejects(testbed, monkeypatch):
    # uniform can round a draw just past its high bound; both reading paths
    # must then fail the payload's check
    def rounded_past_100(rng, ranges):
        return 20.0, 100.00000000000001, 5.0

    monkeypatch.setitem(workload_module._DRAW, SensorType.ENVIRONMENT, rounded_past_100)
    env = [s for s in testbed.sensors if s.sensor_type is SensorType.ENVIRONMENT]
    message = re.escape("humidity: must lie in [0, 100]")
    with pytest.raises(ConfigError, match=message):
        generate_reading(env[0], 3, testbed.seed)
    with pytest.raises(ConfigError, match=message):
        _reading_columns(env, 3, testbed.seed, ReadingRanges())


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
    with pytest.raises(
        WorkloadError, match=r"^workload\.queries\[0\]: expected an object with tick and services$"
    ):
        load_workload(json.dumps({"queries": [5]}))
    with pytest.raises(
        WorkloadError, match=r"^workload\.requests\[0\]: requester and target must be sensor ids$"
    ):
        load_workload(json.dumps({"requests": [{"tick": 0, "requester": 5, "target": "ES_2"}]}))
    for text in ("[" * 100_000 + "]" * 100_000, '{"queries": ' + "[" * 100_000):
        with pytest.raises(WorkloadError, match="^workload is not valid JSON: "):
            load_workload(text)


def test_load_workload_rejects_repeated_fields():
    cases = {
        "queries": '{"queries": [], "queries": []}',
        "tick": '{"queries": [{"tick": 1, "tick": 2, "services": ["environment"]}]}',
    }
    for field, text in cases.items():
        with pytest.raises(WorkloadError, match=rf"^workload: repeated field '{field}'$"):
            load_workload(text)


def test_load_workload_rejects_an_integer_literal_past_the_digit_limit():
    text = f'{{"queries": [{{"tick": {huge_integer_literal()}, "services": ["environment"]}}]}}'
    with pytest.raises(WorkloadError, match="^workload is not valid JSON: "):
        load_workload(text)


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



# case: (field, value, the message after "ranges.<field>: ")
BAD_RANGES = {
    "bound_not_finite": ("temperature", (-5.0, float("inf")), "must be finite"),
    "bound_nan": ("light", (NAN, 10.0), "must be finite"),
    "bound_too_large": ("speed", (1.0, 10**400), "too large for a float"),
    "low_above_high": ("humidity", (60.0, 40.0), "low bound exceeds high bound"),
    "width_overflows": ("temperature", (-1e308, 1e308), "its width overflows a float"),
    "not_a_pair": ("speed", (5.0,), "expected a (low, high) pair"),
    "speed_negative": ("speed", (-5.0, 5.0), "must be positive"),
    "speed_zero": ("speed", (0.0, 5.0), "must be positive"),
    "humidity_below_0": ("humidity", (-1.0, 50.0), "must lie in [0, 100]"),
    "humidity_above_100": ("humidity", (10.0, 100.5), "must lie in [0, 100]"),
    "light_negative": ("light", (-0.5, 10.0), "must be non-negative"),
    "vehicle_count_negative": ("vehicle_count", (-1, 5), "must be non-negative"),
    "vehicle_count_float": ("vehicle_count", (0, 5.5), "bounds must be integers"),
    "vehicle_count_bool": ("vehicle_count", (False, 5), "bounds must be integers"),
    "vehicle_count_bool_low": ("vehicle_count", (True, 5), "bounds must be integers"),
    "probability_bool": ("crash_prob", True, "expected a number"),
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


_SENSOR = SensorNode("SS_1", SensorType.SPEED, Position(0, 0, 0))


@pytest.mark.parametrize(
    "args, message",
    [
        ((None, 0, 1), "sensor: expected a SensorNode, got NoneType"),
        (("VS_1", 0, 1), "sensor: expected a SensorNode, got str"),
        ((_SENSOR, 0, 1, None), "ranges: expected a ReadingRanges"),
        ((_SENSOR, "x", 1), "reading tick: expected an integer"),
        ((_SENSOR, True, 1), "reading tick: expected an integer"),
    ],
    ids=["no_sensor", "sensor_id", "no_ranges", "str_tick", "bool_tick"],
)
def test_generate_reading_rejects_arguments_of_the_wrong_type(args, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        generate_reading(*args)


def test_generate_workload_rejects_requests_among_fewer_than_two_sensors(testbed):
    one = dataclasses.replace(testbed, sensors=testbed.sensors[:1])
    assert generate_workload(one, 3, 0).requests == ()
    with pytest.raises(WorkloadError, match="^inter-sensor requests need at least two sensors$"):
        generate_workload(one, 0, 1)


def test_load_workload_rejects_an_unknown_service_name():
    text = json.dumps({"queries": [{"tick": 1, "services": ["weather"]}]})
    with pytest.raises(QueryError, match=r"^unknown service 'weather'; expected one of \["):
        load_workload(text)
