import dataclasses
import math
import random
import re
import sys
from fractions import Fraction

import pytest

from sensegrid import (
    CentricQuery,
    Cloud,
    CongestionThresholds,
    ConfigError,
    QueryError,
    Reading,
    SensorType,
    Service,
    WrongDatabaseError,
    answer_centric_query,
    database_for,
    estimate_congestion,
    estimate_environment,
    estimate_road_condition,
    estimate_velocity_travel_time,
)
from sensegrid.cloud import (
    CloudDatabase,
    CongestionResult,
    EnvironmentPayload,
    EnvironmentResult,
    MiscPayload,
    RoadConditionResult,
    SpeedPayload,
    VelocityTravelTimeResult,
    VisionPayload,
    _mean,
    service_from_name,
)


def test_database_names():
    assert database_for(SensorType.VISION) == "VDB"
    assert database_for(SensorType.SPEED) == "SDB"
    assert database_for(SensorType.ENVIRONMENT) == "EDB"
    assert database_for(SensorType.MISCELLANEOUS) == "MDB"


def _speed(sensor_id, tick, value):
    return Reading(sensor_id, tick, SpeedPayload(value))


def _vision(sensor_id, tick, lanes, distorted):
    return Reading(sensor_id, tick, VisionPayload(lanes, distorted))


def _env(sensor_id, tick, t, h, light=0.0):
    return Reading(sensor_id, tick, EnvironmentPayload(t, h, light))


def _misc(sensor_id, tick, count, crash=False):
    return Reading(sensor_id, tick, MiscPayload(count, crash))


def test_ingest_appends_one_row():
    sdb = CloudDatabase(SensorType.SPEED)
    sdb.ingest(_speed("SS_1", 0, 12.0))
    assert len(sdb.tables["SS_1"]) == 1
    sdb.ingest(_speed("SS_1", 1, 14.0))
    assert len(sdb.tables["SS_1"]) == 2
    assert set(sdb.tables) == {"SS_1"}


def test_ingest_wrong_database_rejected():
    sdb = CloudDatabase(SensorType.SPEED)
    with pytest.raises(WrongDatabaseError):
        sdb.ingest(_vision("VS_1", 0, 2, False))


def test_ingest_lazy_table_creation():
    edb = CloudDatabase(SensorType.ENVIRONMENT)
    assert "ES_3" not in edb.tables
    edb.ingest(_env("ES_3", 0, 20.0, 50.0))
    assert len(edb.tables["ES_3"]) == 1


def test_road_condition_counts():
    vdb = CloudDatabase(SensorType.VISION)
    for tick, distorted in enumerate([True, False, False, False]):
        vdb.ingest(_vision("VS_1", tick, 2, distorted))
    result = estimate_road_condition(vdb, (0, 3))
    assert result.data_available
    assert result.distorted_fraction == 0.25


def test_road_condition_lane_mode_and_tie():
    vdb = CloudDatabase(SensorType.VISION)
    for tick, lanes in enumerate([1, 1, 2]):
        vdb.ingest(_vision("VS_1", tick, lanes, False))
    assert estimate_road_condition(vdb, (0, 2)).dominant_lane_count == 1
    vdb.ingest(_vision("VS_1", 3, 2, False))
    # 2-2 tie resolves to the wider road
    assert estimate_road_condition(vdb, (0, 3)).dominant_lane_count == 2


def test_road_condition_empty_window():
    vdb = CloudDatabase(SensorType.VISION)
    result = estimate_road_condition(vdb, (0, 10))
    assert not result.data_available
    assert result.distorted_fraction is None
    assert result.dominant_lane_count is None


def test_estimators_read_an_empty_database_of_any_type_as_no_data():
    # each estimator reads its own payload's fields, whatever the database
    for sensor_type in SensorType:
        db = CloudDatabase(sensor_type)
        assert not estimate_road_condition(db, (0, 3)).data_available
        assert not estimate_velocity_travel_time(db, (0, 3), 10.0).data_available
        assert not estimate_environment(db, (0, 3)).data_available
        assert not estimate_congestion(db, (0, 3)).data_available


def test_velocity_mean_and_travel_time():
    sdb = CloudDatabase(SensorType.SPEED)
    for tick, v in enumerate([10.0, 20.0, 30.0]):
        sdb.ingest(_speed("SS_1", tick, v))
    result = estimate_velocity_travel_time(sdb, (0, 2), segment_length=600.0)
    assert result.mean_speed == 20.0
    assert result.travel_time_ticks == 30.0


def test_velocity_single_reading():
    sdb = CloudDatabase(SensorType.SPEED)
    sdb.ingest(_speed("SS_1", 0, 15.0))
    result = estimate_velocity_travel_time(sdb, (0, 0), segment_length=15.0)
    assert result.mean_speed == 15.0
    assert result.travel_time_ticks == 1.0


def test_velocity_empty_window():
    sdb = CloudDatabase(SensorType.SPEED)
    assert not estimate_velocity_travel_time(sdb, (5, 9), 100.0).data_available


def test_environment_means():
    edb = CloudDatabase(SensorType.ENVIRONMENT)
    edb.ingest(_env("ES_1", 0, 20.0, 40.0, 5.0))
    edb.ingest(_env("ES_1", 1, 22.0, 60.0, 15.0))
    edb.ingest(_env("ES_2", 1, 21.0, 80.0, 10.0))
    result = estimate_environment(edb, (0, 1))
    assert result.mean_temperature == 21.0
    assert result.mean_humidity == 60.0
    assert result.mean_light == 10.0
    assert not estimate_environment(edb, (2, 9)).data_available


def test_congestion_levels_and_crash():
    mdb = CloudDatabase(SensorType.MISCELLANEOUS)
    mdb.ingest(_misc("MS_1", 0, 2))
    mdb.ingest(_misc("MS_1", 1, 4))
    low = estimate_congestion(mdb, (0, 1))
    assert low.mean_vehicle_count == 3.0
    assert low.congestion_level == "low"
    assert low.any_crash is False

    mdb2 = CloudDatabase(SensorType.MISCELLANEOUS)
    mdb2.ingest(_misc("MS_1", 0, 20))
    mdb2.ingest(_misc("MS_1", 1, 30, crash=True))
    high = estimate_congestion(mdb2, (0, 1))
    assert high.mean_vehicle_count == 25.0
    assert high.congestion_level == "high"
    assert high.any_crash is True


def test_congestion_medium_band_and_bad_thresholds():
    mdb = CloudDatabase(SensorType.MISCELLANEOUS)
    mdb.ingest(_misc("MS_1", 0, 10))
    assert estimate_congestion(mdb, (0, 0)).congestion_level == "medium"
    with pytest.raises(ConfigError):
        CongestionThresholds(low_max=15, medium_max=15)


def test_congestion_thresholds_must_be_numbers():
    with pytest.raises(ConfigError, match=r"^congestion thresholds\.low_max: expected a number$"):
        CongestionThresholds("a", "b")
    with pytest.raises(ConfigError, match=r"^congestion thresholds\.medium_max: "):
        CongestionThresholds(5.0, None)
    assert CongestionThresholds(5.0, float("inf")).medium_max == float("inf")


def _populated_cloud():
    cloud = Cloud()
    cloud.ingest(_vision("VS_1", 0, 2, False))
    cloud.ingest(_speed("SS_1", 0, 25.0))
    cloud.ingest(_env("ES_1", 0, 18.0, 55.0, 300.0))
    cloud.ingest(_misc("MS_1", 0, 7))
    return cloud


def test_answer_centric_query_all_services():
    report = answer_centric_query(
        CentricQuery("Q1", tuple(Service), (0, 0)), _populated_cloud(), 600.0
    )
    assert set(report.sections) == set(Service)
    assert all(s.data_available for s in report.sections.values())


def test_answer_centric_query_subset():
    report = answer_centric_query(
        CentricQuery("Q1", (Service.ENVIRONMENT,), (0, 0)), _populated_cloud(), 600.0
    )
    assert set(report.sections) == {Service.ENVIRONMENT}


def test_answer_centric_query_empty_store():
    report = answer_centric_query(
        CentricQuery("Q1", tuple(Service), (0, 9)), Cloud(), 600.0
    )
    assert len(report.sections) == 4
    assert not any(s.data_available for s in report.sections.values())


def test_query_validation():
    with pytest.raises(QueryError):
        CentricQuery("Q1", (), (0, 0))
    with pytest.raises(QueryError):
        CentricQuery("Q1", (Service.ENVIRONMENT,), (4, 2))
    with pytest.raises(QueryError):
        CentricQuery("Q1", (Service.ENVIRONMENT, Service.ENVIRONMENT), (0, 2))
    # a service name is not a service
    with pytest.raises(QueryError, match="requested_services"):
        CentricQuery("Q1", ("environment",), (0, 1))
    with pytest.raises(QueryError, match="requested_services"):
        CentricQuery("Q1", (Service.ENVIRONMENT, None), (0, 1))
    # the services are a tuple, so a query hashes and its list is fixed
    for services in ([Service.ENVIRONMENT], (s for s in [Service.ENVIRONMENT]), 3):
        with pytest.raises(QueryError, match="^query Q1: requested_services: expected a tuple"):
            CentricQuery("Q1", services, (0, 1))
    # the id is a non-empty string, which a trace can write
    for query_id in (object(), "", 1, None):
        with pytest.raises(QueryError, match="^query_id: expected a non-empty string$"):
            CentricQuery(query_id, (Service.ENVIRONMENT,), (0, 1))
    # the window is exactly two non-bool integer ticks
    for window in ((0, 1.5), (False, True), (0, True), (0, 1, 2), (0,), [0, 1], "01"):
        with pytest.raises(QueryError, match="window"):
            CentricQuery("Q1", (Service.ENVIRONMENT,), window)


def test_payload_validation():
    with pytest.raises(ConfigError):
        VisionPayload(lane_count=3, distorted=False)
    with pytest.raises(ConfigError):
        SpeedPayload(vehicle_speed=0.0)
    with pytest.raises(ConfigError):
        EnvironmentPayload(temperature=20.0, humidity=101.0, light=1.0)
    with pytest.raises(ConfigError):
        MiscPayload(vehicle_count=-1, crash=False)


def test_means_stay_within_input_bounds():
    rng = random.Random(1234)
    for _ in range(50):
        edb = CloudDatabase(SensorType.ENVIRONMENT)
        temps, hums, lights = [], [], []
        for tick in range(rng.randint(1, 40)):
            t, h, li = rng.uniform(-5, 45), rng.uniform(10, 95), rng.uniform(0, 1000)
            temps.append(t), hums.append(h), lights.append(li)
            edb.ingest(_env(f"ES_{rng.randint(1, 3)}", tick, t, h, li))
        result = estimate_environment(edb, (0, 10**6))
        assert min(temps) <= result.mean_temperature <= max(temps)
        assert min(hums) <= result.mean_humidity <= max(hums)
        assert min(lights) <= result.mean_light <= max(lights)


def test_estimators_are_deterministic_reads():
    cloud = _populated_cloud()
    query = CentricQuery("Q1", tuple(Service), (0, 5))
    first = answer_centric_query(query, cloud, 600.0)
    second = answer_centric_query(query, cloud, 600.0)
    assert first == second


_ESTIMATORS = {
    SensorType.VISION: estimate_road_condition,
    SensorType.SPEED: lambda db, window: estimate_velocity_travel_time(db, window, 600.0),
    SensorType.ENVIRONMENT: estimate_environment,
    SensorType.MISCELLANEOUS: estimate_congestion,
}

_ONE_READING = {
    SensorType.VISION: _vision("VS_1", 0, 2, False),
    SensorType.SPEED: _speed("SS_1", 0, 25.0),
    SensorType.ENVIRONMENT: _env("ES_1", 0, 18.0, 55.0),
    SensorType.MISCELLANEOUS: _misc("MS_1", 0, 7),
}


@pytest.mark.parametrize(
    "estimated, stored",
    [(a, b) for a in SensorType for b in SensorType if a is not b],
    ids=lambda t: t.value,
)
def test_estimators_reject_a_database_holding_another_type(estimated, stored):
    db = CloudDatabase(stored)
    # an empty database holds no reading of any type
    assert not _ESTIMATORS[estimated](db, (0, 3)).data_available
    db.ingest(_ONE_READING[stored])
    expected = f"^database: expected {database_for(estimated)}, got {db.name}$"
    for window in ((0, 3), (5, 9)):
        with pytest.raises(WrongDatabaseError, match=expected):
            _ESTIMATORS[estimated](db, window)


def test_estimators_reject_a_database_that_is_not_one():
    with pytest.raises(WrongDatabaseError, match="^database: expected VDB, got NoneType$"):
        estimate_road_condition(None, (0, 3))


@pytest.mark.parametrize("empty", [True, False], ids=["empty", "with_data"])
def test_estimator_arguments_of_the_wrong_type_raise_a_named_error(empty):
    cloud = Cloud() if empty else _populated_cloud()
    sdb, mdb = cloud.db(SensorType.SPEED), cloud.db(SensorType.MISCELLANEOUS)
    speed_query = CentricQuery("Q1", (Service.VELOCITY_TRAVEL_TIME,), (0, 0))
    for call in (
        lambda: estimate_velocity_travel_time(sdb, (0, 0), "600"),
        lambda: answer_centric_query(speed_query, cloud, "600"),
    ):
        with pytest.raises(ConfigError, match="^segment_length: expected a number$"):
            call()
    with pytest.raises(ConfigError, match="^thresholds: expected a CongestionThresholds$"):
        estimate_congestion(mdb, (0, 0), None)


def test_a_travel_time_that_overflows_raises_a_named_error():
    message = "^segment_length: its travel time at the mean speed overflows a float$"
    cloud = Cloud()
    cloud.ingest(_speed("SS_1", 0, 1e-310))
    cloud.ingest(_speed("SS_1", 1, 25.0))
    sdb = cloud.db(SensorType.SPEED)
    query = CentricQuery("Q1", (Service.VELOCITY_TRAVEL_TIME,), (0, 0))
    for call in (
        lambda: estimate_velocity_travel_time(sdb, (0, 0), 600.0),
        lambda: answer_centric_query(query, cloud, 600.0),
        # an int length that no float holds, at an ordinary speed
        lambda: estimate_velocity_travel_time(sdb, (1, 1), 10**400),
    ):
        with pytest.raises(ConfigError, match=message):
            call()
    assert estimate_velocity_travel_time(sdb, (1, 1), 600.0).travel_time_ticks == 24.0


def test_means_whose_sum_overflows_are_finite():
    sdb = CloudDatabase(SensorType.SPEED)
    for tick, v in enumerate([1e308, 1e308, 1.5e308, 1.3e308]):
        sdb.ingest(_speed("SS_1", tick, v))
    assert estimate_velocity_travel_time(sdb, (0, 1), 1.0).mean_speed == 1e308
    assert estimate_velocity_travel_time(sdb, (2, 3), 1.0).mean_speed == 1.4e308
    top = sys.float_info.max
    for column in ([top] * 5, [top, top, -top, top], [10**308, 1.5e308, 1.7e308]):
        exact = sum(map(Fraction, column)) / len(column)
        assert _mean(column) == pytest.approx(float(exact), rel=1e-15)


_SPEED_PAYLOAD = SpeedPayload(25.0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: answer_centric_query(CentricQuery("Q1", tuple(Service), (0, 0)), None, 600.0),
            WrongDatabaseError,
            "cloud: expected a Cloud, got NoneType",
        ),
        (
            lambda: answer_centric_query(None, Cloud(), 600.0),
            QueryError,
            "query: expected a CentricQuery, got NoneType",
        ),
        (lambda: Cloud().ingest(None), WrongDatabaseError, "reading: expected a Reading, got NoneType"),
        (
            lambda: CloudDatabase(SensorType.SPEED).ingest(_SPEED_PAYLOAD),
            WrongDatabaseError,
            "reading: expected a Reading, got SpeedPayload",
        ),
        (lambda: Reading("a", "x", _SPEED_PAYLOAD), ConfigError, "reading tick: expected an integer"),
        (lambda: Reading("a", True, _SPEED_PAYLOAD), ConfigError, "reading tick: expected an integer"),
        (lambda: Reading("a", 1.0, _SPEED_PAYLOAD), ConfigError, "reading tick: expected an integer"),
        (lambda: database_for("x"), ConfigError, "sensor_type: expected a SensorType, got str"),
        (lambda: database_for(None), ConfigError, "sensor_type: expected a SensorType, got NoneType"),
        (lambda: CloudDatabase("vision"), ConfigError, "sensor_type: expected a SensorType, got str"),
        (lambda: Cloud().db("x"), ConfigError, "sensor_type: expected a SensorType, got str"),
    ],
    ids=["no_cloud", "no_query", "cloud_ingest", "database_ingest", "str_tick", "bool_tick",
         "float_tick", "database_for_str", "database_for_none", "cloud_database_str", "cloud_db_str"],
)
def test_whole_object_arguments_of_the_wrong_type_raise_a_named_error(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("empty", [True, False], ids=["empty", "with_data"])
def test_answers_check_segment_length_and_thresholds_whatever_the_services(empty):
    # the query asks for neither velocity nor congestion, so no section reads them
    cloud = Cloud() if empty else _populated_cloud()
    query = CentricQuery("Q1", (Service.ENVIRONMENT,), (0, 0))
    for segment_length, message in (("600", "expected a number"), (0.0, "must be positive")):
        with pytest.raises(ConfigError, match=f"^segment_length: {message}$"):
            answer_centric_query(query, cloud, segment_length)
    with pytest.raises(ConfigError, match="^thresholds: expected a CongestionThresholds$"):
        answer_centric_query(query, cloud, 600.0, None)


@pytest.mark.parametrize("sensor_type", list(SensorType), ids=lambda t: t.value)
@pytest.mark.parametrize("empty", [True, False], ids=["empty", "with_data"])
def test_estimators_reject_a_malformed_window(sensor_type, empty):
    db = CloudDatabase(sensor_type)
    if not empty:
        db.ingest(_ONE_READING[sensor_type])
    shapes = (None, (0,), ("a", "b"), (0, 1, 2), [0, 1], (0, True), (0.0, 1))
    for window in shapes:
        with pytest.raises(QueryError, match="^window must be a pair of integer ticks$"):
            _ESTIMATORS[sensor_type](db, window)
    for window in ((-1, 2), (3, 1)):
        with pytest.raises(QueryError, match=r"^window must satisfy 0 <= from <= to$"):
            _ESTIMATORS[sensor_type](db, window)


@pytest.mark.parametrize(
    "args, message",
    [
        ((None, 0, _SPEED_PAYLOAD), "reading sensor_id: expected a non-empty string"),
        (("", 0, _SPEED_PAYLOAD), "reading sensor_id: expected a non-empty string"),
        (("a", -1, _SPEED_PAYLOAD), "reading tick: must be non-negative"),
        (("a", 0, None), "reading payload: expected a Payload, got NoneType"),
        (("a", 0, 3.0), "reading payload: expected a Payload, got float"),
    ],
    ids=["none_id", "empty_id", "negative_tick", "no_payload", "float_payload"],
)
def test_reading_rejects_a_field_of_the_wrong_kind(args, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        Reading(*args)


def test_payloads_keep_infinite_and_nan_readings_and_the_largest_float_count():
    cloud = Cloud()
    for i, payload in enumerate([
        EnvironmentPayload(math.inf, 50.0, math.nan),
        EnvironmentPayload(-math.inf, 50, math.inf),
        MiscPayload(int(sys.float_info.max), False),
        MiscPayload(int(sys.float_info.max), True),
    ]):
        cloud.ingest(Reading(f"S{i}", 0, payload))
    query = CentricQuery("Q1", (Service.ENVIRONMENT, Service.CONGESTION), (0, 0))
    sections = answer_centric_query(query, cloud, 600.0).sections
    assert math.isnan(sections[Service.ENVIRONMENT].mean_temperature)
    assert sections[Service.ENVIRONMENT].mean_humidity == 50.0
    assert math.isnan(sections[Service.ENVIRONMENT].mean_light)
    assert sections[Service.CONGESTION].mean_vehicle_count == sys.float_info.max
    assert sections[Service.CONGESTION].any_crash is True


@pytest.mark.parametrize("name, kind", [([], "list"), (10**5000, "int")], ids=["list", "huge_int"])
def test_a_service_name_that_is_not_a_str_is_named_by_its_type(name, kind):
    # the repr of an int past the int-to-str digit limit raises ValueError
    expected = f"unknown service of type {kind}; expected one of {sorted(s.value for s in Service)}"
    with pytest.raises(QueryError, match=f"^{re.escape(expected)}$"):
        service_from_name(name)


_FRACTION = "road_condition.distorted_fraction: expected a number in [0, 1]"
_LANES = "road_condition.dominant_lane_count: expected 1 or 2"


@pytest.mark.parametrize(
    "kind, args, message",
    [
        (RoadConditionResult, ("yes", [1], "x"), "road_condition.data_available: expected a bool"),
        (VelocityTravelTimeResult, (1, 5.0, 2.0),
         "velocity_travel_time.data_available: expected a bool"),
        (RoadConditionResult, (False, 0.5, 1),
         "road_condition.distorted_fraction: expected None without data"),
        (CongestionResult, (False, None, None, False),
         "congestion.any_crash: expected None without data"),
        (RoadConditionResult, (True, [1], 1), _FRACTION),
        (RoadConditionResult, (True, 1.5, 1), _FRACTION),
        (RoadConditionResult, (True, -0.1, 2), _FRACTION),
        (RoadConditionResult, (True, math.nan, 2), _FRACTION),
        (RoadConditionResult, (True, True, 2), _FRACTION),
        (RoadConditionResult, (True, 0.5, 3), _LANES),
        (RoadConditionResult, (True, 0.5, True), _LANES),
        (RoadConditionResult, (True, 0.5, 2.0), _LANES),
        (RoadConditionResult, (True, 0.5), _LANES),
        (VelocityTravelTimeResult, (True, "5", 2.0),
         "velocity_travel_time.mean_speed: expected a number"),
        (VelocityTravelTimeResult, (True, 5.0, False),
         "velocity_travel_time.travel_time_ticks: expected a number"),
        (EnvironmentResult, (True, 1.0, None, 2.0), "environment.mean_humidity: expected a number"),
        (EnvironmentResult, (True, 1.0, 2.0, [3.0]), "environment.mean_light: expected a number"),
        (CongestionResult, (True, 3.0, "extreme", True),
         "congestion.congestion_level: expected 'low', 'medium' or 'high'"),
        (CongestionResult, (True, 3.0, None, True),
         "congestion.congestion_level: expected 'low', 'medium' or 'high'"),
        (CongestionResult, (True, 3.0, "low", 1), "congestion.any_crash: expected a bool"),
        (CongestionResult, (True, True, "low", False),
         "congestion.mean_vehicle_count: expected a number"),
    ],
    ids=["str_available", "int_available", "fields_without_data", "crash_without_data",
         "list_fraction", "fraction_above_1", "negative_fraction", "nan_fraction", "bool_fraction",
         "three_lanes", "bool_lanes", "float_lanes", "no_lanes", "str_speed", "bool_travel_time",
         "no_humidity", "list_light", "unknown_level", "no_level", "int_crash", "bool_count"],
)
def test_results_name_a_field_of_the_wrong_kind(kind, args, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        kind(*args)


@pytest.mark.parametrize(
    "result",
    [
        RoadConditionResult(False),
        RoadConditionResult(True, 0, 1),
        RoadConditionResult(True, 1.0, 2),
        VelocityTravelTimeResult(True, math.inf, 0.0),  # an infinite speed's mean
        VelocityTravelTimeResult(True, 3, 10**400),
        EnvironmentResult(True, -40.0, math.nan, 0),
        CongestionResult(False),
        CongestionResult(True, 20.5, "high", False),
    ],
    ids=["road_none", "road_0", "road_1", "inf_speed", "int_speed", "nan_humidity",
         "congestion_none", "congestion_high"],
)
def test_results_accept_what_the_formulas_produce_and_any_mean(result):
    assert hash(result) == hash(dataclasses.replace(result))


def test_a_database_holds_only_readings_with_str_ids():
    # a window read sorts the table keys, which must all be str
    sdb = CloudDatabase(SensorType.SPEED)
    sdb.ingest(_speed("a", 0, 3.0))
    with pytest.raises(ConfigError, match="^reading sensor_id: "):
        sdb.ingest(_speed(None, 0, 3.0))
    assert estimate_velocity_travel_time(sdb, (0, 1), 10.0).mean_speed == 3.0
