import random
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
    EnvironmentPayload,
    MiscPayload,
    SpeedPayload,
    VisionPayload,
    _mean,
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
