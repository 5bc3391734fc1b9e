import dataclasses
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from sensegrid import (
    ConfigError,
    CongestionThresholds,
    CostParams,
    Position,
    ReadingRanges,
    ScenarioConfig,
    SenseGridError,
    SensorNode,
    SensorType,
    TESTBED_PLACEHOLDER_IDS,
    builtin_testbed,
    distance,
    dump_topology,
    load_topology,
)


def test_distance_pythagorean_triple():
    assert distance(Position(0, 0, 0), Position(3, 4, 0)) == 5.0


def test_distance_testbed_extremes():
    # VS_1 to VS_4: sqrt(84^2 + 11^2 + 25^2)
    d = distance(Position(5, 45, 48), Position(89, 56, 23))
    assert d == pytest.approx(88.329, abs=1e-3)


def test_distance_identical_positions_is_zero():
    p = Position(38, 35, 12)
    assert distance(p, p) == 0.0


def test_distance_rejects_an_integer_gap_no_float_holds():
    with pytest.raises(ConfigError, match=r"^distance: too large for a float$"):
        distance(Position(10**300, 0, 0), Position(0, 0, 0))
    # float squares still overflow to inf, which grid formation relies on
    assert distance(Position(1e300, 0, 0), Position(-1e300, 0, 0)) == math.inf


def test_distance_rejects_non_finite():
    with pytest.raises(ConfigError):
        Position(float("nan"), 0, 0)
    with pytest.raises(ConfigError):
        Position(0, float("inf"), 0)


def test_position_rejects_an_integer_too_large_for_a_float():
    with pytest.raises(ConfigError, match=r"^position\.x: too large for a float$"):
        Position(10**400, 0, 0)
    with pytest.raises(ConfigError, match=r"^position\.z: too large for a float$"):
        Position(0, 0, -(10**400))
    raw = _testbed_json()
    raw["sensors"][0]["x"] = 10**400
    with pytest.raises(
        ConfigError, match=r"^config\.sensors\[0\]\.x: too large for a float$"
    ):
        load_topology(json.dumps(raw))


@pytest.mark.parametrize(
    "value", [math.inf, math.nan, 10**400], ids=["inf", "nan", "huge_int"]
)
def test_scenario_numbers_must_be_finite(value):
    sensors = builtin_testbed().sensors
    with pytest.raises(ConfigError, match=r"^threshold: "):
        ScenarioConfig(sensors=sensors, threshold=value)
    with pytest.raises(ConfigError, match=r"^segment_length: "):
        ScenarioConfig(sensors=sensors, threshold=10, segment_length=value)
    with pytest.raises(ConfigError, match=r"^cost_params\.infra_message_cost: "):
        CostParams(infra_message_cost=value)


def test_distance_metric_properties():
    rng = random.Random(20240817)
    for _ in range(300):
        a, b, c = (
            Position(rng.uniform(-50, 150), rng.uniform(-50, 150), rng.uniform(-50, 150))
            for _ in range(3)
        )
        dab = distance(a, b)
        dba = distance(b, a)
        assert dab == dba
        assert dab >= 0.0
        assert distance(a, a) == 0.0
        # triangle inequality, with float-rounding headroom
        assert dab <= distance(a, c) + distance(c, b) + 1e-9


def test_builtin_testbed_contents():
    cfg = builtin_testbed()
    assert len(cfg.sensors) == 16
    nodes = cfg.by_id()
    assert nodes["VS_3"].position == Position(38, 35, 12)
    assert nodes["SS_2"].position == Position(94, 47, 80)
    assert nodes["ES_2"].position == Position(104, 35, 24)
    per_type = {t: 0 for t in SensorType}
    for s in cfg.sensors:
        per_type[s.sensor_type] += 1
    assert all(count == 4 for count in per_type.values())
    assert cfg.threshold == 100.0
    assert cfg.seed == 42
    assert TESTBED_PLACEHOLDER_IDS == {"MS_1"}


def test_builtin_testbed_validates_under_loader_rules():
    cfg = builtin_testbed()
    assert load_topology(dump_topology(cfg)) == cfg


def test_load_topology_roundtrip_random_configs():
    rng = random.Random(7)
    types = list(SensorType)
    for _ in range(25):
        sensors = tuple(
            SensorNode(
                f"S_{i}",
                rng.choice(types),
                Position(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10)),
            )
            for i in range(rng.randint(0, 8))
        )
        cfg = ScenarioConfig(
            sensors=sensors,
            threshold=rng.uniform(0.001, 500),
            cost_params=CostParams(rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 3)),
            segment_length=rng.uniform(0.1, 1000),
            duration_ticks=rng.randint(0, 50),
            seed=rng.getrandbits(64),
            coordinator_overrides=(
                {sensors[0].sensor_type: sensors[0].node_id} if sensors else {}
            ),
        )
        assert load_topology(dump_topology(cfg)) == cfg


# load_topology reads every number as a float, so integers round-trip only
# where float() is exact
_EXACT_INTS = st.integers(-(2**53), 2**53)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _positive(strategy):
    return strategy.filter(lambda v: v > 0)


@st.composite
def _configs(draw):
    ids = draw(
        st.lists(
            st.text(min_size=1, max_size=6).filter(lambda i: i not in ("cloud", "user", "gateway")),
            max_size=8,
            unique=True,
        )
    )
    coordinate = _EXACT_INTS | _FINITE
    sensors = tuple(
        SensorNode(
            node_id,
            draw(st.sampled_from(SensorType)),
            Position(draw(coordinate), draw(coordinate), draw(coordinate)),
        )
        for node_id in ids
    )
    overrides = {}
    for sensor_type in draw(st.sets(st.sampled_from(SensorType))):
        members = [s.node_id for s in sensors if s.sensor_type is sensor_type]
        if members:
            overrides[sensor_type] = draw(st.sampled_from(members))
    non_negative = st.integers(0, 2**53) | st.floats(0, 1e300)
    return ScenarioConfig(
        sensors=sensors,
        threshold=draw(_positive(_EXACT_INTS | _FINITE)),
        cost_params=CostParams(draw(non_negative), draw(non_negative), draw(non_negative)),
        segment_length=draw(_positive(_EXACT_INTS | _FINITE)),
        duration_ticks=draw(st.integers(0, 10**9)),
        seed=draw(st.integers(0, 2**64 - 1)),
        coordinator_overrides=overrides,
    )


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(_configs())
def test_load_topology_inverts_dump_topology(cfg):
    assert load_topology(dump_topology(cfg)) == cfg


# any number: bools, and integers that no float holds, included
_ANY_NUMBER = st.booleans() | st.integers() | st.floats() | st.sampled_from([2**53 + 1, 10**400])


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.data())
def test_a_config_that_constructs_reloads_or_names_an_inexact_integer(data):
    def number():
        return data.draw(_ANY_NUMBER)

    try:
        cfg = ScenarioConfig(
            sensors=tuple(
                SensorNode(f"N_{i}", data.draw(st.sampled_from(SensorType)),
                           Position(number(), number(), number()))
                for i in range(data.draw(st.integers(0, 3)))
            ),
            threshold=number(),
            cost_params=CostParams(number(), number(), number()),
            segment_length=number(),
        )
    except SenseGridError:
        return
    try:
        reloaded = load_topology(dump_topology(cfg))
    except ConfigError as exc:
        assert str(exc).endswith(": not exactly representable as a float")
    else:
        assert reloaded == cfg


def _testbed_json(**mutations):
    raw = json.loads(dump_topology(builtin_testbed()))
    raw.update(mutations)
    return raw


def test_load_topology_testbed_file():
    cfg = load_topology(json.dumps(_testbed_json()))
    assert len(cfg.sensors) == 16


def test_load_topology_duplicate_id():
    raw = _testbed_json()
    raw["sensors"][1]["id"] = "VS_1"
    with pytest.raises(ConfigError, match=r"sensors\[1\].id"):
        load_topology(json.dumps(raw))


def test_load_topology_zero_threshold():
    with pytest.raises(ConfigError, match="threshold"):
        load_topology(json.dumps(_testbed_json(threshold=0)))


def test_load_topology_unknown_field():
    with pytest.raises(ConfigError, match="radio_model"):
        load_topology(json.dumps(_testbed_json(radio_model="fancy")))


def test_load_topology_missing_field():
    raw = _testbed_json()
    del raw["seed"]
    with pytest.raises(ConfigError, match="seed"):
        load_topology(json.dumps(raw))


def test_load_topology_bad_sensor_type():
    for value in ("sonar", {}, [], ["speed"]):
        raw = _testbed_json()
        raw["sensors"][0]["type"] = value
        with pytest.raises(ConfigError, match=r"^config\.sensors\[0\]\.type: "):
            load_topology(json.dumps(raw))


def test_load_topology_rejects_non_json():
    with pytest.raises(ConfigError, match="JSON"):
        load_topology("{nope")
    for text in ("[" * 100_000 + "]" * 100_000, '{"sensors": ' + "[" * 100_000):
        with pytest.raises(ConfigError, match="^config is not valid JSON: "):
            load_topology(text)


def test_load_topology_rejects_repeated_fields():
    text = json.dumps(_testbed_json(threshold=100))
    load_topology(text)
    for field in ("threshold", "x"):  # top level, and the first sensor's
        with pytest.raises(ConfigError, match=rf"^config: repeated field '{field}'$"):
            load_topology(text.replace(f'"{field}": ', f'"{field}": 5, "{field}": ', 1))


def test_load_topology_override_must_name_known_sensor_of_type():
    raw = _testbed_json(coordinator_overrides={"environment": "VS_1"})
    with pytest.raises(ConfigError, match="coordinator_overrides"):
        load_topology(json.dumps(raw))
    raw = _testbed_json(coordinator_overrides={"environment": "nobody"})
    with pytest.raises(ConfigError, match="coordinator_overrides"):
        load_topology(json.dumps(raw))
    for overrides in ({"vision": "VS_1"}, None, [(SensorType.VISION, "VS_1")]):
        with pytest.raises(ConfigError, match="^coordinator_overrides: "):
            ScenarioConfig(builtin_testbed().sensors, 100.0, coordinator_overrides=overrides)


@pytest.mark.parametrize(
    "field, value",
    [("threshold", -1), ("segment_length", 0), ("duration_ticks", -1), ("seed", 2**64)],
)
def test_load_topology_range_errors_name_config_field(field, value):
    with pytest.raises(ConfigError, match=rf"^config\.{field}: "):
        load_topology(json.dumps(_testbed_json(**{field: value})))


@pytest.mark.parametrize("reserved", ["cloud", "user", "gateway"])
def test_sensor_id_may_not_alias_a_reserved_site(reserved):
    raw = _testbed_json()
    raw["sensors"][2]["id"] = reserved
    with pytest.raises(ConfigError, match=r"^config\.sensors\[2\]\.id: .*reserved"):
        load_topology(json.dumps(raw))
    sensors = (SensorNode(reserved, SensorType.SPEED, Position(0, 0, 0)),)
    with pytest.raises(ConfigError, match=r"^sensors\[0\]\.id: .*reserved"):
        ScenarioConfig(sensors=sensors, threshold=10)


@pytest.mark.parametrize(
    "field, value",
    [
        ("duration_ticks", "5"),
        ("duration_ticks", 2.5),
        ("duration_ticks", True),
        ("seed", "7"),
        ("seed", 1.5),
        ("seed", False),
    ],
)
def test_integer_fields_must_be_integers(field, value):
    sensors = builtin_testbed().sensors
    with pytest.raises(ConfigError, match=rf"^{field}: expected an integer$"):
        ScenarioConfig(sensors=sensors, threshold=10, **{field: value})
    with pytest.raises(ConfigError, match=rf"^config\.{field}: expected an integer$"):
        load_topology(json.dumps(_testbed_json(**{field: value})))


def test_scenario_config_rejects_negative_ticks_and_costs():
    sensors = builtin_testbed().sensors
    with pytest.raises(ConfigError):
        ScenarioConfig(sensors=sensors, threshold=10, duration_ticks=-1)
    with pytest.raises(ConfigError):
        CostParams(wireless_cost_per_unit_distance=-0.5)


def test_distance_is_plain_sqrt_of_squares():
    a = Position(1.25, -2.5, 3.75)
    b = Position(-4.5, 6.0, 0.125)
    dx, dy, dz = a.x - b.x, a.y - b.y, a.z - b.z
    assert distance(a, b) == math.sqrt(dx * dx + dy * dy + dz * dz)


@pytest.mark.parametrize(
    "node_id", [5, b"VS_1", ["VS_1"], None, ""], ids=["int", "bytes", "list", "none", "empty"]
)
def test_sensor_node_id_must_be_a_non_empty_string(node_id):
    with pytest.raises(ConfigError, match=r"^sensor id must be a non-empty string$"):
        SensorNode(node_id, SensorType.VISION, Position(0, 0, 0))


def test_sensor_node_id_may_be_a_str_subclass():
    class Name(str):
        pass

    node = SensorNode(Name("VS_1"), SensorType.VISION, Position(0, 0, 0))
    assert node.node_id == "VS_1"


@pytest.mark.parametrize("value", [2**53 + 1, -(2**53 + 1)], ids=["positive", "negative"])
def test_load_topology_rejects_an_integer_no_float_holds(value):
    raw = _testbed_json(threshold=value)
    with pytest.raises(
        ConfigError, match=r"^config\.threshold: not exactly representable as a float$"
    ):
        load_topology(json.dumps(raw))
    cfg = builtin_testbed()
    moved = dataclasses.replace(cfg.sensors[0], position=Position(value, 0, 0))
    cfg = dataclasses.replace(cfg, sensors=(moved, *cfg.sensors[1:]))
    with pytest.raises(
        ConfigError, match=r"^config\.sensors\[0\]\.x: not exactly representable as a float$"
    ):
        load_topology(dump_topology(cfg))


@pytest.mark.parametrize("value", [2**53, 2**53 + 2, -(2**53 + 2)])
def test_integers_a_float_holds_reload_exactly(value):
    cfg = builtin_testbed()
    moved = dataclasses.replace(cfg.sensors[0], position=Position(value, 0, 0))
    cfg = dataclasses.replace(cfg, sensors=(moved, *cfg.sensors[1:]), threshold=abs(value))
    reloaded = load_topology(dump_topology(cfg))
    assert reloaded == cfg
    assert reloaded.sensors[0].position.x == value
    assert reloaded.threshold == abs(value)


@pytest.mark.parametrize(
    "sensor_type, position, field",
    [
        ("vision", Position(0, 0, 0), "sensor_type"),
        (None, Position(0, 0, 0), "sensor_type"),
        (SensorType.VISION, (0, 0, 0), "position"),
        (SensorType.VISION, None, "position"),
    ],
    ids=["type_name", "type_none", "position_tuple", "position_none"],
)
def test_sensor_node_rejects_wrongly_typed_fields(sensor_type, position, field):
    with pytest.raises(ConfigError, match=rf"^sensor 'VS_1': {field}: expected a "):
        SensorNode("VS_1", sensor_type, position)


NON_NUMBERS = {
    "position_str": (lambda: Position("1", 0, 0), "position.x"),
    "position_none": (lambda: Position(0, None, 0), "position.y"),
    "threshold_str": (
        lambda: ScenarioConfig(builtin_testbed().sensors, threshold="1"),
        "threshold",
    ),
    "segment_length_str": (
        lambda: ScenarioConfig(builtin_testbed().sensors, 10, segment_length="x"),
        "segment_length",
    ),
    "cost_str": (lambda: CostParams("x"), "cost_params.wireless_cost_per_unit_distance"),
    "range_bounds_str": (lambda: ReadingRanges(speed=("a", "b")), "ranges.speed"),
    "probability_list": (lambda: ReadingRanges(crash_prob=[0.5]), "ranges.crash_prob"),
    # a bool is not a number: dump_topology would write it as true
    "position_bool": (lambda: Position(True, 0, 0), "position.x"),
    "threshold_bool": (
        lambda: dataclasses.replace(builtin_testbed(), threshold=True),
        "threshold",
    ),
    "cost_bool": (lambda: CostParams(True, 1, 1), "cost_params.wireless_cost_per_unit_distance"),
    "thresholds_bool": (lambda: CongestionThresholds(low_max=False), "congestion thresholds.low_max"),
}


@pytest.mark.parametrize("case", sorted(NON_NUMBERS))
def test_value_types_reject_non_numbers(case):
    build, field = NON_NUMBERS[case]
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: expected a number$"):
        build()


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"sensors": None}, r"^sensors: expected a tuple of SensorNode"),
        (
            {"sensors": (*builtin_testbed().sensors, "VS_9")},
            r"^sensors\[16\]: expected a SensorNode",
        ),
        ({"cost_params": None}, r"^cost_params: expected a CostParams"),
        (
            {"coordinator_overrides": {SensorType.VISION: ["VS_1"]}},
            r"^coordinator_overrides\.vision: unknown sensor \['VS_1'\]$",
        ),
    ],
    ids=["sensors_none", "sensors_with_a_str", "cost_params_none", "override_id_a_list"],
)
def test_scenario_config_rejects_wrongly_typed_parts(changes, message):
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(builtin_testbed(), **changes)


_JUNK = st.one_of(
    st.text(max_size=3),
    st.none(),
    st.booleans(),
    st.lists(st.integers(), max_size=2),
    st.just(math.nan),
    st.just(10**400),
    st.integers(),
    st.floats(),
)
_TESTBED = builtin_testbed()
# junk, and containers of junk mixed with valid parts
_JUNK_VALUES = st.one_of(
    _JUNK,
    st.tuples(_JUNK, _JUNK),
    st.lists(st.one_of(_JUNK, st.sampled_from(_TESTBED.sensors)), max_size=3).map(tuple),
    st.dictionaries(
        st.one_of(st.sampled_from(SensorType), st.text(max_size=2)),
        st.one_of(_JUNK, st.sampled_from([s.node_id for s in _TESTBED.sensors])),
        max_size=2,
    ),
)
# valid values for the fields without a default
_REQUIRED = {
    Position: {"x": 0.0, "y": 0.0, "z": 0.0},
    SensorNode: {"node_id": "N_1", "sensor_type": SensorType.SPEED, "position": Position(0, 0, 0)},
    CostParams: {},
    ScenarioConfig: {"sensors": _TESTBED.sensors, "threshold": 100.0},
    ReadingRanges: {},
    CongestionThresholds: {},
}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_value_types_built_from_junk_construct_or_raise_a_sensegrid_error(data):
    kind = data.draw(st.sampled_from(list(_REQUIRED)))
    names = st.sampled_from([f.name for f in dataclasses.fields(kind)])
    junk = data.draw(st.dictionaries(names, _JUNK_VALUES, min_size=1, max_size=2))
    try:
        kind(**{**_REQUIRED[kind], **junk})
    except SenseGridError:
        pass


def _edited_testbed_text(edit):
    raw = json.loads(dump_topology(_TESTBED))
    edit(raw)
    return json.dumps(raw)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw["sensors"][0].update(x=True), "config.sensors[0].x: expected a number"),
        (lambda raw: raw["sensors"].insert(0, 5), "config.sensors[0]: expected an object"),
        (lambda raw: raw["sensors"][0].update(id=5), "config.sensors[0].id: expected a non-empty string"),
        (lambda raw: raw.update(cost_params=[1.0]), "config.cost_params: expected an object"),
        (
            lambda raw: raw.update(coordinator_overrides=["VS_1"]),
            "config.coordinator_overrides: expected an object",
        ),
        (
            lambda raw: raw.update(coordinator_overrides={"radar": "VS_1"}),
            "config.coordinator_overrides.radar: unknown sensor type",
        ),
        (
            lambda raw: raw.update(coordinator_overrides={"vision": 1}),
            "config.coordinator_overrides.vision: expected a sensor id",
        ),
    ],
    ids=["bool_x", "int_sensor", "int_id", "cost_params_array", "overrides_array", "override_type", "override_id"],
)
def test_load_topology_names_each_malformed_field(edit, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_topology(_edited_testbed_text(edit))


def test_load_topology_rejects_a_top_level_array():
    with pytest.raises(ConfigError, match="^config: expected a JSON object$"):
        load_topology("[]")
