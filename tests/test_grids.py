import random
import re

import pytest

from sensegrid import (
    ConfigError,
    Grid,
    GridSet,
    OverrideError,
    Position,
    RoutingError,
    SensorNode,
    SensorType,
    builtin_testbed,
    distance,
    form_grids,
    route_sensor_request,
)
from sensegrid.grids import elect_coordinator_ids

from helpers import closure_oracle, medoid_oracle, random_instance


@pytest.fixture(scope="module")
def testbed():
    return builtin_testbed()


def test_testbed_threshold_100_gives_four_grids_of_four(testbed):
    grids = form_grids(testbed.sensors, 100.0)
    assert len(grids.grids) == 4
    for grid in grids.grids:
        assert len(grid.members) == 4
        types = {testbed.by_id()[m].sensor_type for m in grid.members}
        assert types == {grid.sensor_type}


def test_vision_only_threshold_50(testbed):
    vision = [s for s in testbed.sensors if s.sensor_type is SensorType.VISION]
    grids = form_grids(vision, 50.0)
    memberships = {g.members for g in grids.grids}
    assert memberships == {("VS_1", "VS_3"), ("VS_2",), ("VS_4",)}


def test_identical_positions_always_group():
    pair = [
        SensorNode("A", SensorType.SPEED, Position(1, 2, 3)),
        SensorNode("B", SensorType.SPEED, Position(1, 2, 3)),
    ]
    grids = form_grids(pair, 1e-9)
    assert len(grids.grids) == 1
    assert grids.grids[0].members == ("A", "B")


def test_empty_sensor_list_is_empty_gridset():
    assert form_grids([], 10.0).grids == ()


def test_threshold_is_strict():
    pair = [
        SensorNode("A", SensorType.SPEED, Position(0, 0, 0)),
        SensorNode("B", SensorType.SPEED, Position(5, 0, 0)),
    ]
    assert len(form_grids(pair, 5.0).grids) == 2  # ties at the threshold do not join
    assert len(form_grids(pair, 5.0000001).grids) == 1


def test_mixed_types_never_group():
    pair = [
        SensorNode("A", SensorType.SPEED, Position(0, 0, 0)),
        SensorNode("B", SensorType.VISION, Position(0, 0, 0)),
    ]
    assert len(form_grids(pair, 100.0).grids) == 2


def test_partition_and_canonical_order(testbed):
    grids = form_grids(testbed.sensors, 100.0)
    seen = [m for g in grids.grids for m in g.members]
    assert sorted(seen) == sorted(s.node_id for s in testbed.sensors)
    assert len(seen) == len(set(seen))
    assert [g.grid_id for g in grids.grids] == sorted(g.grid_id for g in grids.grids)
    for g in grids.grids:
        assert g.grid_id == min(g.members)
        assert list(g.members) == sorted(g.members)


def test_order_invariance(testbed):
    rng = random.Random(99)
    grids = form_grids(testbed.sensors, 100.0)
    for _ in range(5):
        shuffled = list(testbed.sensors)
        rng.shuffle(shuffled)
        assert form_grids(shuffled, 100.0) == grids


def test_monotone_coarsening_and_limits():
    rng = random.Random(5150)
    for _ in range(20):
        sensors = random_instance(rng, max_nodes=25)
        thresholds = sorted(rng.uniform(0.5, 200) for _ in range(4))
        counts = [len(form_grids(sensors, t).grids) for t in thresholds]
        assert counts == sorted(counts, reverse=True)
        # threshold below any positive pairwise distance: all singletons
        positive = [
            distance(a.position, b.position)
            for i, a in enumerate(sensors)
            for b in sensors[i + 1 :]
            if distance(a.position, b.position) > 0
        ]
        tiny = min(positive) / 2 if positive else 1e-12
        tiny_grids = form_grids(sensors, tiny)
        coincident_pairs = len(sensors) - len(
            {(s.sensor_type, (s.position.x, s.position.y, s.position.z)) for s in sensors}
        )
        assert len(tiny_grids.grids) == len(sensors) - coincident_pairs
        # huge threshold: one grid per sensor type present
        huge = form_grids(sensors, 1e9)
        assert len(huge.grids) == len({s.sensor_type for s in sensors})


def test_form_grids_matches_closure_oracle():
    rng = random.Random(31337)
    for _ in range(60):
        sensors = random_instance(rng, max_nodes=30)
        threshold = rng.uniform(1, 150)
        got = {frozenset(g.members) for g in form_grids(sensors, threshold).grids}
        assert got == closure_oracle(sensors, threshold)


def _line(xs, y=0.0, z=0.0, sensor_type=SensorType.SPEED):
    prefix = sensor_type.value[0].upper()
    return [SensorNode(f"{prefix}_{i:03d}", sensor_type, Position(x, y, z)) for i, x in enumerate(xs)]


_SWEEP_EDGE_CASES = {
    # dx*dx underflows to 0, so the distance is 0 and the pair joins; a sweep
    # that stopped at dx >= threshold would split it
    "underflow": (_line([0.0, 1e-200]), 1e-200),
    # dx*dx overflows to inf, so pairs across a gap are inf apart and stay
    # split; in the second case even when dx itself is below the threshold
    "overflow": (_line([-1e300, 1e300, 1e300, -1e300], y=1.0), 1.7e308),
    "overflow_near": (_line([1e300, -1e300, 1e300 + 1e285, 0.0]), 1e286),
    # no x separation, so the sweep compares every pair
    "one_x": (
        [
            SensorNode(f"N_{i:03d}", SensorType.VISION, Position(7.0, (i * 37) % 50, i % 3))
            for i in range(40)
        ],
        12.0,
    ),
    "duplicates": (
        _line([5.0, 5.0, 1.0, 5.0, 9.0, 1.0])
        + _line([5.0, 5.0], sensor_type=SensorType.ENVIRONMENT),
        1e-9,
    ),
}


@pytest.mark.parametrize("case", sorted(_SWEEP_EDGE_CASES))
def test_sweep_edge_cases_match_oracles(case):
    sensors, threshold = _SWEEP_EDGE_CASES[case]
    grids = form_grids(sensors, threshold)
    assert {frozenset(g.members) for g in grids.grids} == closure_oracle(sensors, threshold)
    nodes = {s.node_id: s for s in sensors}
    for grid in grids.grids:
        assert grid.coordinator == medoid_oracle(grid.members, nodes)


def test_form_grids_rejects_an_integer_gap_no_float_holds():
    # the sweep squares the x gap, 2**1001, which no float holds
    sensors = [
        SensorNode("A", SensorType.VISION, Position(2**1000, 0, 0)),
        SensorNode("B", SensorType.VISION, Position(-(2**1000), 0, 0)),
    ]
    with pytest.raises(ConfigError, match=r"^sensors: "):
        form_grids(sensors, 1.0)


def test_form_grids_rejects_a_threshold_that_is_not_a_number(testbed):
    with pytest.raises(ConfigError, match=r"^threshold: expected a number$"):
        form_grids(testbed.sensors, "1")
    assert len(form_grids(testbed.sensors, float("inf")).grids) == 4


def test_testbed_coordinators(testbed):
    grids = form_grids(testbed.sensors, 100.0)
    coordinators = {g.sensor_type: g.coordinator for g in grids.grids}
    assert coordinators[SensorType.VISION] == "VS_3"
    assert coordinators[SensorType.SPEED] == "SS_4"
    assert coordinators[SensorType.ENVIRONMENT] == "ES_3"


def test_election_singleton():
    nodes = {"ES_2": SensorNode("ES_2", SensorType.ENVIRONMENT, Position(104, 35, 24))}
    assert elect_coordinator_ids(("ES_2",), nodes) == "ES_2"


def test_election_override_wins(testbed):
    grids = form_grids(testbed.sensors, 100.0, {SensorType.ENVIRONMENT: "ES_1"})
    env = next(g for g in grids.grids if g.sensor_type is SensorType.ENVIRONMENT)
    assert env.coordinator == "ES_1"
    assert env.election == "overridden"
    others = [g for g in grids.grids if g.sensor_type is not SensorType.ENVIRONMENT]
    assert all(g.election == "medoid" for g in others)


def test_election_override_non_member_rejected(testbed):
    grids = form_grids(testbed.sensors, 100.0)
    env = next(g for g in grids.grids if g.sensor_type is SensorType.ENVIRONMENT)
    with pytest.raises(OverrideError):
        elect_coordinator_ids(env.members, testbed.by_id(), override="VS_1")


def test_election_matches_bruteforce_oracle():
    rng = random.Random(271828)
    for _ in range(60):
        sensors = random_instance(rng, max_nodes=20)
        nodes = {s.node_id: s for s in sensors}
        members = tuple(sorted(rng.sample(list(nodes), rng.randint(1, len(nodes)))))
        assert elect_coordinator_ids(members, nodes) == medoid_oracle(members, nodes)


def test_election_tie_breaks_to_smallest_id():
    p = Position(3, 4, 5)
    nodes = {
        "N_2": SensorNode("N_2", SensorType.VISION, p),
        "N_1": SensorNode("N_1", SensorType.VISION, p),
        "N_3": SensorNode("N_3", SensorType.VISION, Position(9, 9, 9)),
    }
    assert elect_coordinator_ids(("N_2", "N_1", "N_3"), nodes) == "N_1"


def test_grid_invariants_enforced():
    with pytest.raises(ConfigError):
        Grid("A", SensorType.VISION, ("A", "B"), coordinator="C")


def test_override_pins_only_the_grid_it_names(testbed):
    # threshold 50 splits vision into {VS_1, VS_3}, {VS_2} and {VS_4}; the
    # pair's medoid is VS_1, and VS_3 is pinned in its place
    vision = [s for s in testbed.sensors if s.sensor_type is SensorType.VISION]
    grids = form_grids(vision, 50.0, {SensorType.VISION: "VS_3"})
    assert [(g.members, g.coordinator, g.election) for g in grids.grids] == [
        (("VS_1", "VS_3"), "VS_3", "overridden"),
        (("VS_2",), "VS_2", "medoid"),
        (("VS_4",), "VS_4", "medoid"),
    ]
    assert form_grids(vision, 50.0).grids[0].coordinator == "VS_1"


@pytest.mark.parametrize("threshold", [0, 0.0, -1.0])
def test_form_grids_rejects_a_threshold_that_is_not_positive(testbed, threshold):
    with pytest.raises(ConfigError, match="^threshold: must be positive$"):
        form_grids(testbed.sensors, threshold)


def test_form_grids_rejects_a_y_gap_whose_square_no_float_holds():
    # the x gap is 0, so the sweep's own guard passes and distance() overflows
    pair = [
        SensorNode("A", SensorType.SPEED, Position(0, 0, 0)),
        SensorNode("B", SensorType.SPEED, Position(0, 2**600, 0)),
    ]
    with pytest.raises(ConfigError, match=r"^sensors: positions too far apart; "):
        form_grids(pair, 1.0)


def test_grid_sets_reject_malformed_grids():
    with pytest.raises(ConfigError, match="^grid members must be non-empty$"):
        Grid("A", SensorType.SPEED, (), "A")
    pair = Grid("A", SensorType.SPEED, ("A", "B"), "A")
    with pytest.raises(ConfigError, match="^node 'B' appears in more than one grid$"):
        GridSet((pair, Grid("B", SensorType.SPEED, ("B",), "B")))
    with pytest.raises(ConfigError, match="^node 'Z' is not covered by this grid set$"):
        GridSet((pair,)).grid_for("Z")
    with pytest.raises(ConfigError, match=r"^grid_set.grids\[0\]: expected a Grid, got str$"):
        GridSet(("x",))
    with pytest.raises(ConfigError, match="^grid_set.grids: expected a tuple, got list$"):
        GridSet([pair])


def test_election_rejects_no_members_and_unindexed_members():
    with pytest.raises(ConfigError, match="^cannot elect a coordinator from an empty member set$"):
        elect_coordinator_ids((), {})
    with pytest.raises(ConfigError, match="^grid member 'A' missing from the sensor index$"):
        elect_coordinator_ids(("A",), {})


_TESTBED_SENSORS = builtin_testbed().sensors


@pytest.mark.parametrize(
    "sensors, overrides, message",
    [
        (None, None, "sensors: expected a list or tuple, got NoneType"),
        ("abc", None, "sensors: expected a list or tuple, got str"),
        (["VS_1"], None, "sensors[0]: expected a SensorNode, got str"),
        (_TESTBED_SENSORS, ["x"], "overrides: expected a dict, got list"),
        # a service name is not a SensorType, so the override is not dropped
        (_TESTBED_SENSORS, {"environment": "ES_1"}, "overrides key: expected a SensorType, got str"),
        (_TESTBED_SENSORS, {SensorType.ENVIRONMENT: 1}, "overrides.environment: expected a str, got int"),
        # an override must name a sensor of its type, as in a ScenarioConfig
        (_TESTBED_SENSORS, {SensorType.VISION: "nope"}, "overrides.vision: unknown sensor 'nope'"),
        (_TESTBED_SENSORS, {SensorType.VISION: "ES_1"}, "overrides.vision: 'ES_1' is a environment sensor"),
    ],
    ids=[
        "no_sensors", "str_sensors", "str_sensor", "list_overrides", "str_key", "int_node_id",
        "unknown_node_id", "node_id_of_another_type",
    ],
)
def test_form_grids_rejects_whole_arguments_of_the_wrong_type(sensors, overrides, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        form_grids(sensors, 100.0, overrides)


def test_election_raises_when_every_sum_overflows():
    # each distance is inf, so no sum is below the starting inf
    nodes = {
        "A": SensorNode("A", SensorType.VISION, Position(-1e308, 0, 0)),
        "B": SensorNode("B", SensorType.VISION, Position(1e308, 0, 0)),
    }
    with pytest.raises(ConfigError, match=r"^sensors: positions too far apart; "):
        elect_coordinator_ids(("A", "B"), nodes)


def test_election_rejects_members_and_index_entries_of_the_wrong_kind():
    # a str's characters are not its members, even where they name sensors
    nodes = {i: SensorNode(i, SensorType.VISION, Position(0, 0, 0)) for i in "AB"}
    with pytest.raises(ConfigError, match="^members: expected a tuple, got str$"):
        elect_coordinator_ids("AB", nodes)
    with pytest.raises(ConfigError, match="^sensors_by_id: expected a dict, got str$"):
        elect_coordinator_ids(("A",), "AB")
    with pytest.raises(ConfigError, match=r"^members\[1\]: expected a str, got list$"):
        elect_coordinator_ids(("A", ["B"]), nodes)
    # checked before an override, whose error names the grid by its least member
    with pytest.raises(ConfigError, match=r"^members\[1\]: expected a str, got int$"):
        elect_coordinator_ids(("A", 7), nodes, override="Z")
    not_a_node = r"^sensors_by_id\['A'\]: expected a SensorNode, got str$"
    with pytest.raises(ConfigError, match=not_a_node):
        elect_coordinator_ids(("A",), {"A": "x"})


def test_routing_rejects_ends_and_index_entries_of_the_wrong_kind():
    nodes = {i: SensorNode(i, SensorType.VISION, Position(0, 0, 0)) for i in "AB"}
    grids = GridSet((Grid("A", SensorType.VISION, ("A", "B"), "B"),))
    with pytest.raises(RoutingError, match="^requester: expected a str, got list$"):
        route_sensor_request(["A"], "A", grids, nodes)
    with pytest.raises(RoutingError, match="^target: expected a str, got int$"):
        route_sensor_request("A", 7, grids, nodes)
    with pytest.raises(RoutingError, match="^unknown coordinator 'B'$"):
        route_sensor_request("A", "A", grids, {"A": nodes["A"]})
    not_a_node = r"^sensors_by_id\['B'\]: expected a SensorNode, got str$"
    with pytest.raises(RoutingError, match=not_a_node):
        route_sensor_request("A", "A", grids, {**nodes, "B": "x"})


_VISION = SensorType.VISION


@pytest.mark.parametrize(
    "grid, message",
    [
        (("A", "vision", ("A",), "A"), "grid A: sensor_type: expected a SensorType, got str"),
        ((7, _VISION, (7,), 7), "grid.grid_id: expected a str, got int"),
        (("A", _VISION, ("A",), "A", 5), "grid A: election: expected 'medoid' or 'overridden'"),
        (("Z", _VISION, ("A",), "A"), "grid Z: grid_id: expected its first member 'A'"),
        (("A", _VISION, ("A", 7), "A"), "grid A: members: expected strs"),
        (("B", _VISION, ("B", "A"), "A"), "grid B: members: expected distinct ids in sorted order"),
        (("A", _VISION, ("A", "A"), "A"), "grid A: members: expected distinct ids in sorted order"),
        (("A", _VISION, ["A"], "A"), "grid A: members: expected a tuple, got list"),
        (("A", _VISION, ("A",), None), "grid A: coordinator: expected a str, got NoneType"),
    ],
    ids=["str_type", "int_ids", "int_election", "id_not_first", "int_member", "unsorted",
         "repeated", "list_members", "no_coordinator"],
)
def test_grid_names_a_field_of_the_wrong_kind(grid, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        Grid(*grid)
