"""One property over the whole public API: every callable in
`sensegrid.__all__`, given valid testbed values mixed with junk, returns or
raises a `SenseGridError` (Claessen and Hughes, "QuickCheck", ICFP 2000).

Each parameter is drawn from `_VALID`, keyed by parameter name, or from
`_JUNK`. So the next public name is covered without a new test; a name
whose parameters `_VALID` does not know gets junk alone, or its defaults.
"""

import dataclasses
import enum
import functools
import inspect
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

import sensegrid
from sensegrid import (
    QCPS,
    CentricQuery,
    Cloud,
    CongestionThresholds,
    CostParams,
    Message,
    Position,
    ReadingRanges,
    SenseGridError,
    SensorType,
    Service,
    builtin_testbed,
    compare_strategies,
    dump_topology,
    form_grids,
    generate_reading,
    generate_workload,
    run_scenario,
)


@functools.cache
def _valid() -> dict[str, tuple]:
    """Valid testbed values for each parameter name; a name that several
    signatures share with different meanings (`grids`) holds one of each."""
    cfg = dataclasses.replace(builtin_testbed(), duration_ticks=4)
    workload = generate_workload(cfg, 2, 2)
    trace = run_scenario(cfg, workload, QCPS)
    costs = compare_strategies(cfg, workload)
    grids = form_grids(cfg.sensors, cfg.threshold)
    cloud = Cloud()
    for sensor in cfg.sensors:
        cloud.ingest(generate_reading(sensor, 1, cfg.seed))
    sensor, position = cfg.sensors[0], cfg.sensors[0].position
    reading = generate_reading(sensor, 1, cfg.seed)
    query = CentricQuery("Q1", tuple(Service), (0, 3))
    grid = grids.grid_for(sensor.node_id)
    workload_text = json.dumps({
        "queries": [{"tick": 1, "services": ["congestion"]}],
        "requests": [{"tick": 2, "requester": "VS_1", "target": "ES_2"}],
    })
    return {
        # topology
        "cfg": (cfg,),
        "sensors": (cfg.sensors, list(cfg.sensors)),
        "threshold": (cfg.threshold,),
        "cost_params": (CostParams(),),
        "params": (CostParams(),),
        "segment_length": (600.0,),
        "duration_ticks": (4,),
        "seed": (42, None),
        "coordinator_overrides": ({SensorType.VISION: "VS_1"},),
        "overrides": ({SensorType.VISION: "VS_1"}, None),
        "node_id": ("VS_9",),
        "sensor_type": (SensorType.SPEED,),
        "position": (position,),
        "a": (position,),
        "b": (cfg.sensors[5].position,),
        "x": (1.0,),
        "y": (-2,),
        "z": (3.5,),
        "config_text": (dump_topology(cfg),),
        # readings, databases and queries
        "sensor": (sensor,),
        "sensor_id": (sensor.node_id,),
        "payload": (reading.payload,),
        "tick": (0, 3),
        "ranges": (ReadingRanges(),),
        "cloud": (cloud,),
        **{name: (cloud.db(t),) for name, t in (
            ("vdb", SensorType.VISION), ("sdb", SensorType.SPEED),
            ("edb", SensorType.ENVIRONMENT), ("mdb", SensorType.MISCELLANEOUS),
        )},
        "window": ((0, 3),),
        "thresholds": (CongestionThresholds(),),
        "query": (query,),
        "query_id": ("Q1",),
        "requested_services": (tuple(Service),),
        "sections": (trace.answered[0][1].sections,),
        # workloads, grids and routing
        "workload": (workload,),
        "queries": (workload.queries,),
        "requests": (workload.requests,),
        "n_queries": (0, 3),
        "n_requests": (0, 3),
        "text": (workload_text,),
        "grids": (grids, grids.grids),
        "grid_id": (grid.grid_id,),
        "members": (grid.members,),
        "coordinator": (grid.coordinator,),
        "requester": ("VS_1",),
        "target": ("ES_2",),
        "sensors_by_id": (cfg.by_id(),),
        "first_msg_id": (0,),
        # traces, costs and reports
        "strategy": (QCPS,),
        "trace": (trace,),
        "messages": (trace.messages, [Message(0, 0, "VS_1", "VS_3", "wireless", "report", 1.5)]),
        "compute_events": (trace.compute_events,),
        "grid_set": (grids, None),
        "answered": (trace.answered,),
        "qcps": (costs.qcps,),
        "flat": (costs.flat,),
        "costs": ({QCPS: costs.qcps},),
        "value": ({"a": [1, 2.5, None]}, "vision"),
    }


# Junk: wrong kinds, near misses and counts no list can hold. The counts
# stay small or pass sys.maxsize, so no call builds a huge run.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from([10**400, sys.maxsize + 1]),
    st.floats(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.lists(st.integers(-1, 2), max_size=2),
    st.tuples(st.integers(-1, 2), st.integers(-1, 2)),
    st.dictionaries(st.text(max_size=1), st.integers(0, 1), max_size=1),
    st.just(Position(0.0, 0.0, 0.0)),
)


def _documented(fn, exc: Exception) -> bool:
    """The exceptions the API documents besides SenseGridError:
    canonical_json's TypeError for a value it cannot write, and an Enum
    class called with an unknown value (called with more arguments, it is
    Python's functional API, which this property never calls)."""
    if fn is sensegrid.canonical_json:
        return isinstance(exc, TypeError) and str(exc).startswith("cannot canonicalize")
    return isinstance(fn, enum.EnumMeta) and isinstance(exc, ValueError)


def _parameters(fn) -> list[inspect.Parameter]:
    if isinstance(fn, enum.EnumMeta):
        return [inspect.Parameter("value", inspect.Parameter.POSITIONAL_ONLY)]
    try:
        return list(inspect.signature(fn).parameters.values())
    except ValueError:  # an exception class: any arguments make an instance
        return [inspect.Parameter("args", inspect.Parameter.VAR_POSITIONAL)]


_CALLABLES = [name for name in sensegrid.__all__ if callable(getattr(sensegrid, name))]


@pytest.mark.parametrize("name", _CALLABLES)
@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(data=st.data())
def test_every_public_callable_returns_or_raises_a_sensegrid_error(name, data):
    fn = getattr(sensegrid, name)
    args, kwargs = [], {}
    for p in _parameters(fn):
        if p.kind is p.VAR_POSITIONAL:
            args.extend(data.draw(st.lists(_JUNK, max_size=2), label=p.name))
            continue
        valid = _valid().get(p.name, ())
        if p.default is not p.empty and data.draw(st.booleans(), label=f"omit {p.name}"):
            continue
        # valid or junk at even odds: a plain `|` would weigh the valid
        # values as one of junk's many branches
        if valid and data.draw(st.booleans(), label=f"valid {p.name}"):
            value = data.draw(st.sampled_from(valid), label=p.name)
        else:
            value = data.draw(_JUNK, label=p.name)
        if p.kind is p.POSITIONAL_ONLY:
            args.append(value)
        else:  # by name, as an omitted default may come before it
            kwargs[p.name] = value
    try:
        fn(*args, **kwargs)
    except SenseGridError:
        pass
    except Exception as exc:
        if not _documented(fn, exc):
            raise
