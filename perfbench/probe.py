"""In-process probes that the benchmark runs, each in a fresh interpreter.

    probe.py setup  SOURCE TICKS QUERIES REQUESTS
        Import sensegrid, load the config and generate the workload; nothing
        else. The benchmark times the whole process as setup_s.
    probe.py replay SPANS_FILE COMMAND...
        Run one workload command (``-m sensegrid ...`` or a script path) in
        this process with a span around every public function of the
        package, then write the spans to SPANS_FILE as JSON.
    probe.py check  SOURCE TICKS QUERIES REQUESTS [TRACES_FILE]
        Run both strategies on the workload's inputs, verify the invariants
        and time each layer with one explicit call. With TRACES_FILE, also
        time the report and cloud layers and pickle both traces there.
    probe.py grids-memory SOURCE TICKS QUERIES REQUESTS
        RSS peak of form_grids.
    probe.py trace-memory TRACES_FILE
        RSS of the loaded traces and RSS peak of serialize_trace.

The last three print one JSON object. SOURCE is ``testbed`` or the path of
a config file. Spans are ``[name, parent index or null, start_ns, end_ns]``
on the system-wide monotonic clock, so the benchmark can nest them under the
process span it measures from outside. Top-level imports are kept to modules
the package imports anyway, so that setup_s is the package's own cost.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time

# Called once per reading (N x T times); a span each would swamp the trace.
# The check probe times generate_reading on its own instead.
UNTRACED_FUNCTIONS = frozenset({"generate_reading", "distance"})


# ---------------------------------------------------------------------------
# Closed forms, shared with run.py
# ---------------------------------------------------------------------------

def query_ticks(ticks: int, queries: int) -> list[int]:
    """Ticks of generated queries; each query's window is 0..tick."""
    return [(i * ticks) // queries for i in range(queries)]


def qcps_messages(sensors: int, ticks: int, queries: int, requests: int) -> int:
    """Two report messages per sensor per tick, two per query, four per request."""
    return 2 * sensors * ticks + 2 * queries + 4 * requests


def flat_messages(sensors: int, ticks: int, queries: int, requests: int) -> int:
    """A round trip per polled sensor per window tick, one per request.

    Generated queries ask for all four services, so every sensor is polled.
    """
    polled_ticks = sum(t + 1 for t in query_ticks(ticks, queries))
    return 2 * sensors * polled_ticks + 2 * requests


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """Keeps spans in memory; nothing is written until the probe ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def start(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, parent, time.monotonic_ns(), None])
        self._open.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._open.pop()][3] = time.monotonic_ns()

    def call(self, name: str, fn, *args, **kwargs):
        self.start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()


def _span_name(layer: str, name: str, args: tuple, kwargs: dict) -> str:
    if name == "run_scenario":  # one span name per strategy
        return f"simulate.{args[2] if len(args) > 2 else kwargs['strategy']}"
    return f"{layer}.{name}"


def instrument(tracer: Tracer) -> None:
    """Wrap each public function of every loaded sensegrid module in a span.

    Every module-level name bound to the function is replaced, so calls
    between modules (``from .grids import form_grids``) are traced too.
    """
    import functools
    import inspect

    modules = [m for n, m in sys.modules.items() if n == "sensegrid" or n.startswith("sensegrid.")]
    targets = [
        (module.__name__.rpartition(".")[2], name, fn)
        for module in modules
        for name, fn in list(vars(module).items())
        if inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not name.startswith("_")
        and name not in UNTRACED_FUNCTIONS
    ]
    for layer, name, fn in targets:

        @functools.wraps(fn)
        def traced(*args, _layer=layer, _name=name, _fn=fn, **kwargs):
            return tracer.call(_span_name(_layer, _name, args, kwargs), _fn, *args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as f:
        return int(f.read().split()[1]) * _PAGE


def peak_rss_growth(fn, *args):
    """Run fn and return (result, highest RSS seen during it minus RSS before).

    A thread samples RSS every millisecond; it gets the interpreter lock at
    least every switch interval, and numpy releases the lock in large array
    operations. The sampler runs before the first reading, so its own stack
    is in the baseline. tracemalloc would be exact but makes form_grids at
    4k sensors ten times slower and serialize_trace four times slower.
    """
    import threading

    peak = [0]
    stop = threading.Event()

    def sample() -> None:
        while not stop.wait(0.001):
            peak[0] = max(peak[0], rss_bytes())

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    time.sleep(0.01)
    before = rss_bytes()
    try:
        result = fn(*args)
    finally:
        stop.set()
        sampler.join()
    return result, max(peak[0], rss_bytes()) - before


def dump_as_constructed(obj, path: str) -> None:
    """Pickle obj so that loading calls each dataclass's constructor.

    Loading then builds every object as the simulator does. A default pickle
    gives each loaded instance a separate __dict__, which made a loaded trace
    take 1.8 times the memory of one built by run_scenario.
    """
    import pickle

    class Pickler(pickle.Pickler):
        def reducer_override(self, o):
            if dataclasses.is_dataclass(o) and not isinstance(o, type):
                return type(o), tuple(getattr(o, f.name) for f in dataclasses.fields(o) if f.init)
            return NotImplemented

    with open(path, "wb") as f:
        Pickler(f, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def timed(out: dict, key: str, fn, *args):
    """Call fn and add its host seconds to out[key]."""
    start = time.perf_counter()
    result = fn(*args)
    out[key] = out.get(key, 0.0) + time.perf_counter() - start
    return result


def load_inputs(source: str, ticks: int, queries: int, requests: int, out: dict):
    """Config and workload exactly as the CLI builds them, timed into out."""
    from pathlib import Path

    import sensegrid as sg

    if source == "testbed":
        cfg = timed(out, "topology.load_s", sg.builtin_testbed)
    else:
        text = Path(source).read_text(encoding="utf-8")
        cfg = timed(out, "topology.load_s", sg.load_topology, text)
    cfg = dataclasses.replace(cfg, duration_ticks=ticks)
    return cfg, timed(out, "workload.generate_s", sg.generate_workload, cfg, queries, requests)


def replay(spans_file: str, command: list[str]) -> int:
    import json
    from pathlib import Path

    tracer = Tracer()
    cli = command[:2] == ["-m", "sensegrid"]
    tracer.start("import")
    import sensegrid  # noqa: F401

    if cli:
        import sensegrid.cli
    tracer.end()
    instrument(tracer)
    try:
        if cli:
            return sys.modules["sensegrid.cli"].main(command[2:])
        import runpy

        sys.argv = list(command)
        runpy.run_path(command[0], run_name="__main__")
        return 0
    finally:
        Path(spans_file).write_text(json.dumps(tracer.spans), encoding="utf-8")


def resum_costs(trace, params) -> dict:
    """cost_of recomputed straight from the raw trace, in message order."""
    wireless = 0.0
    wireless_count = infra_count = cloud_ops = node_ops = 0
    for message in trace.messages:
        if message.medium == "wireless":
            wireless_count += 1
            wireless += message.wireless_distance
        else:
            infra_count += 1
    for event in trace.compute_events:
        if event.site == "cloud":
            cloud_ops += event.op_count
        else:
            node_ops += event.op_count
    return {
        "total_wireless_distance": wireless,
        "wireless_message_count": wireless_count,
        "infra_message_count": infra_count,
        "cloud_op_count": cloud_ops,
        "node_op_count": node_ops,
        "monetized_total": params.wireless_cost_per_unit_distance * wireless
        + params.infra_message_cost * infra_count
        + params.computation_op_cost * (cloud_ops + node_ops),
    }


def check(source: str, ticks: int, queries: int, requests: int, traces_file: str | None) -> dict:
    """Verify the invariants on the workload's inputs and time each layer.

    Each layer is one explicit call (cost_of: one per strategy), so a metric
    counts the same calls on every workload. With traces_file, also time the
    report and cloud layers and pickle both traces there for trace_memory.
    """
    import sensegrid as sg
    from sensegrid.grids import elect_coordinator_ids

    out: dict = {"failures": []}
    failures = out["failures"]
    cfg, workload = load_inputs(source, ticks, queries, requests, out)
    n = len(cfg.sensors)

    grids = timed(out, "grids.form_s", sg.form_grids, cfg.sensors, cfg.threshold, cfg.coordinator_overrides)
    out["grids.count"] = len(grids.grids)
    out["grids.max_size"] = max((len(g.members) for g in grids.grids), default=0)
    by_id = cfg.by_id()
    start = time.perf_counter()
    for grid in grids.grids:
        override = cfg.coordinator_overrides.get(grid.sensor_type)
        elect_coordinator_ids(grid.members, by_id, override if override in grid.members else None)
    out["grids.elect_s"] = time.perf_counter() - start

    traces = {s: timed(out, f"simulate.{s}_s", sg.run_scenario, cfg, workload, s) for s in (sg.QCPS, sg.FLAT)}
    expected = {
        sg.QCPS: qcps_messages(n, ticks, queries, requests),
        sg.FLAT: flat_messages(n, ticks, queries, requests),
    }
    costs = {}
    for strategy, trace in traces.items():
        messages = out[f"simulate.{strategy}_messages"] = len(trace.messages)
        out[f"simulate.{strategy}_us_per_message"] = out[f"simulate.{strategy}_s"] * 1e6 / max(messages, 1)
        if messages != expected[strategy]:
            failures.append(f"{strategy}: {messages} messages, closed form gives {expected[strategy]}")
        costs[strategy] = timed(out, "simulate.cost_s", sg.cost_of, trace, cfg.cost_params)
        reported = dataclasses.asdict(costs[strategy])
        del reported["strategy"]
        if reported != resum_costs(trace, cfg.cost_params):
            failures.append(f"{strategy}: cost_of differs from a re-summation of the trace")
    if traces[sg.QCPS].answered != traces[sg.FLAT].answered:
        failures.append("qcps and flat answer the queries differently")
    if traces_file is None:
        return out

    qcps = traces[sg.QCPS]
    text = timed(out, "report.serialize_trace_s", sg.serialize_trace, qcps)
    out["report.trace_bytes"] = len(text.encode("utf-8"))
    out["report.serialize_mb_per_s"] = out["report.trace_bytes"] / 1e6 / out["report.serialize_trace_s"]
    del text
    start = time.perf_counter()
    sg.canonical_json(sg.build_run_report(cfg, qcps.grid_set, {sg.QCPS: costs[sg.QCPS]}, qcps.answered))
    out["report.run_report_s"] = time.perf_counter() - start
    dump_as_constructed(traces, traces_file)
    del traces, qcps

    # Replay the N x T reading keys, ingest them, then query the full store.
    start = time.perf_counter()
    readings = [
        sg.generate_reading(sensor, tick, cfg.seed)
        for tick in range(cfg.duration_ticks)
        for sensor in cfg.sensors
    ]
    out["workload.reading_us"] = (time.perf_counter() - start) * 1e6 / len(readings)
    start = time.perf_counter()
    cloud = sg.Cloud()
    for reading in readings:
        cloud.ingest(reading)
    out["cloud.ingest_us"] = (time.perf_counter() - start) * 1e6 / len(readings)
    start = time.perf_counter()
    for _, query in workload.queries:
        sg.answer_centric_query(query, cloud, cfg.segment_length)
    out["cloud.query_ms"] = (time.perf_counter() - start) * 1e3 / max(len(workload.queries), 1)
    return out


def grids_memory(source: str, ticks: int, queries: int, requests: int) -> dict:
    """RSS peak of form_grids in an interpreter that holds only its inputs."""
    import sensegrid as sg

    cfg, _ = load_inputs(source, ticks, queries, requests, {})
    _, grown = peak_rss_growth(sg.form_grids, cfg.sensors, cfg.threshold, cfg.coordinator_overrides)
    return {"grids.peak_mb": grown / 1e6}


def trace_memory(traces_file: str) -> dict:
    """RSS the two traces keep live, and the RSS peak of serialize_trace.

    The traces are loaded from the pickle check wrote, in an interpreter
    that ran no simulation, so no freed store memory is in either figure.
    """
    import pickle

    import sensegrid as sg

    before = rss_bytes()
    with open(traces_file, "rb") as f:
        traces = pickle.load(f)
    out = {"simulate.trace_mb": (rss_bytes() - before) / 1e6}
    _, grown = peak_rss_growth(sg.serialize_trace, traces[sg.QCPS])
    out["report.peak_mb"] = grown / 1e6
    return out


def main(argv: list[str]) -> int:
    import json

    mode, rest = argv[0], argv[1:]
    if mode == "replay":
        return replay(rest[0], rest[1:])
    if mode == "trace-memory":
        print(json.dumps(trace_memory(rest[0])))
        return 0
    inputs = (rest[0], int(rest[1]), int(rest[2]), int(rest[3]))
    if mode == "setup":
        load_inputs(*inputs, {})
    elif mode == "check":
        print(json.dumps(check(*inputs, rest[4] if len(rest) > 4 else None)))
    elif mode == "grids-memory":
        print(json.dumps(grids_memory(*inputs)))
    else:
        print(f"probe.py: unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
