"""The sensegrid benchmark: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; children import the package from
src/. Load comes from this one process, which runs one child process at a
time (a closed loop with one client), and every repetition is a fresh
interpreter, because users pay import and set-up on every run.

--trace 0 measures the end-to-end metrics: at least MIN_REPS repetitions of
the workload's commands, more while they add up to at most S seconds, with
SETUP_REPS set-up children spread between them for setup_s.
--trace 1 alternates an untraced repetition with a traced replay of the same
commands for S seconds, then runs the layer probes once. Both modes check
every output. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. perfbench/README.md names the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import probe
import topogen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROBE = str(BENCH / "probe.py")
INGEST = str(BENCH / "city_ingest.py")
DIGESTS = BENCH / "digests.json"
SETUP_REPS = 9
MIN_REPS = 2  # city_query's repetitions take about half of the default 20 s

CLI = ("-m", "sensegrid")
SIZES = ("--ticks", "{ticks}", "--queries", "{queries}", "--requests", "{requests}")


@dataclasses.dataclass(frozen=True)
class Workload:
    sensors: int  # 0 means the built-in 16-sensor testbed
    ticks: int
    queries: int
    requests: int
    commands: tuple[tuple[str, tuple[str, ...]], ...]  # (name, argv after python3)


# Why each workload exists is in BENCHMARK.json and README.md. grids_4k's
# ticks, queries and requests feed only the layer probe; form-grids takes none.
WORKLOADS = {
    "testbed_cli": Workload(0, 100, 20, 10, (
        ("compare", (*CLI, "compare", "--testbed", *SIZES)),
        ("run", (*CLI, "run", "--testbed", *SIZES, "--strategy", "qcps", "--out", "{out}")),
    )),
    "city_ingest": Workload(1000, 100, 2, 500, (
        ("ingest", (INGEST, "{topology}", "--queries", "{queries}", "--requests", "{requests}")),
    )),
    "city_query": Workload(1000, 50, 10, 50, (
        ("compare", (*CLI, "compare", "--topology", "{topology}", *SIZES, "--format", "json")),
    )),
    "grids_4k": Workload(4000, 10, 2, 10, (
        ("form_grids", (*CLI, "form-grids", "--topology", "{topology}")),
    )),
}
SMOKE_SIZES = {"ticks": 5, "queries": 2, "requests": 3}
SMOKE_SENSORS = 20

# Per-layer metrics the probe measures on the workload's inputs, with units.
# The traced replay gives only the cli metrics, trace.overhead_s and notes.
PROBE_METRICS = {
    "topology.load_s": "s", "workload.generate_s": "s", "grids.form_s": "s", "grids.elect_s": "s",
    "simulate.qcps_s": "s", "simulate.flat_s": "s", "simulate.cost_s": "s",
    "report.serialize_trace_s": "s", "report.run_report_s": "s",
    "grids.peak_mb": "MB", "grids.count": "count", "grids.max_size": "count",
    "simulate.qcps_messages": "count", "simulate.flat_messages": "count",
    "simulate.trace_mb": "MB", "report.peak_mb": "MB", "report.trace_bytes": "bytes",
    "workload.reading_us": "us", "cloud.ingest_us": "us", "cloud.query_ms": "ms",
    "simulate.qcps_us_per_message": "us", "simulate.flat_us_per_message": "us",
    "report.serialize_mb_per_s": "MB/s",
}


class Child:
    """One finished child process, timed and measured from outside."""

    def __init__(self, argv: list[str], env: dict, stdout: Path):
        stderr = stdout.with_suffix(".err")
        self.start_ns = time.monotonic_ns()
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        self.end_ns = time.monotonic_ns()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = (self.end_ns - self.start_ns) / 1e9
        self.peak_rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB
        self.stdout = stdout.read_text(encoding="utf-8")
        self.stderr = stderr.read_text(encoding="utf-8", errors="replace")


class Bench:
    """One workload at one seed: its inputs, children, checks and spans."""

    def __init__(self, name: str, seed: int, tmp: Path, smoke: bool):
        w = WORKLOADS[name]
        if smoke:
            w = dataclasses.replace(w, sensors=w.sensors and SMOKE_SENSORS, **SMOKE_SIZES)
        self.w, self.tmp = w, tmp
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        self.setup_reps = 1 if smoke else SETUP_REPS
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spans: list[dict] = []
        self.source = "testbed"
        self.sensor_ids = None
        n = 16
        if w.sensors:
            text = topogen.topology_json(w.sensors, seed, w.ticks)
            self.source = str(tmp / "topology.json")
            Path(self.source).write_text(text, encoding="utf-8")
            self.sensor_ids = {s["id"] for s in json.loads(text)["sensors"]}
            n = w.sensors
        sizes = (n, w.ticks, w.queries, w.requests)
        self.expected = {"qcps": probe.qcps_messages(*sizes), "flat": probe.flat_messages(*sizes)}
        recorded = {} if smoke else json.loads(DIGESTS.read_text(encoding="utf-8")).get(name, {})
        self.digests = recorded.get("*") or recorded.get(str(seed))
        self.seen_digests: dict[str, str] = {}
        self._n = 0

    # -- children ----------------------------------------------------------

    def spawn(self, argv: list[str]) -> Child:
        self._n += 1
        return Child(argv, self.env, self.tmp / f"child{self._n}.out")

    def operation(self, label: str, child: Child, problems: list[str]) -> None:
        """Count one attempted operation; it fails on a bad exit or output."""
        self.attempted += 1
        if child.returncode != 0:
            tail = child.stderr.strip().splitlines()[-1:] or [""]
            problems = [f"exit code {child.returncode}: {tail[0]}", *problems]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def probe_args(self) -> list[str]:
        w = self.w
        return [self.source, str(w.ticks), str(w.queries), str(w.requests)]

    def repetition(self, rep: str, traced: bool) -> tuple[float, float]:
        """Run the workload's commands once; return summed wall s and peak RSS MB."""
        wall, peak = 0.0, 0.0
        out = self.tmp / "run_out.json"
        for name, template in self.w.commands:
            out.unlink(missing_ok=True)
            fields = dict(dataclasses.asdict(self.w), topology=self.source, out=out)
            argv = [part.format(**fields) for part in template]
            spans_file = self.tmp / "spans.json"
            if traced:
                argv = [PROBE, "replay", str(spans_file), *argv]
            child = self.spawn(argv)
            problems = []
            if child.returncode == 0:
                try:
                    problems = self.check_output(name, child.stdout, out)
                except (ValueError, LookupError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            self.operation(f"{rep} {name}", child, problems)
            if traced and spans_file.exists():
                self.add_spans(json.loads(spans_file.read_text(encoding="utf-8")), child, rep)
                spans_file.unlink()
            wall += child.wall_s
            peak = max(peak, child.peak_rss_mb)
        return wall, peak

    def add_spans(self, raw: list, child: Child, rep: str) -> None:
        """Nest a child's spans under a root span for the whole process."""
        base = len(self.spans)
        self.spans.append({"id": base, "parent": None, "name": "process", "rep": rep,
                           "start_ns": child.start_ns, "end_ns": child.end_ns})
        for i, (name, parent, start, end) in enumerate(raw):
            self.spans.append({"id": base + 1 + i, "parent": base if parent is None else base + 1 + parent,
                               "name": name, "rep": rep, "start_ns": start, "end_ns": end or child.end_ns})

    def probe(self, mode: str, *args: str) -> dict:
        """Run one probe.py mode that prints a JSON object; return the object."""
        child = self.spawn([PROBE, mode, *args])
        result: dict = {}
        if child.returncode == 0:
            result = json.loads(child.stdout.splitlines()[-1])
        self.operation(mode, child, result.pop("failures", []))
        return result

    # -- output verification ----------------------------------------------

    def check_output(self, name: str, stdout: str, out_file: Path) -> list[str]:
        problems: list[str] = []
        counts: dict[str, int] = {}
        if name == "run":
            if not out_file.exists():
                return ["--out file was not written"]
            text = out_file.read_text(encoding="utf-8")
            costs = json.loads(text)["costs"]
            counts = {s: c["wireless_message_count"] + c["infra_message_count"] for s, c in costs.items()}
            digests = {"run": text}
        elif name == "compare" and stdout.startswith("{"):
            parsed = json.loads(stdout)
            counts = {s: parsed[s]["wireless_message_count"] + parsed[s]["infra_message_count"]
                      for s in ("qcps", "flat")}
            digests = {"compare": stdout}
        elif name == "compare":
            rows = {line.split()[0]: line.split()[1:3] for line in stdout.splitlines()[1:]}
            counts = {s: int(rows["wireless_message_count"][i]) + int(rows["infra_message_count"][i])
                      for i, s in enumerate(("qcps", "flat"))}
            digests = {"compare": stdout}
        elif name == "ingest":
            parsed = json.loads(stdout.splitlines()[-1])
            counts = {"qcps": parsed["messages"]}
            digests = {"run_report": parsed["run_report"], "trace": parsed["trace"]}
        else:  # form_grids
            problems += self.check_partition(stdout)
            digests = {"form_grids": stdout}
        for strategy, count in counts.items():
            if count != self.expected[strategy]:
                problems.append(f"{strategy} sent {count} messages, closed form gives {self.expected[strategy]}")
        for key, value in digests.items():
            digest = value if name == "ingest" else hashlib.sha256(value.encode("utf-8")).hexdigest()
            self.seen_digests[key] = digest
            if self.digests is not None and self.digests.get(key) != digest:
                problems.append(f"sha256 of {key} output is {digest}, recorded {self.digests.get(key)}")
        return problems

    def check_partition(self, stdout: str) -> list[str]:
        """form-grids output: each sensor in exactly one grid, count line agrees."""
        lines = stdout.splitlines()
        grids = [dict(f.split("=", 1) for f in line.split()[2:]) for line in lines[:-1]]
        members = [m for g in grids for m in g["members"].split(",")]
        problems = []
        if lines[-1] != f"{len(grids)} grids":
            problems.append(f"last line {lines[-1]!r} but {len(grids)} grid lines")
        if len(members) != len(set(members)) or set(members) != self.sensor_ids:
            problems.append("grids do not partition the sensors")
        if any(g["coordinator"] not in g["members"].split(",") for g in grids):
            problems.append("a coordinator is not a member of its grid")
        return problems

    # -- the two modes -----------------------------------------------------

    def setup(self) -> float:
        child = self.spawn([PROBE, "setup", *self.probe_args()])
        self.operation("setup", child, [])
        return child.wall_s

    def untraced(self, seconds: float) -> tuple[dict, dict]:
        walls, peaks, setup = [], [], []
        while len(walls) < MIN_REPS or sum(walls) + statistics.median(walls) <= seconds:
            wall, peak = self.repetition(f"rep {len(walls)}", traced=False)
            walls.append(wall)
            peaks.append(peak)
            # Spread the set-up children over the run, so that their median
            # sees the same machine state as the repetitions' median.
            while len(setup) < self.setup_reps * min(1.0, sum(walls) / seconds):
                setup.append(self.setup())
        while len(setup) < self.setup_reps:
            setup.append(self.setup())
        self.probe("check", *self.probe_args())
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
        }
        return metrics, {"wall_s samples": len(walls), "setup_s samples": len(setup)}

    def traced(self, seconds: float) -> tuple[dict, dict]:
        untraced_walls, passes = [], []
        start = time.monotonic()
        while not passes or (time.monotonic() - start) * (len(passes) + 1) / len(passes) <= seconds:
            untraced_walls.append(self.repetition(f"untraced {len(passes)}", traced=False)[0])
            first = len(self.spans)
            self.repetition(f"traced {len(passes)}", traced=True)
            passes.append(self.spans[first:])
        traces = str(self.tmp / "traces.pickle")
        found = self.probe("check", *self.probe_args(), traces)
        found.update(self.probe("grids-memory", *self.probe_args()))
        found.update(self.probe("trace-memory", traces))
        per_pass = [span_values(p) for p in passes]
        wall = statistics.median(untraced_walls)
        traced_total = statistics.median(v["total"] for v in per_pass)

        def replayed(key: str) -> float:
            return statistics.median(v.get(key, 0.0) for v in per_pass)

        metrics = {
            "cli.import_s": (replayed("import"), "s"),
            "cli.residual_s": (replayed("self.process") + replayed("self.cli"), "s"),
            "trace.overhead_s": (traced_total - wall, "s"),
        }
        metrics.update((key, (found.get(key, 0.0), unit)) for key, unit in PROBE_METRICS.items())
        spans = {k for k in per_pass[0] if k != "total" and not k.startswith(("self.", "process"))}
        shares = {k: round(replayed(k) / wall, 3) for k in sorted(spans, key=replayed, reverse=True)}
        notes = {
            "untraced wall_s": wall,
            "traced total_s": traced_total,
            "passes": len(passes),
            "replayed share of untraced wall_s": {k: v for k, v in shares.items() if v >= 0.01},
            "self_s by layer": {k[5:]: round(replayed(k), 6) for k in sorted(per_pass[0]) if k.startswith("self.")},
        }
        return metrics, notes


def span_values(spans: list[dict]) -> dict[str, float]:
    """Seconds by span name, self seconds by layer, and the root total.

    A span's self time is its duration minus its children's; a layer is the
    span name up to the first dot (process, import, cli, grids, ...).
    """
    values: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        duration = (s["end_ns"] - s["start_ns"]) / 1e9
        values[s["name"]] += duration
        if s["parent"] is None:
            values["total"] += duration
        else:
            child_time[s["parent"]] += duration
    for s in spans:
        duration = (s["end_ns"] - s["start_ns"]) / 1e9
        values["self." + s["name"].split(".")[0]] += duration - child_time[s["id"]]
    return dict(values)


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def machine_metadata() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "loadavg_1m": os.getloadavg()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one sensegrid benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (20 sensors, 5 ticks) and one set-up child; digests unchecked")
    args = parser.parse_args(argv)
    meta = machine_metadata()
    if not (ROOT / "src" / "sensegrid" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'sensegrid'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        bench = Bench(args.workload, args.seed, Path(tmp), args.smoke)
        measured, notes = (bench.traced if args.trace else bench.untraced)(args.seconds)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} machine={json.dumps(meta)}")
    for name, (value, unit) in measured.items():
        print(f"  {name:<32} {value:>14.6f} {unit}")
    print("  " + json.dumps(notes))
    if bench.digests is None:
        print(f"  digests: none recorded for seed {args.seed}; outputs were checked by closed forms only")
    for problem in bench.problems:
        print(f"  FAILED {problem}")
    if args.trace:
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"machine": meta, "spans": bench.spans}), encoding="utf-8")
        print(f"  spans: {spans_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
