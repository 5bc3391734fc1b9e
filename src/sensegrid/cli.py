"""Command-line interface: form-grids, run, and compare."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# Parsing and config loading need only these two modules. Each command
# imports the modules it runs, so form-grids never loads the simulator.
from .errors import ConfigError, SenseGridError, WorkloadError
from .topology import STRATEGIES, ScenarioConfig, builtin_testbed, load_topology

if TYPE_CHECKING:
    from .workload import Workload


def _add_topology_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--testbed", action="store_true", help="use the built-in 16-node testbed")
    source.add_argument("--topology", metavar="FILE", help="scenario config JSON file")
    parser.add_argument("--threshold", type=float, help="override the grid distance threshold")
    parser.add_argument("--seed", type=int, help="override the scenario seed")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ticks", type=int, help="override the reporting duration")
    parser.add_argument("--queries", type=int, help="generated centric queries (default 20)")
    parser.add_argument("--requests", type=int, help="generated inter-sensor requests (default 10)")
    parser.add_argument("--workload", metavar="FILE", help="load the workload from JSON instead of generating it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensegrid",
        description="Simulate grid-clustered sensor networks with cloud-mediated queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_grids = sub.add_parser("form-grids", help="cluster sensors and print the elected coordinators")
    _add_topology_args(p_grids)

    p_run = sub.add_parser("run", help="run one strategy and emit its report")
    _add_topology_args(p_run)
    _add_workload_args(p_run)
    p_run.add_argument("--strategy", choices=STRATEGIES, required=True)
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")

    p_cmp = sub.add_parser("compare", help="run both strategies and report the cost deltas")
    _add_topology_args(p_cmp)
    _add_workload_args(p_cmp)
    p_cmp.add_argument("--format", choices=("json", "csv"), help="machine-readable output instead of a table")
    p_cmp.add_argument("--out", metavar="FILE", help="write the comparison here instead of stdout")

    return parser


def _read(path: str, error: type[SenseGridError], what: str) -> str:
    """A --topology or --workload file's text; bytes that are not UTF-8 raise `error`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not valid UTF-8: {exc}") from exc


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    if args.testbed:
        cfg = builtin_testbed()
    else:
        cfg = load_topology(_read(args.topology, ConfigError, "config"))
    updates = {}
    if args.threshold is not None:
        updates["threshold"] = args.threshold
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "ticks", None) is not None:
        updates["duration_ticks"] = args.ticks
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _load_workload(args: argparse.Namespace, cfg: ScenarioConfig) -> Workload:
    from .workload import generate_workload, load_workload

    if args.workload is not None:
        if args.queries is not None or args.requests is not None:
            raise WorkloadError("--workload cannot be combined with --queries or --requests")
        return load_workload(_read(args.workload, WorkloadError, "workload"))
    return generate_workload(
        cfg,
        20 if args.queries is None else args.queries,
        10 if args.requests is None else args.requests,
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_form_grids(args: argparse.Namespace) -> int:
    from .grids import form_grids

    cfg = _load_config(args)
    grids = form_grids(cfg.sensors, cfg.threshold, cfg.coordinator_overrides)
    lines = [
        f"grid {grid.grid_id}: type={grid.sensor_type.value} "
        f"coordinator={grid.coordinator} election={grid.election} "
        f"members={','.join(grid.members)}\n"
        for grid in grids.grids
    ]
    _emit("".join(lines) + f"{len(grids.grids)} grids\n", None)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .report import build_run_report, canonical_json, cost_csv
    from .simulate import _answer_queries, _run, _sum_costs

    cfg = _load_config(args)
    workload = _load_workload(args, cfg)
    [(grids, items, events)] = _run(cfg, workload, args.strategy)
    costs = {args.strategy: _sum_costs(args.strategy, items, events, cfg.cost_params)}
    if args.format == "csv":  # costs only: no answers, and flat forms no grids
        _emit(cost_csv(costs), args.out)
        return 0
    answered = _answer_queries(cfg, workload)
    _emit(canonical_json(build_run_report(cfg, grids, costs, answered)), args.out)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .report import canonical_json, comparison_csv, comparison_dict, comparison_table
    from .simulate import compare_strategies

    cfg = _load_config(args)
    workload = _load_workload(args, cfg)
    comparison = compare_strategies(cfg, workload)
    if args.format == "json":
        _emit(canonical_json(comparison_dict(comparison)), args.out)
    elif args.format == "csv":
        _emit(comparison_csv(comparison), args.out)
    else:
        _emit(comparison_table(comparison), args.out)
    return 0


_COMMANDS = {
    "form-grids": cmd_form_grids,
    "run": cmd_run,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except (SenseGridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a run too large for this process, such as a huge --queries
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
