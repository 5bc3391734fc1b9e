"""Command-line interface: form-grids, run, and compare."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .errors import SenseGridError
from .grids import form_grids
from .report import (
    build_run_report,
    canonical_json,
    comparison_csv,
    comparison_dict,
    comparison_table,
    cost_csv,
)
from .simulate import STRATEGIES, _answer_queries, _price, compare_strategies
from .topology import ScenarioConfig, builtin_testbed, load_topology
from .workload import Workload, generate_workload, load_workload


def _add_topology_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--testbed", action="store_true", help="use the built-in 16-node testbed")
    source.add_argument("--topology", metavar="FILE", help="scenario config JSON file")
    parser.add_argument("--threshold", type=float, help="override the grid distance threshold")
    parser.add_argument("--seed", type=int, help="override the scenario seed")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ticks", type=int, help="override the reporting duration")
    parser.add_argument("--queries", type=int, default=20, help="generated centric queries (default 20)")
    parser.add_argument("--requests", type=int, default=10, help="generated inter-sensor requests (default 10)")
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


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    if args.testbed:
        cfg = builtin_testbed()
    else:
        cfg = load_topology(Path(args.topology).read_text(encoding="utf-8"))
    updates = {}
    if args.threshold is not None:
        updates["threshold"] = args.threshold
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "ticks", None) is not None:
        updates["duration_ticks"] = args.ticks
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _load_workload(args: argparse.Namespace, cfg: ScenarioConfig) -> Workload:
    if args.workload is not None:
        return load_workload(Path(args.workload).read_text(encoding="utf-8"))
    return generate_workload(cfg, args.queries, args.requests)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_form_grids(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    grids = form_grids(cfg.sensors, cfg.threshold, cfg.coordinator_overrides)
    for grid in grids.grids:
        print(
            f"grid {grid.grid_id}: type={grid.sensor_type.value} "
            f"coordinator={grid.coordinator} election={grid.election} "
            f"members={','.join(grid.members)}"
        )
    print(f"{len(grids.grids)} grids")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    workload = _load_workload(args, cfg)
    grids, cost = _price(cfg, workload, args.strategy)
    costs = {args.strategy: cost}
    if args.format == "csv":  # costs only: no answers, and flat forms no grids
        _emit(cost_csv(costs), args.out)
        return 0
    if grids is None:  # flat forms no grids, but its report lists them
        grids = form_grids(cfg.sensors, cfg.threshold, cfg.coordinator_overrides)
    answered = _answer_queries(cfg, workload)
    _emit(canonical_json(build_run_report(cfg, grids, costs, answered)), args.out)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
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


if __name__ == "__main__":
    sys.exit(main())
