"""The city_ingest workload: a library script in the style of demos/02.

Runs the grid strategy over every tick of a synthetic city topology, prices
the trace, renders the canonical run report and serializes the full trace,
as a user archiving a run would. The flat strategy never runs.

    python3 perfbench/city_ingest.py CONFIG --queries Q --requests R

Prints one JSON line with the message count and the sha256 digests of the
run report and the trace text, which the benchmark checks.
"""

import argparse
import hashlib
import json
from pathlib import Path

from sensegrid import (
    QCPS,
    build_run_report,
    canonical_json,
    cost_of,
    generate_workload,
    load_topology,
    run_scenario,
    serialize_trace,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--queries", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    args = parser.parse_args()

    cfg = load_topology(Path(args.config).read_text(encoding="utf-8"))
    workload = generate_workload(cfg, args.queries, args.requests)
    trace = run_scenario(cfg, workload, QCPS)
    costs = {QCPS: cost_of(trace, cfg.cost_params)}
    report = canonical_json(build_run_report(cfg, trace.grid_set, costs, trace.answered))
    text = serialize_trace(trace)
    print(
        json.dumps(
            {
                "messages": len(trace.messages),
                "run_report": hashlib.sha256(report.encode("utf-8")).hexdigest(),
                "trace": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            }
        )
    )


if __name__ == "__main__":
    main()
