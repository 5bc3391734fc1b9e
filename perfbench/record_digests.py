"""Record the sha256 digests of workload outputs that run.py checks against.

    python3 perfbench/record_digests.py

Runs each workload's commands once for each of the seeds 0 to 31
(testbed_cli once, since its inputs do not depend on the seed), requires
every closed-form check to pass, and rewrites perfbench/digests.json. Seeds without a record are still
checked by the closed forms and the probe's invariants, not by digest.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    recorded: dict[str, dict[str, dict[str, str]]] = {}
    out_dir = run.ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    for name, workload in run.WORKLOADS.items():
        seeds = range(32) if workload.sensors else [None]
        for seed in seeds:
            with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
                bench = run.Bench(name, seed or 0, Path(tmp), smoke=False)
                bench.digests = None
                bench.repetition("record", traced=False)
            if bench.failed:
                print("\n".join(bench.problems), file=sys.stderr)
                return 1
            recorded.setdefault(name, {})["*" if seed is None else str(seed)] = bench.seen_digests
            print(f"{name} seed={seed}: {bench.seen_digests}", flush=True)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
