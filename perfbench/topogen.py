"""Seeded synthetic topologies for the benchmark (stdlib only).

Sensors are placed uniformly in a box of side 2000*sqrt(N/1000) by the same
by 50, so the sensor density, and with it the grid sizes, stay the same as
N grows. Types are assigned round-robin and the grid threshold is 100. The
same (n, seed, ticks) always gives byte-identical JSON that load_topology
accepts.
"""

from __future__ import annotations

import json
import math
import random

TYPES = ("vision", "speed", "environment", "miscellaneous")
THRESHOLD = 100
HEIGHT = 50


def topology_json(n_sensors: int, seed: int, ticks: int) -> str:
    rng = random.Random(f"perfbench-topology|{n_sensors}|{seed}")
    side = 2000 * math.sqrt(n_sensors / 1000)
    sensors = [
        {
            "id": f"N{i:05d}",
            "type": TYPES[i % len(TYPES)],
            "x": rng.uniform(0, side),
            "y": rng.uniform(0, side),
            "z": rng.uniform(0, HEIGHT),
        }
        for i in range(n_sensors)
    ]
    config = {
        "sensors": sensors,
        "threshold": THRESHOLD,
        "cost_params": {
            "wireless_cost_per_unit_distance": 1,
            "infra_message_cost": 1,
            "computation_op_cost": 1,
        },
        "segment_length": 600,
        "duration_ticks": ticks,
        "seed": seed,
    }
    return json.dumps(config, indent=1) + "\n"
