"""Check the result line of a traced perfbench run.

Reads the last stdout line of ``perfbench/run.py --trace 1`` on stdin and
exits non-zero unless the run was correct and every per-layer metric the
workload's stages and spans feed is positive — so a stage that moves or
is renamed cannot silently zero a benchmark metric.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 2 --trace 1 \\
        | tail -n 1 | python3 scripts/check_traced_perfbench.py paper-grid
"""

from __future__ import annotations

import json
import sys

_ANALYTICAL = (
    "core.partition_ms",
    "core.tiling_ms",
    "mapping.map_ms",
    "mapping.traffic_ms",
    "arch.noc.analytical_ms",
    "arch.dram_ms",
    "models.count_ms",
    "core.simulate_layer_ms",
)

#: Workload → per-layer metrics that must read > 0 in a traced run.
STAGE_FED = {
    "paper-grid": _ANALYTICAL,
    "design-search": _ANALYTICAL,
    "cycle-calibrate": (
        "cycle.noc_ms",
        "cycle.inject_ms",
        "cycle.routes_ms",
        "cycle.pe_ms",
        "cycle.map_ms",
        "mapping.traffic_ms",
        "arch.noc.analytical_ms",
    ),
    "serve-mixed": (
        "core.simulate_layer_ms",
        "core.partition_ms",
        "mapping.traffic_ms",
        "arch.noc.analytical_ms",
    ),
}


def problems(workload: str, result: dict) -> list[str]:
    """Everything wrong with one traced result line (empty when fine)."""
    found = []
    if result.get("correct") is not True:
        found.append(f"run not correct ({result.get('failed')} failed)")
    metrics = result.get("metrics", {})
    for name in STAGE_FED[workload]:
        value = metrics.get(name, {}).get("value", 0.0)
        if not value > 0.0:
            found.append(f"{name} = {value}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in STAGE_FED:
        print(f"usage: check_traced_perfbench.py {{{','.join(STAGE_FED)}}}", file=sys.stderr)
        return 2
    workload = argv[0]
    found = problems(workload, json.loads(sys.stdin.read()))
    for problem in found:
        print(f"{workload}: {problem}", file=sys.stderr)
    print(workload, "ok" if not found else "FAILED")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
