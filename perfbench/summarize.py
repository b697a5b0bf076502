#!/usr/bin/env python3
"""Median and quartiles of each metric across runs, one row per workload.

Reads the stdout of any number of run.py invocations (each contributes a
provenance line followed by its result line) and prints, for every
workload and metric, the median, the quartiles and the spread (quartile
distance over the median). For end-to-end metrics it also prints the
bound from BENCHMARK.json and flags a spread above a third of it.

    python3 perfbench/summarize.py runs.log [more.log ...]
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from run import quartiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_runs(paths: list[str]) -> dict[tuple[str, int], dict[str, list[float]]]:
    """Values per (workload, trace) and metric, in file order."""
    runs: dict[tuple[str, int], dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in paths:
        provenance = None
        for line in Path(path).read_text().splitlines():
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if "provenance" in doc:
                provenance = doc["provenance"]
            elif "metrics" in doc and provenance is not None:
                table = runs[(provenance["workload"], provenance["trace"])]
                for name, metric in doc["metrics"].items():
                    table[name].append(metric["value"])
                provenance = None
    return runs


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    for (workload, trace), table in sorted(read_runs(argv).items()):
        print(f"{workload} (trace {trace})")
        for name, values in table.items():
            q = quartiles(values)
            med, q1, q3 = q["median"], q["q1"], q["q3"]
            spread = (q3 - q1) / abs(med) if med else 0.0
            line = f"  {name:42s} n={len(values):2d} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f}"
            if not trace and name in bounds:
                bound = bounds[name]
                flag = "" if spread <= bound / 3 or name == "setup_s" else "  WIDE"
                line += f" bound={bound}{flag}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
