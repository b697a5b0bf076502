"""Input generation and independent references for the three workloads.

Each workload is a list of layout files written under a work directory
plus, for every layout, the optimum the program has to reach. The
program under test only ever sees the layout text.

grid          one grid_layout; its optimum is known in closed form.
random_batch  seeded random_layout files, half with stitching enabled;
              the optimum comes from HiGHS on the exported LP (oracle.py).
chain         crowded chains of bars; the optimum is 0 by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from trimdecomp import grid_layout, random_layout, write_layout

# Full and smoke sizes. The smoke sizes keep every code path (timeouts and
# the recursion failure on chain, stitched layouts on random_batch) but
# finish in seconds.
GRID_SHAPES = {False: 10000, True: 500}
GRID_MIN_PASSES = {False: 2, True: 1}
BATCH_LAYOUTS = {False: 200, True: 6}
CHAIN_LENGTHS = {
    # 4..16 bars are proven within 0.25 s today, 22 and 30 need several
    # times the per-op limit, and 1200 bars exhaust the recursion limit.
    # Five 15-bar chains (different heights) are the middle of the 13 ops,
    # so the median op time rests on five samples per pass, not one.
    False: (4, 8, 12, 14, 15, 15, 15, 15, 15, 16, 22, 30, 1200),
    True: (4, 8, 24, 1200),
}
CHAIN_TIME_LIMIT = {False: 1.0, True: 0.2}
BATCH_JOBS = 2


def grid_conflicts(shapes: int) -> int:
    """Closed-form optimum of grid_layout: every 500 shapes hold one row of
    33 triangles, each with exactly one unavoidable conflict."""
    if shapes % 500:
        raise ValueError("grid size must be a multiple of 500")
    return 33 * (shapes // 500)


def chain_text(name: str, bars: int, rng: random.Random) -> str:
    """Bars 100 wide at pitch 200 with heights 40..48: every neighbouring
    pair conflicts and every cut is too close to its neighbours' cuts, yet
    alternating the masks costs nothing."""
    lines = [f"layout {name}", "units nm", "param dis_m 120", "param hlow 60"]
    for i in range(bars):
        lines.append(f"rect {i + 1} {200 * i} 0 {200 * i + 100} {rng.randint(40, 48)}")
    return "\n".join(lines) + "\n"


def build(workload: str, seed: int, smoke: bool, workdir: Path) -> dict:
    """Write the workload's layouts under workdir and return the spec the
    worker reads. Each op carries its reference optimum as a string."""
    layouts = workdir / "layouts"
    layouts.mkdir(parents=True)
    ops = []

    def add(name: str, text: str, optimum: Fraction | None, **expect) -> None:
        path = layouts / f"{name}.lay"
        path.write_text(text)
        ops.append({
            "key": name,
            "file": str(path),
            "optimum": None if optimum is None else str(optimum),
            **expect,
        })

    time_limit = None
    if workload == "grid":
        shapes = GRID_SHAPES[smoke]
        conflicts = grid_conflicts(shapes)
        add(f"grid{shapes}", write_layout(grid_layout(shapes, seed)), Fraction(conflicts),
            conflicts=conflicts)
    elif workload == "random_batch":
        for i in range(BATCH_LAYOUTS[smoke]):
            doc = random_layout(seed * 1000 + i, clusters=9, stitch=i % 2 == 1)
            add(doc.name, write_layout(doc), None)
    elif workload == "chain":
        time_limit = CHAIN_TIME_LIMIT[smoke]
        rng = random.Random(seed)
        for i, bars in enumerate(CHAIN_LENGTHS[smoke]):
            name = f"chain{i:02d}_{bars}"
            add(name, chain_text(name, bars, rng), Fraction(0))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "workload": workload,
        # one grid op takes about 18 s; two per untraced run keep its
        # medians from resting on a single sample of a drifting machine
        "min_passes": GRID_MIN_PASSES[smoke] if workload == "grid" else 1,
        "layout_dir": str(layouts),
        "time_limit": time_limit,
        "jobs": BATCH_JOBS,
        "ops": ops,
    }
