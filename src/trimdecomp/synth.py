"""Synthetic layout generators for tests and benchmarking.

random_layout produces small clustered instances whose exact optima are
cheap to compute, for cross-checking the solver and the graph reductions
against each other. grid_layout produces a large regular instance built
from gadgets with hand-countable optima, for end-to-end scaling runs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .geometry import Rect, RectilinearShape
from .layout_io import DecompositionParams, LayoutDocument


def _document(name: str, shapes: list[RectilinearShape], raw: dict[str, int]) -> LayoutDocument:
    params = DecompositionParams.from_raw(raw, shapes)
    return LayoutDocument(name=name, shapes=tuple(shapes), params=params)


def random_layout(
    seed: int,
    clusters: int = 5,
    stitch: bool = False,
    alpha: Fraction = Fraction(1, 10),
) -> LayoutDocument:
    """Clusters of bars and L shapes on a coarse grid.

    Clusters sit 2000 apart so they never interact; inside a cluster the
    rows are 160 apart and the bars 60 to 140 apart, so most neighbours
    fall within the default spacing rule of 120.
    """
    rng = random.Random(seed)
    shapes: list[RectilinearShape] = []
    fid = 1
    for k in range(clusters):
        cx = 2000 * (k % 3) + rng.randrange(0, 101, 20)
        cy = 2000 * (k // 3) + rng.randrange(0, 101, 20)
        nbars = rng.randint(2, 6)
        made = 0
        row = 0
        while made < nbars:
            in_row = min(rng.randint(1, 2), nbars - made)
            x = cx + rng.randrange(0, 81, 20)
            y = cy + 160 * row
            for _ in range(in_row):
                w = rng.randrange(100, 361, 20)
                h = rng.randrange(40, 61, 4)
                if rng.random() < 0.25:
                    # L shape: vertical arm reaching into the row gap, kept
                    # 20 short of the next row so shapes stay disjoint
                    arm = min(rng.choice((40, 60, 80)), 140 - h)
                    aw = rng.choice((40, 60, 80))
                    shapes.append(
                        RectilinearShape.from_outline(
                            fid,
                            [
                                (x, y),
                                (x + w, y),
                                (x + w, y + h + arm),
                                (x + w - aw, y + h + arm),
                                (x + w - aw, y + h),
                                (x, y + h),
                            ],
                        )
                    )
                else:
                    shapes.append(_bar(fid, x, y, w, h))
                fid += 1
                made += 1
                x += w + rng.randrange(60, 141, 20)
            row += 1
    raw = {
        "dis_m": 120,
        "alpha_num": alpha.numerator,
        "alpha_den": alpha.denominator,
        "stitch": int(stitch),
    }
    return _document(f"random{seed}", shapes, raw)


def _bar(fid: int, x: int, y: int, w: int, h: int) -> RectilinearShape:
    return RectilinearShape.from_rect(fid, Rect.of(x, y, x + w, y + h))


def grid_layout(shapes: int = 10000, seed: int = 0) -> LayoutDocument:
    """Regular benchmark layout built from rows of 100 shapes.

    Five row kinds cycle: chains of bars whose cuts are all independent,
    five-bar groups whose cuts crowd each other, two-by-two quads solvable
    at zero cost through their corner cuts, triangles of mutually close
    bars with no usable cut (one unavoidable conflict each), and isolated
    bars. At the default size of 10000 shapes that is 20 rows of each
    kind, hence exactly 20 * 33 = 660 conflicts and no stitches.
    """
    rng = random.Random(seed)
    out: list[RectilinearShape] = []
    fid = 1
    row = 0

    def jitter() -> int:
        return 40 + rng.randrange(0, 9)

    while fid <= shapes:
        y = 600 * row
        kind = row % 5
        budget = shapes - fid + 1
        if kind == 0:  # chain: pitch 260 leaves cuts more than dis_c apart
            for i in range(min(100, budget)):
                out.append(_bar(fid, 260 * i, y, 160, jitter()))
                fid += 1
        elif kind == 1:  # crowded groups: neighbouring cuts only 100 apart
            for i in range(min(100, budget)):
                group, slot = divmod(i, 5)
                out.append(_bar(fid, 1300 * group + 200 * slot, y, 100, jitter()))
                fid += 1
        elif kind == 2:  # quads: squares leave only the shared corner pocket
            for i in range(min(100, budget)):
                quad, slot = divmod(i, 4)
                dx, dy = (slot % 2) * 260, (slot // 2) * 260
                out.append(_bar(fid, 820 * quad + dx, y + dy, 160, 160))
                fid += 1
        elif kind == 3:  # triangles: every pairwise cut falls below h_low
            for i in range(min(100, budget)):
                tri, slot = divmod(i, 3)
                if i == 99:
                    out.append(_bar(fid, 33000, y, 160, 40))
                elif slot == 0:
                    out.append(_bar(fid, 1000 * tri, y, 400, 40))
                elif slot == 1:
                    out.append(_bar(fid, 1000 * tri, y + 140, 400, 40))
                else:
                    out.append(_bar(fid, 1000 * tri + 440, y, 160, 180))
                fid += 1
        else:  # isolated
            for i in range(min(100, budget)):
                out.append(_bar(fid, 400 * i, y, 160, jitter()))
                fid += 1
        row += 1
    return _document(f"grid{shapes}", out, {"dis_m": 120, "hlow": 60})
