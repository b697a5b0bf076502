"""Every seeded layout family of the tests, and the named corpora that
the oracle tests read.

A family makes one layout document, or its text, from one seed:
random_layout and grid_layout from the package, the polyomino,
crowded-chain, stacked-bar, square-grid, stitch-ring and cell-row
generators here, and the bundled layouts/*.lay, whose seeds are their
file names. A corpus is a list of entries, each a family, its seeds, the
metrics and the stitch modes to run them under; runs(name) yields its
runs seed by seed, each seed under its stitch modes in order and each
stitch mode under its metrics in order. A new family takes one
generator here and one entry in CORPORA, and every test that reads that
corpus runs it unchanged.
"""

from __future__ import annotations

import dataclasses
import random
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

from trimdecomp.geometry import Metric, RectilinearShape
from trimdecomp.layout_io import LayoutDocument, parse_layout
from trimdecomp.synth import grid_layout, random_layout

LAYOUTS = Path(__file__).resolve().parent.parent / "layouts"


def bundled_layout(name: str) -> LayoutDocument:
    return parse_layout((LAYOUTS / name).read_text())


def chain_text(bars: int) -> str:
    """Crowded chain: every neighbour pair conflicts and every cut excludes
    its neighbours' cuts, while alternating the masks costs nothing."""
    lines = [f"layout chain{bars}", "param dis_m 120", "param hlow 60"]
    for i in range(bars):
        lines.append(f"rect {i + 1} {200 * i} 0 {200 * i + 100} {40 + i % 9}")
    return "\n".join(lines) + "\n"


def stack_text(bars: int) -> str:
    """Stacked bars: rect i+1 spans 0 50i 100 50i+30. Each bar conflicts
    with the three above it and the three below (gaps 20, 70 and 120), and
    only neighbouring bars have a candidate cut."""
    lines = [f"layout stack{bars}", "param dis_m 120", "param hlow 10"]
    lines += [f"rect {i + 1} 0 {50 * i} 100 {50 * i + 30}" for i in range(bars)]
    return "\n".join(lines) + "\n"


def square_grid_text(rows: int, cols: int) -> str:
    """A rows by cols grid of 40 nm squares at pitch 100, ids row-major
    from 1, under dis_m 120: each square conflicts with its eight
    neighbours, and the grid is one block. The 4 by 20 grid has min-fill
    width 30, so the search cannot prove its optimum within a fraction
    of a second."""
    lines = [f"layout grid{rows}x{cols}", "param dis_m 120"]
    lines += [
        f"rect {cols * row + col + 1} {100 * col} {100 * row} {100 * col + 40} {100 * row + 40}"
        for row in range(rows)
        for col in range(cols)
    ]
    return "\n".join(lines) + "\n"


def with_copy(doc: LayoutDocument, dx: int, dy: int) -> LayoutDocument:
    """doc beside a copy of its shapes moved by (dx, dy), whose ids follow
    the largest id of doc in the same order."""
    offset = doc.shapes[-1].id
    copy = tuple(
        RectilinearShape.from_outline(s.id + offset, [(x + dx, y + dy) for x, y in s.outline])
        for s in doc.shapes
    )
    return dataclasses.replace(doc, shapes=doc.shapes + copy)


def _outline(rng, kind):
    """The local outline of one bar, L, U or T on a 20 nm lattice."""
    t = rng.randrange(20, 61, 20)  # arm width
    w, h = rng.randrange(3 * t, 241, 20), rng.randrange(2 * t, 201, 20)
    if kind == "bar":
        return [(0, 0), (w, 0), (w, t), (0, t)]
    if kind == "L":
        return [(0, 0), (w, 0), (w, t), (t, t), (t, h), (0, h)]
    if kind == "U":
        return [(0, 0), (w, 0), (w, h), (w - t, h), (w - t, t), (t, t), (t, h), (0, h)]
    a = rng.randrange(20, w - t, 20)  # T: the stem's left side, under a bar of width w
    return [(a, 0), (a + t, 0), (a + t, h - t), (w, h - t), (w, h), (0, h), (0, h - t), (a, h - t)]


def polyomino_text(seed: int) -> str:
    """Two to five bars and L, U and T outlines, each turned a random
    quarter, at lattice points of a 300 nm square where their bounding
    boxes do not overlap; with random dis_m 60-150, an optional hlow,
    alpha 1/10 or 1/3, and stitching on for half of the seeds."""
    rng = random.Random(seed)
    lines = [f"layout poly{seed}", f"param dis_m {rng.randrange(60, 151, 10)}"]
    if rng.random() < 0.5:
        lines.append(f"param hlow {rng.randrange(10, 51, 10)}")
    lines.append(f"param alpha_den {rng.choice((10, 3))}")
    lines.append(f"param stitch {seed % 2}")
    boxes = []
    for _ in range(rng.randint(2, 5)):
        pts = _outline(rng, rng.choice(("bar", "L", "U", "T")))
        for _ in range(rng.randrange(4)):
            pts = [(-y, x) for x, y in pts]
        for _ in range(20):  # tries at a free place
            x0, y0 = rng.randrange(0, 301, 20), rng.randrange(0, 301, 20)
            lo_x, lo_y = min(x for x, _ in pts), min(y for _, y in pts)
            placed = [(x - lo_x + x0, y - lo_y + y0) for x, y in pts]
            box = (x0, y0, max(x for x, _ in placed), max(y for _, y in placed))
            if all(box[2] <= b[0] or b[2] <= box[0] or box[3] <= b[1] or b[3] <= box[1] for b in boxes):
                boxes.append(box)
                coords = " ".join(f"{x} {y}" for x, y in placed)
                lines.append(f"poly {len(boxes)} {coords}")
                break
    return "\n".join(lines) + "\n"


def ring_text(seed: int) -> str:
    """A stitch ring: five bars around an odd cycle of conflicts, which a
    stitch, a cut in the tip gap or one conflict breaks.

    - a wire W 0 0 L 40, L 1000-2000;
    - A 0 90 a 130 and B L-a 90 L 130 over its two ends, a 150-500;
    - D 0 180 s 220 and E s+g 180 L 220, with a tip gap g of 40-100
      between them, D ending 150-450 beyond A;
    - dis_m 120, stitching on, alpha 1/2, 1/3 or 1/10, and hlow 20-120,
      drawn above g on even seeds, so that the gap is too short to cut
      there; all on a 10 nm grid.
    """
    rng = random.Random(seed)
    length, a = rng.randrange(1000, 2001, 10), rng.randrange(150, 501, 10)
    s, g = a + rng.randrange(150, 451, 10), rng.randrange(40, 101, 10)
    hlow = rng.randrange(g + 10, 121, 10) if seed % 2 == 0 else rng.randrange(20, 121, 10)
    return (
        f"layout ring{seed}\nparam dis_m 120\nparam stitch 1\nparam hlow {hlow}\n"
        f"param alpha_den {rng.choice((2, 3, 10))}\n"
        f"rect 1 0 0 {length} 40\nrect 2 0 90 {a} 130\nrect 3 {length - a} 90 {length} 130\n"
        f"rect 4 0 180 {s} 220\nrect 5 {s + g} 180 {length} 220\n"
    )


def cellrow_layout(seed: int, rows: int, tracks: int) -> LayoutDocument:
    """Metal-1 of placed standard cells: vertical pins on a track pitch,
    their line ends facing full-width power rails.

    - rows + 1 rails, 0 900r 90*tracks 900r+40 for r = 0..rows;
    - in each row, each track t (x = 90t, 40 wide) is empty with
      probability 0.3. Otherwise it holds 1-3 vertical pins laid upwards
      from 40-100 above the lower rail, each 150-390 long and split from
      the next by a tip gap of 40-100, on a 10 nm grid. No pin reaches
      higher than 40-100 below the upper rail: a pin is cut short there,
      and one that would be shorter than 150 is not laid;
    - a track's first pin becomes an L, with a foot 130 wide and 40 high
      over the next track, when that track is empty and the pin is at
      least 120 long (probability 0.5), which every laid pin is;
    - dis_m 120 and hlow 30.
    """
    rng = random.Random(seed)
    lines = [f"layout cellrow{seed}", "param dis_m 120", "param hlow 30"]
    lines += [f"rect {r + 1} 0 {900 * r} {90 * tracks} {900 * r + 40}" for r in range(rows + 1)]
    for r in range(rows):
        empty = [rng.random() < 0.3 for _ in range(tracks)]
        for t in range(tracks):
            if empty[t]:
                continue
            x = 90 * t
            y = 900 * r + 40 + rng.randrange(40, 101, 10)
            top = 900 * (r + 1) - rng.randrange(40, 101, 10)
            for k in range(rng.randint(1, 3)):
                y1 = min(y + rng.randrange(150, 391, 10), top)
                if y1 - y < 150:
                    break
                fid = len(lines) - 2
                if k == 0 and t + 1 < tracks and empty[t + 1] and rng.random() < 0.5:
                    lines.append(
                        f"poly {fid} {x} {y} {x + 130} {y} {x + 130} {y + 40} "
                        f"{x + 40} {y + 40} {x + 40} {y1} {x} {y1}"
                    )
                else:
                    lines.append(f"rect {fid} {x} {y} {x + 40} {y1}")
                y = y1 + rng.randrange(40, 101, 10)
    return parse_layout("\n".join(lines) + "\n")


class Entry(NamedTuple):
    """One family's share of a corpus. A family makes a layout document or
    its text. A stitch mode of None runs the layout as its family made it;
    True or False sets its stitch flag."""

    family: Callable[..., LayoutDocument | str]
    seeds: Sequence
    metrics: tuple[Metric, ...] = (Metric.CHEBYSHEV,)
    stitch: tuple[bool | None, ...] = (None,)


BOTH_METRICS = tuple(Metric)
BOTH_STITCH = (False, True)
STITCHED = (True,)

bundled = Entry(bundled_layout, sorted(p.name for p in LAYOUTS.glob("*.lay")))
grid2000 = Entry(partial(grid_layout, 2000), (1,))
random6 = partial(random_layout, clusters=6)
random9 = partial(random_layout, clusters=9)
cellrow_1x12 = Entry(partial(cellrow_layout, rows=1, tracks=12), range(20))
square_grids = Entry(lambda shape: square_grid_text(*shape), ((2, 6), (3, 4)))
# stacks and grids on which HiGHS takes a second or more
dense = [Entry(stack_text, (12, 20)), square_grids]
# the dense sizes that stay fast on the search, for the corpora that claim every family
dense_fast = [Entry(stack_text, (20,)), square_grids._replace(seeds=((3, 4),))]
polyominoes100 = Entry(polyomino_text, range(100), BOTH_METRICS)

# each corpus is named after the test module that reads it
CORPORA: dict[str, list[Entry]] = {
    "output identity": [bundled, Entry(random_layout, range(40), stitch=BOTH_STITCH), grid2000],
    "id renaming": [bundled, grid2000, Entry(random_layout, range(20), stitch=BOTH_STITCH), *dense_fast],
    "symmetry polyominoes": [polyominoes100],
    "symmetry random": [Entry(random_layout, range(40), stitch=BOTH_STITCH)],
    "symmetry grid": [grid2000],
    "symmetry dense": dense_fast,
    "elimination blocks": [
        Entry(random9, range(50), stitch=BOTH_STITCH),
        polyominoes100,
        Entry(chain_text, range(4, 17)),
        cellrow_1x12,
        # the 3 x 4 grid has a bucket of 17 variables, over the eliminator's cap
        Entry(stack_text, (20,)),
        square_grids._replace(seeds=((2, 6),)),
    ],
    "elimination chains": [Entry(chain_text, (30, 50, 1200))],
    "endcut clearance": [Entry(random6, range(12), stitch=BOTH_STITCH)],
    "endcut merges": [grid2000, Entry(random6, range(8), stitch=STITCHED)],
    "endcut touching": [
        Entry(polyomino_text, range(300), BOTH_METRICS), Entry(random9, range(150), stitch=BOTH_STITCH)
    ],
    "graphs stitch points": [Entry(random_layout, range(150), stitch=STITCHED)],
    "graphs bundled": [bundled._replace(metrics=BOTH_METRICS)],
    "graphs grid": [grid2000._replace(metrics=BOTH_METRICS)],
    "graphs polyominoes": [Entry(polyomino_text, range(40), BOTH_METRICS)],
    "graphs random": [Entry(random_layout, range(60), BOTH_METRICS, BOTH_STITCH)],
    "geometry areas": [bundled, Entry(random_layout, range(40), stitch=BOTH_STITCH)],
    "geometry records": [bundled, grid2000, Entry(random6, range(6), stitch=STITCHED)],
    # seeds and cluster counts once drawn by random.Random(5)
    "layout_io round trip": [
        Entry(lambda drawn: random_layout(*drawn), ((637, 3), (759, 3), (814, 1), (860, 4), (794, 2),
                                                    (664, 1), (922, 2), (115, 3), (480, 2), (389, 1))),
    ],
    "synth round trip": [Entry(random_layout, range(12))],
    "exports priced": [Entry(random9, range(20), stitch=STITCHED)],
    "exports": [grid2000._replace(stitch=STITCHED)],
    "exports shuffled": [grid2000, Entry(random9, range(10), stitch=STITCHED)],
    "acceptance 2": [Entry(random_layout, range(100), stitch=BOTH_STITCH)],
    "acceptance 3": [Entry(random_layout, range(50)), Entry(polyomino_text, range(100)), *dense],
    "acceptance 7": [Entry(partial(random_layout, clusters=1), range(200), stitch=BOTH_STITCH)],
    "cli directory": [Entry(random_layout, range(20), stitch=BOTH_STITCH)],
    "cli threads": [Entry(random_layout, range(40), stitch=BOTH_STITCH)],
    "collector": [bundled, Entry(random9, range(8), stitch=BOTH_STITCH)],
    "lp_rows": [Entry(random9, range(8), stitch=BOTH_STITCH)],
    "ilp": [Entry(random9, range(12), stitch=STITCHED)],
    "polyomino oracle": [Entry(polyomino_text, range(130), BOTH_METRICS)],
    "reproduction random": [Entry(random9, range(50))],
    "reproduction grid": [Entry(partial(grid_layout, 500), range(5))],
    "cellrow": [cellrow_1x12],
    "rings": [Entry(ring_text, range(20))],
    "dense": dense,
    "alpha monotonicity": [
        Entry(ring_text, range(20)),
        Entry(random_layout, range(60), stitch=STITCHED),
        Entry(polyomino_text, range(60), stitch=STITCHED),
    ],
    "disjoint union": [
        Entry(random_layout, range(40), stitch=BOTH_STITCH),
        polyominoes100,
        Entry(ring_text, range(20)),
        bundled,
        *dense,
    ],
}


def runs(name: str) -> Iterator[tuple[str, LayoutDocument, Metric]]:
    """The (label, document, metric) runs of the named corpus, in its
    order. A bundled layout is labelled by its file name, a run that sets
    stitching on by stitched and its seed, and any other by its layout
    name."""
    for family, seeds, metrics, stitches in CORPORA[name]:
        for seed in seeds:
            made = family(seed)
            if isinstance(made, str):
                made = parse_layout(made)
            for stitch in stitches:
                doc = made
                if stitch is not None:
                    doc = dataclasses.replace(made, params=dataclasses.replace(made.params, stitch=stitch))
                label = seed if isinstance(seed, str) else f"stitched{seed}" if stitch else doc.name
                for metric in metrics:
                    yield label, doc, metric
