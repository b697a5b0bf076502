"""The polygon constructor against the four-pass oracle, and its scaling.

RectilinearShape.from_outline reads an outline's corners in one pass and
checks and cuts it in one sweep; helpers.outline_oracle normalises it,
winds it, tests every pair of runs and slices it band by band. On seeded
lattice walks, valid and invalid, both must give the same error or the
same outline covering the same points, and the same rectangles unless the
sweep merged two pieces.
"""

import random
import re
import time
from collections import Counter

from helpers import comb_outline, outline_oracle, staircase_outline
from trimdecomp.geometry import GeometryError, RectilinearShape
from trimdecomp.layout_io import parse_layout


def _polyomino_walk(rng: random.Random) -> list[tuple[int, int]]:
    """The boundary of a random polyomino on an 8 by 8 lattice, traced in
    unit steps from its lowest edge; at a corner where two cells touch
    the walk takes either way on, so it may revisit a vertex."""
    cells = {(rng.randrange(8), rng.randrange(8))}
    for _ in range(rng.randrange(24)):
        x, y = rng.choice(sorted(cells))
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        if 0 <= x + dx < 8 and 0 <= y + dy < 8:
            cells.add((x + dx, y + dy))
    for _ in range(rng.randrange(3)):  # a stray cell may touch a corner
        cells.add((rng.randrange(8), rng.randrange(8)))
    edges = set()
    for x, y in cells:
        square = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
        edges.update(zip(square, square[1:] + square[:1]))
    out: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for p, q in sorted(edges):
        if (q, p) not in edges:
            out.setdefault(p, []).append(q)
    start = p = min(out)
    walk = []
    while True:
        walk.append(p)
        ends = out[p]
        p = ends.pop(rng.randrange(len(ends)))
        if p == start:
            return walk


def _random_walk(rng: random.Random) -> list[tuple[int, int]]:
    """A random walk of axis-aligned moves, mostly alternating in axis,
    that closes along the y axis; moves of length 0, runs that double back
    and the odd diagonal make every error appear."""
    x = y = 0
    pts = [(0, 0)]
    horizontal = rng.random() < 0.5
    for _ in range(rng.randrange(2, 10)):
        step = rng.randint(-4, 4)
        if rng.random() < 0.03:
            x, y = x + step, y + rng.randint(1, 3)
        elif horizontal:
            x += step
        else:
            y += step
        pts.append((x, y))
        if rng.random() < 0.9:
            horizontal = not horizontal
    pts.append((0, y))
    return pts


def _lattice_outline(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    pts = _polyomino_walk(rng) if seed % 2 else _random_walk(rng)
    k = rng.randrange(len(pts))
    pts = pts[k:] + pts[:k]
    if rng.random() < 0.5:
        pts.reverse()
    scale, dx, dy = rng.randint(1, 3), rng.randint(-5, 5), rng.randint(-5, 5)
    pts = [(scale * x + dx, scale * y + dy) for x, y in pts]
    if rng.random() < 0.2:
        pts.append(pts[0])  # a repeated closing point is allowed
    return pts


def _covered(rects) -> set[tuple[int, int]]:
    """The lattice points and cell centres of the closed rectangles, in
    doubled coordinates."""
    return {
        (x, y)
        for (x1, y1), (x2, y2) in rects
        for x in range(2 * x1, 2 * x2 + 1)
        for y in range(2 * y1, 2 * y2 + 1)
    }


def _outcome(build, pts):
    try:
        return build(1, pts)
    except GeometryError as exc:
        return str(exc)


def test_sweep_matches_the_four_pass_oracle():
    verdicts = Counter()
    for seed in range(10_000):
        pts = _lattice_outline(seed)
        want = _outcome(outline_oracle, pts)
        got = _outcome(RectilinearShape.from_outline, pts)
        if isinstance(want, str):
            assert got == want, (seed, pts)
            verdicts[re.sub(r"( at)? Point\(.*", "", want)] += 1
            continue
        assert isinstance(got, RectilinearShape), (seed, pts, got)
        assert got.outline == want.outline, (seed, pts)
        assert sum(r.area for r in got.rects) == sum(r.area for r in want.rects), (seed, pts)
        assert _covered(got.rects) == _covered(want.rects), (seed, pts)
        if len(got.rects) == len(want.rects):
            assert got.rects == want.rects, (seed, pts)
            verdicts["valid"] += 1
        else:
            assert len(got.rects) < len(want.rects)
            assert got.min_dimension >= want.min_dimension
            verdicts["merged"] += 1
    # every verdict is reached often, so the comparison is not idle
    assert set(verdicts) == {
        "valid",
        "merged",
        "outline needs at least 4 distinct vertices",
        "outline repeats a vertex consecutively",
        "outline move",
        "outline doubles back",
        "outline revisits a vertex",
        "outline self-intersects",
    }, verdicts
    assert min(verdicts.values()) >= 40, verdicts


def test_sweep_matches_the_oracle_on_rotated_l_shapes():
    # the four windings of an L, in four rotations, each from every start
    l = [(0, 0), (200, 0), (200, 80), (80, 80), (80, 240), (0, 240)]
    for turn in range(4):
        for pts in (l, l[::-1]):
            for k in range(len(pts)):
                start = pts[k:] + pts[:k]
                want, got = outline_oracle(1, start), RectilinearShape.from_outline(1, start)
                assert (got.rects, got.outline) == (want.rects, want.outline)
        l = [(-y, x) for x, y in l]


def test_comb_teeth_are_one_rectangle_each():
    comb = RectilinearShape.from_outline(1, comb_outline(400))
    assert len(comb.rects) == 401
    assert sum(r.area for r in comb.rects) == 20 * (40 * 400 - 20) + sum(
        20 * (20 + 10 * i) for i in range(400)
    )
    # slicing by bands cuts the lowest teeth into 10 nm high pieces
    assert outline_oracle(1, comb_outline(100)).min_dimension == 10
    assert RectilinearShape.from_outline(1, comb_outline(100)).min_dimension == 20


def test_staircase_is_one_rectangle_per_step():
    stairs = RectilinearShape.from_outline(1, staircase_outline(2000))
    assert len(stairs.outline) == 4002
    assert len(stairs.rects) == 2000
    assert stairs.rects[0] == ((0, 0), (40000, 10))
    # no step merges with the next, so the oracle cuts the same pieces
    few = staircase_outline(50)
    assert RectilinearShape.from_outline(1, few).rects == outline_oracle(1, few).rects


def test_long_staircase_parses_in_linear_time():
    # four-pass slicing tests every pair of the 4002 runs: over a second
    line = "poly 1 " + " ".join(f"{x} {y}" for x, y in staircase_outline(2000)) + "\n"
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        parse_layout(line)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.5, times
