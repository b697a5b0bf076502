import dataclasses
import itertools
import random

import pytest

import trimdecomp.cli
import trimdecomp.endcut
from helpers import (
    boundary_edges,
    end_cuts_oracle,
    generate_end_cut_oracle,
    merged_cut_rects_oracle,
    perpendicular_box,
    polyomino_text,
    resolve_box_overlaps_oracle,
)
from trimdecomp.cli import decompose_document
from trimdecomp.endcut import (
    BoxKind,
    EndCutBox,
    EndCutCandidate,
    _facing_sides,
    _outline_runs,
    generate_all_end_cuts,
    generate_end_cut,
    merge_union,
    merged_cut_rects,
    resolve_box_overlaps,
)
from trimdecomp.geometry import (
    Metric,
    Point,
    Rect,
    RectilinearShape,
    SpatialIndex,
    rects_closed_intersect,
    rects_interior_intersect,
)
from trimdecomp.graphs import conflict_pairs
from trimdecomp.layout_io import DecompositionParams, LayoutDocument, parse_layout
from trimdecomp.synth import grid_layout, random_layout


def params(**kw):
    return DecompositionParams.from_raw(kw)


def cut_between(s1, s2, p, oracle=False):
    if oracle:
        return generate_end_cut_oracle(s1, s2, p, {s1.id: s1, s2.id: s2})
    return generate_end_cut(s1, s2, p, s1.rects + s2.rects)


def bar(fid, x1, y1, x2, y2):
    return RectilinearShape.from_rect(fid, Rect.of(x1, y1, x2, y2))


def test_facing_line_ends_single_box():
    p = params(hlow=20, wlow=20)
    cand = cut_between(bar(1, 0, 0, 200, 40), bar(2, 260, 0, 460, 40), p)
    assert cand is not None
    assert cand.pair == (1, 2)
    assert [b.rect for b in cand.boxes] == [Rect.of(200, 0, 260, 40)]
    assert cand.boxes[0].kind is BoxKind.EDGE_EDGE


def test_long_facing_run_is_not_repairable():
    p = params()
    assert cut_between(bar(1, 0, 0, 1000, 40), bar(2, 0, 100, 1000, 140), p) is None


def test_gap_below_low_bound_rejected():
    p = params(hlow=60, wlow=20)
    assert cut_between(bar(1, 0, 0, 200, 40), bar(2, 240, 0, 440, 40), p) is None


def test_run_window_rejects_narrow_overlap():
    p = params(wlow=30, hlow=30)
    # spans overlap by only 10
    assert cut_between(bar(1, 0, 0, 200, 40), bar(2, 260, 30, 460, 70), p) is None


def test_perpendicular_box_all_quadrants():
    p = params(hlow=10, wlow=10)
    # vertical edge of 1 against horizontal edge of 2, in each arrangement
    quadrants = [
        (bar(1, 0, 0, 40, 200), bar(2, 80, 240, 280, 280), Rect.of(40, 200, 80, 240)),
        (bar(1, 240, 0, 280, 200), bar(2, 0, 240, 200, 280), Rect.of(200, 200, 240, 240)),
        (bar(1, 0, 80, 40, 280), bar(2, 80, 0, 280, 40), Rect.of(40, 40, 80, 80)),
        (bar(1, 240, 80, 280, 280), bar(2, 0, 0, 200, 40), Rect.of(200, 40, 240, 80)),
    ]
    for s1, s2, want in quadrants:
        perpendicular = [
            perpendicular_box(ev, eh, p)
            for ev in boundary_edges(s1)
            if ev.orientation == "v"
            for eh in boundary_edges(s2)
            if eh.orientation == "h"
        ]
        assert want in [b.rect for b in perpendicular if b is not None]
        cand = cut_between(s1, s2, p, oracle=True)
        assert cand is not None and want in [b.rect for b in cand.boxes]
        assert all(b.kind is BoxKind.CORNER_CORNER for b in cand.boxes)
        # the facing parallel pair yields the same corner box
        assert cut_between(s1, s2, p) == cand


def test_corner_box_between_disjoint_spans():
    p = params(hlow=20, wlow=20)
    cand = cut_between(bar(1, 0, 0, 160, 40), bar(2, 260, 140, 420, 180), p)
    assert cand is not None
    assert Rect.of(160, 40, 260, 140) in [b.rect for b in cand.boxes]


def test_corner_box_ignores_run_threshold():
    # x extent 100 exceeds w_th 80, but corner boxes only apply the
    # plain size windows
    p = params(dis_m=200, wth=80, whigh=200, hhigh=200, hlow=20, wlow=20)
    cand = cut_between(bar(1, 0, 0, 160, 40), bar(2, 260, 140, 420, 180), p)
    assert cand is not None
    assert Rect.of(160, 40, 260, 140) in [b.rect for b in cand.boxes]


def test_box_blocked_by_third_shape():
    p = params(hlow=20, wlow=20)
    s1, s2 = bar(1, 0, 0, 200, 40), bar(2, 260, 0, 460, 40)
    blocker = bar(3, 210, 10, 250, 200)
    assert generate_end_cut(s1, s2, p, s1.rects + s2.rects + blocker.rects) is None
    # a shape that merely touches the box does not block it
    toucher = bar(3, 200, 40, 260, 200)
    assert generate_end_cut(s1, s2, p, s1.rects + s2.rects + toucher.rects) is not None


def test_two_touching_boxes_both_kept():
    # L head and bar leave two cut boxes sharing only a corner
    p = params(hlow=30, wlow=30)
    l = RectilinearShape.from_outline(
        1, [(0, 0), (200, 0), (200, 80), (80, 80), (80, 240), (0, 240)]
    )
    s2 = bar(2, 160, 140, 320, 200)
    cand = cut_between(l, s2, p)
    assert cand is not None
    rects = sorted(b.rect for b in cand.boxes)
    assert rects == [Rect.of(80, 140, 160, 200), Rect.of(160, 80, 200, 140)]
    assert rects_closed_intersect(rects[0], rects[1])
    assert not rects_interior_intersect(rects[0], rects[1])


def test_overlapping_boxes_keep_smallest():
    p = params(hlow=20, wlow=20)
    poly = RectilinearShape.from_outline(
        1, [(200, 80), (280, 80), (280, 300), (160, 300), (160, 160), (200, 160)]
    )
    s2 = bar(2, 0, 0, 120, 40)
    cand = cut_between(poly, s2, p)
    assert cand is not None
    assert [b.rect for b in cand.boxes] == [Rect.of(120, 40, 200, 80)]


def test_corner_box_dropped_against_edge_box():
    p = params(dis_m=200, hhigh=200, hlow=20, wlow=20)
    l = RectilinearShape.from_outline(
        1, [(0, 0), (260, 0), (260, 120), (160, 120), (160, 40), (0, 40)]
    )
    s2 = bar(2, 100, 200, 140, 400)
    cand = cut_between(l, s2, p)
    assert cand is not None
    assert [b.rect for b in cand.boxes] == [Rect.of(100, 40, 140, 200)]
    assert cand.boxes[0].kind is BoxKind.EDGE_EDGE


def test_duplicate_rect_prefers_edge_kind():
    r = Rect.of(0, 0, 40, 40)
    raw = [
        EndCutBox(rect=r, kind=BoxKind.CORNER_CORNER),
        EndCutBox(rect=r, kind=BoxKind.EDGE_EDGE),
    ]
    out = resolve_box_overlaps(raw)
    assert len(out) == 1 and out[0].kind is BoxKind.EDGE_EDGE


def test_resolution_invariants_random():
    rng = random.Random(31)
    for _ in range(300):
        raw = []
        for _ in range(rng.randint(1, 7)):
            x = rng.randrange(0, 100, 20)
            y = rng.randrange(0, 100, 20)
            w = rng.randrange(20, 100, 20)
            h = rng.randrange(20, 100, 20)
            kind = rng.choice([BoxKind.EDGE_EDGE, BoxKind.CORNER_CORNER])
            raw.append(EndCutBox(rect=Rect.of(x, y, x + w, y + h), kind=kind))
        out = resolve_box_overlaps(raw)
        assert out
        rects_in = {b.rect for b in raw}
        assert all(b.rect in rects_in for b in out)
        # never two materially overlapping boxes in the result
        for a, b in itertools.combinations(out, 2):
            assert not rects_interior_intersect(a.rect, b.rect)
        # a corner box never survives in closed contact with an edge box
        edges = [b for b in out if b.kind is BoxKind.EDGE_EDGE]
        for c in (b for b in out if b.kind is BoxKind.CORNER_CORNER):
            for e in edges:
                assert not rects_closed_intersect(c.rect, e.rect)
        # whatever was dropped has a justification: a same-rect survivor, a
        # crowding edge box, or a no-larger survivor reachable through a
        # chain of material overlaps
        kept = {(b.rect, b.kind) for b in out}
        all_edge_rects = [b.rect for b in raw if b.kind is BoxKind.EDGE_EDGE]

        def chain_beaten(b):
            seen = {b.rect}
            frontier = [b.rect]
            while frontier:
                r = frontier.pop()
                for other in raw:
                    if other.rect in seen or not rects_interior_intersect(r, other.rect):
                        continue
                    seen.add(other.rect)
                    frontier.append(other.rect)
            return any(k.rect in seen and k.rect.area <= b.rect.area for k in out)

        for b in raw:
            if (b.rect, b.kind) in kept:
                continue
            dup = any(k.rect == b.rect for k in out)
            crowded = b.kind is BoxKind.CORNER_CORNER and any(
                rects_closed_intersect(b.rect, e) for e in all_edge_rects
            )
            assert dup or crowded or chain_beaten(b)


def test_resolve_box_overlaps_matches_two_level_oracle():
    rng = random.Random(4099)
    for _ in range(20000):
        raw = []
        for _ in range(rng.randint(1, 9)):
            if raw and rng.random() < 0.15:
                r = rng.choice(raw).rect  # same rectangle, maybe another kind
            else:
                x = rng.randrange(0, 120, 20)
                y = rng.randrange(0, 120, 20)
                w = rng.randrange(20, 100, 20)
                h = rng.randrange(20, 100, 20)
                r = Rect.of(x, y, x + w, y + h)
            kind = rng.choice([BoxKind.EDGE_EDGE, BoxKind.CORNER_CORNER])
            raw.append(EndCutBox(rect=r, kind=kind))
        assert resolve_box_overlaps(raw) == resolve_box_overlaps_oracle(raw)


def _random_feature(rng: random.Random, fid: int) -> RectilinearShape:
    """A bar, an L or a U on a 20-unit lattice, in any of the eight
    orientations, near the origin."""
    w, h = rng.randrange(40, 301, 20), rng.randrange(40, 301, 20)
    kind = rng.choice(("rect", "L", "U"))
    if kind == "rect":
        pts = [(0, 0), (w, 0), (w, h), (0, h)]
    elif kind == "L":
        t = rng.randrange(20, min(w, h), 20)
        pts = [(0, 0), (w, 0), (w, t), (t, t), (t, h), (0, h)]
    else:
        w = max(w, 100)
        t = rng.randrange(20, (w - 20) // 2 + 1, 20)
        b = rng.randrange(20, h, 20)
        pts = [(0, 0), (w, 0), (w, h), (w - t, h), (w - t, b), (t, b), (t, h), (0, h)]
    sx, sy, swap = rng.choice((1, -1)), rng.choice((1, -1)), rng.random() < 0.5
    dx, dy = rng.randrange(-200, 201, 20), rng.randrange(-200, 201, 20)
    moved = []
    for x, y in pts:
        x, y = (y, x) if swap else (x, y)
        moved.append((sx * x + dx, sy * y + dy))
    return RectilinearShape.from_outline(fid, moved)


def _apart(s: RectilinearShape, others: list[RectilinearShape]) -> bool:
    return not any(rects_interior_intersect(a, b) for t in others for a in s.rects for b in t.rects)


def _as_two_rects(s: RectilinearShape) -> RectilinearShape:
    """The same rectangle held as two stacked rects with its outline, so
    that an end-cut beside it reads the runs of the outline."""
    ((lo, hi),) = s.rects
    mid = (lo.y + hi.y) // 2
    halves = (Rect.of(lo.x, lo.y, hi.x, mid), Rect.of(lo.x, mid, hi.x, hi.y))
    return RectilinearShape(s.id, halves, s.outline)


def test_rect_pair_sides_match_outline_sides():
    # generate_end_cut reads two rectangles' side from their corners and
    # a polygon pair's from the outlines; both must give the same
    # candidate on rectangles. Held as two rects, a rectangle takes the
    # outline route. Two rectangles apart on both axes face across each
    # gap in their outlines, and both sides give the one corner pocket
    # that their corners give. Every rectangle on a 20 lattice around a
    # fixed one is tried both ways round.
    r1 = Rect.of(0, 0, 60, 40)
    s1 = bar(1, 0, 0, 60, 40)
    wide = params(dis_m=1000, hlow=1, wlow=1, hhigh=1000, whigh=1000, wth=1000)
    coords = range(-100, 141, 20)
    seen = set()
    diagonal = 0
    for x1, x2, y1, y2 in itertools.product(coords, repeat=4):
        if x1 >= x2 or y1 >= y2:
            continue
        r2 = Rect.of(x1, y1, x2, y2)
        s2 = bar(2, x1, y1, x2, y2)
        outline_sides = _facing_sides(_outline_runs(s1.outline), _outline_runs(s2.outline))
        # with no material and wide windows, every side but a point gives a box
        boxed = any(ov_lo != ov_hi for _, _, ov_lo, ov_hi, _ in outline_sides)
        for a, b in ((s1, s2), (s2, s1)):
            got = generate_end_cut(a, b, wide, [])
            assert got == generate_end_cut(_as_two_rects(a), b, wide, []), r2
            assert (got is not None) == boxed, r2
            assert got is None or len(got.boxes) == 1, r2
        diagonal += len(outline_sides) == 2
        for lo, hi, ov_lo, ov_hi, axis in outline_sides:
            if axis == "x":
                where = "below" if hi == r1.lo.y else "above"
            else:
                where = "left" if hi == r1.lo.x else "right"
            spans = "overlap" if ov_lo < ov_hi else "point" if ov_lo == ov_hi else "disjoint"
            seen.add((where, spans))
        if not outline_sides:
            seen.add("overlapping" if rects_interior_intersect(r1, r2) else "touching")
    assert diagonal > 0
    wheres = ("below", "above", "left", "right")
    assert seen == {(w, sp) for w in wheres for sp in ("overlap", "point", "disjoint")} | {
        "overlapping",
        "touching",
    }


def test_diagonal_rectangles_give_one_corner_box_without_collapse(monkeypatch):
    # apart on both axes, two rectangles face once, so their one corner
    # box needs no collapse of duplicates
    def refuse(raw):
        raise AssertionError("boxes collapsed")

    monkeypatch.setattr(trimdecomp.endcut, "resolve_box_overlaps", refuse)
    p = params(hlow=20, wlow=20)
    for r2 in ((260, 100, 460, 140), (-300, 100, -60, 140), (260, -100, 460, -60), (-300, -100, -60, -60)):
        cand = cut_between(bar(1, 0, 0, 200, 40), bar(2, *r2), p)
        (box,) = cand.boxes
        assert box.kind is BoxKind.CORNER_CORNER
        assert box == cut_between(bar(1, 0, 0, 200, 40), bar(2, *r2), p, oracle=True).boxes[0]
    # an L beside a rectangle still reads both outlines and collapses
    l = RectilinearShape.from_outline(2, [(260, 100), (460, 100), (460, 300), (420, 300), (420, 140), (260, 140)])
    with pytest.raises(AssertionError, match="boxes collapsed"):
        cut_between(bar(1, 0, 0, 200, 40), l, p)


def test_rect_beside_a_polygon_reads_the_outline_it_would_store():
    # a rectangle stores no outline; the four corners its outline property
    # builds give the sides that a stored outline from the lower-left
    # corner gave
    l = RectilinearShape.from_outline(2, [(260, 0), (460, 0), (460, 200), (420, 200), (420, 40), (260, 40)])
    wide = params(dis_m=1000, hlow=1, wlow=1, hhigh=1000, whigh=1000, wth=1000)
    rng = random.Random(3407)
    cut = 0
    for _ in range(200):
        x, y = rng.randrange(-400, 600, 20), rng.randrange(-400, 400, 20)
        r = bar(1, x, y, x + rng.randrange(20, 300, 20), y + rng.randrange(20, 300, 20))
        assert r.corners == ()
        ((lo, hi),) = r.rects
        stored = r._replace(corners=(lo, Point(hi.x, lo.y), hi, Point(lo.x, hi.y)))
        assert _outline_runs(r.outline) == _outline_runs(stored.outline)
        assert generate_end_cut(r, l, wide, []) == generate_end_cut(stored, l, wide, [])
        assert generate_end_cut(l, r, wide, []) == generate_end_cut(l, stored, wide, [])
        cut += generate_end_cut(r, l, wide, []) is not None
    assert cut > 0


def test_generate_end_cut_matches_all_edge_pairs_oracle():
    rng = random.Random(5170)
    # the third feature comes from its own stream, so the pairs and
    # parameters are those drawn without it
    rng3 = random.Random(5171)
    kinds = {BoxKind.EDGE_EDGE: 0, BoxKind.CORNER_CORNER: 0}
    pairs = 0
    rect_pairs_cut = 0
    blocked = 0
    while pairs < 5000:
        s1, s2 = _random_feature(rng, 1), _random_feature(rng, 2)
        if not _apart(s1, [s2]):
            continue
        pairs += 1
        s3 = _random_feature(rng3, 3)
        while not _apart(s3, [s1, s2]):
            s3 = _random_feature(rng3, 3)
        p = params(
            dis_m=rng.choice((120, 200)),
            hlow=rng.choice((20, 40)),
            wlow=rng.choice((20, 40)),
            hhigh=rng.choice((120, 200)),
            whigh=rng.choice((120, 200)),
            wth=rng.choice((80, 120, 200)),
        )
        got = generate_end_cut(s1, s2, p, s1.rects + s2.rects)
        assert got == generate_end_cut_oracle(s1, s2, p, {1: s1, 2: s2})
        for box in got.boxes if got else ():
            kinds[box.kind] += 1
            blocked += any(rects_interior_intersect(box.rect, r) for r in s3.rects)
        rect_pairs_cut += got is not None and len(s1.outline) == len(s2.outline) == 4
        # the same pair with a third feature among the material
        got3 = generate_end_cut(s1, s2, p, s1.rects + s2.rects + s3.rects)
        assert got3 == generate_end_cut_oracle(s1, s2, p, {1: s1, 2: s2, 3: s3})
    # both box kinds occur often enough for the comparison to mean something
    assert min(kinds.values()) >= 500, kinds
    # and so do pairs of two rectangles, whose sides pair from their corners
    assert rect_pairs_cut >= 150, rect_pairs_cut
    # and boxes the third feature blocks
    assert blocked >= 100, blocked


def _scatter_layout(rng: random.Random, count: int, raw: dict) -> LayoutDocument:
    """Bars, Ls and Us in all orientations, packed without overlap."""
    shapes: list[RectilinearShape] = []
    while len(shapes) < count:
        f = _random_feature(rng, len(shapes) + 1)
        dx, dy = rng.randrange(0, 1201, 20), rng.randrange(0, 1201, 20)
        s = RectilinearShape.from_outline(f.id, [(p.x + dx, p.y + dy) for p in f.outline])
        if not any(
            rects_interior_intersect(a, b) for t in shapes for a in s.rects for b in t.rects
        ):
            shapes.append(s)
    params = DecompositionParams.from_raw(raw, shapes)
    return LayoutDocument(name="scatter", shapes=tuple(shapes), params=params)


def _raised(doc: LayoutDocument, h_high: int, w_high: int) -> LayoutDocument:
    p = dataclasses.replace(doc.params, h_high=h_high, w_high=w_high, w_th=w_high)
    return dataclasses.replace(doc, params=p)


def test_neighbour_list_clearance_matches_every_feature_oracle():
    # the whole pipeline, on rows of bars and Ls, plain and stitched
    candidates = 0
    for seed in range(12):
        for stitch in (False, True):
            doc = random_layout(seed, clusters=6, stitch=stitch)
            for d in (doc, _raised(doc, 200, 160), _raised(doc, 260, 300)):
                want = end_cuts_oracle(d)
                assert decompose_document(d).end_cuts.candidates == want, d.name
                candidates += len(want)
    # the cut generator alone, given only the neighbours it asks for, on
    # crowds of bars, Ls and Us too dense for the solver
    rng = random.Random(61)
    for k in range(40):
        raw = {"dis_m": rng.choice((40, 60, 120)), "hlow": 20, "wlow": 20}
        raw["hhigh"] = rng.choice((raw["dis_m"], 200, 300))
        raw["wth"] = raw["whigh"] = rng.choice((raw["dis_m"], 300))
        doc = _scatter_layout(rng, 32, raw)
        p = doc.params
        index = SpatialIndex.from_shapes(doc.shapes, p.dis_m)
        pairs = conflict_pairs(doc, index.pairs(p.dis_m))
        want = end_cuts_oracle(doc)
        assert generate_all_end_cuts(doc, pairs, index.pairs(max(p.h_high, p.w_high))) == want, k
        candidates += len(want)
    assert candidates >= 1000, candidates


def test_feature_beyond_spacing_rule_still_blocks_a_cut_box():
    # the bar and the L's base face each other 160 apart over a 300 run;
    # feature 3 sits in the box between them, outside the bar's bounding
    # box and 60 from it, beyond dis_m 40 but within the cut size limits
    lines = [
        "layout blocked",
        "param dis_m 40",
        "param hhigh 200",
        "param whigh 300",
        "param wth 300",
        "param hlow 20",
        "param wlow 20",
        "rect 1 30 200 330 240",
        "poly 2 0 0 400 0 400 200 360 200 360 40 0 40",
    ]
    open_doc = parse_layout("\n".join(lines) + "\n")
    blocked_doc = parse_layout("\n".join(lines + ["rect 3 150 100 200 140"]) + "\n")
    for doc in (open_doc, blocked_doc):
        assert decompose_document(doc).end_cuts.candidates == end_cuts_oracle(doc)
    ((pair, (box,)),) = end_cuts_oracle(open_doc)
    assert pair == (1, 2) and box.rect == Rect.of(30, 40, 330, 200)
    assert end_cuts_oracle(blocked_doc) == ()


def test_generate_all_end_cuts_demo_layout():
    from pathlib import Path

    doc = parse_layout((Path(__file__).parent.parent / "layouts" / "endcut_demo.lay").read_text())
    near_pairs = SpatialIndex.from_shapes(doc.shapes, doc.params.dis_m).pairs(doc.params.dis_m)
    pairs = conflict_pairs(doc, near_pairs)
    assert [(doc.shapes[a].id, doc.shapes[b].id) for a, b in pairs] == [(1, 2), (1, 3), (2, 3)]
    ((pair, boxes),) = generate_all_end_cuts(doc, pairs, near_pairs)
    assert pair == (2, 3)
    assert [b.rect for b in boxes] == [Rect.of(200, 0, 240, 40)]


def test_merge_union():
    p = params()
    a = Rect.of(0, 0, 40, 40)
    assert merge_union(a, Rect.of(10, 10, 30, 30), p) == a  # containment
    assert merge_union(a, Rect.of(40, 0, 80, 40), p) == Rect.of(0, 0, 80, 40)
    assert merge_union(a, Rect.of(30, 0, 80, 40), p) == Rect.of(0, 0, 80, 40)
    assert merge_union(a, Rect.of(40, 10, 80, 50), p) is None  # misaligned
    assert merge_union(a, Rect.of(50, 0, 90, 40), p) is None  # apart
    # a fused run longer than the cut width cap cannot print as one cut
    assert merge_union(Rect.of(0, 0, 80, 40), Rect.of(80, 0, 160, 40), p) is None
    # containment is accepted no matter the size
    big = Rect.of(0, 0, 300, 40)
    assert merge_union(big, Rect.of(100, 0, 200, 40), p) == big


def test_merged_cut_rects_chains_fuse():
    p = params()
    from trimdecomp.endcut import EndCutCandidate

    def cand(pair, r):
        return EndCutCandidate(pair=pair, boxes=(EndCutBox(rect=r, kind=BoxKind.EDGE_EDGE),))

    selected = [
        cand((1, 2), Rect.of(0, 0, 40, 40)),
        cand((2, 3), Rect.of(40, 0, 80, 40)),
        cand((3, 4), Rect.of(80, 0, 120, 40)),
        cand((4, 5), Rect.of(80, 0, 120, 40)),  # duplicate rect
    ]
    assert merged_linking_all(selected, p) == (Rect.of(0, 0, 120, 40),)
    # linked as the end-cut graph would link them: each cut with the next
    assert merged_cut_rects(selected, p, [(0, 1), (1, 2), (2, 3)]) == (Rect.of(0, 0, 120, 40),)
    # with no link, no two cuts are looked at together
    assert merged_cut_rects(selected, p, []) == tuple(sorted({c.boxes[0].rect for c in selected}))


def merged_linking_all(selected: list[EndCutCandidate], p: DecompositionParams) -> tuple[Rect, ...]:
    """merged_cut_rects of a hand-made cut set, every position pair as a
    link: with no end-cut graph, any two cuts may touch."""
    return merged_cut_rects(selected, p, list(itertools.combinations(range(len(selected)), 2)))


def _one_box_cuts(rects: list[Rect]) -> list[EndCutCandidate]:
    return [
        EndCutCandidate(pair=(i, i + 1), boxes=(EndCutBox(r, BoxKind.EDGE_EDGE),))
        for i, r in enumerate(rects)
    ]


def _random_cut_set(rng: random.Random) -> list[EndCutCandidate]:
    """Cut rectangles on a coarse lattice so that duplicates, containment,
    touching aligned runs and chains longer than the width cap are all
    common."""
    rects = []
    for _ in range(rng.randint(1, 12)):
        x, y = rng.randrange(-100, 100, 10), rng.randrange(-60, 60, 20)
        rects.append(Rect.of(x, y, x + rng.choice((10, 20, 40)), y + rng.choice((20, 40))))
    for _ in range(rng.randint(0, 3)):
        # a run of touching boxes in one row or one column
        x, y = rng.randrange(-100, 100, 10), rng.randrange(-60, 60, 20)
        w, h = rng.choice((20, 40)), rng.choice((20, 40))
        dx, dy = (w, 0) if rng.random() < 0.5 else (0, h)
        for i in range(rng.randint(2, 6)):
            rects.append(Rect.of(x + i * dx, y + i * dy, x + i * dx + w, y + i * dy + h))
    for _ in range(rng.randint(0, 3)):
        # a duplicate or a box nested inside another
        r = rng.choice(rects)
        if rng.random() < 0.5:
            rects.append(r)
        else:
            rects.append(Rect.of(r.lo.x, r.lo.y, r.lo.x + r.width // 2, r.hi.y))
    rng.shuffle(rects)
    return _one_box_cuts(rects)


def test_merged_cut_rects_matches_pairwise_oracle(monkeypatch):
    rng = random.Random(20261017)
    for trial in range(600):
        p = params(
            whigh=rng.choice((40, 60, 80, 120, 200)), hhigh=rng.choice((40, 120)), wlow=10, hlow=10
        )
        selected = _random_cut_set(rng)
        assert merged_linking_all(selected, p) == merged_cut_rects_oracle(selected, p), trial
    # the cuts the solver selects on a grid and on stitched random layouts
    calls = []

    def recording(selected, p, links):
        calls.append((selected, p, links))
        return merged_cut_rects(selected, p, links)

    monkeypatch.setattr(trimdecomp.cli, "merged_cut_rects", recording)
    decompose_document(grid_layout(2000, 1))
    for seed in range(8):
        decompose_document(random_layout(seed, clusters=6, stitch=True))
    total = sum(len(selected) for selected, _, _ in calls)
    assert total >= 600, total
    for selected, p, links in calls:
        assert merged_cut_rects(selected, p, links) == merged_cut_rects_oracle(selected, p)
    # b fuses into a's output, and c, touching b alone, joins them there;
    # g then touches b, d and c, each at a position that is not the index
    # of its output
    a, b, c = Rect.of(0, 0, 40, 40), Rect.of(40, 0, 80, 40), Rect.of(80, 0, 120, 40)
    d, g = Rect.of(40, 80, 80, 120), Rect.of(80, 40, 120, 80)
    selected = _one_box_cuts([g, c, d, b, a])
    p = params(whigh=120)
    expected = (Rect.of(0, 0, 120, 40), d, g)
    assert merged_linking_all(selected, p) == merged_cut_rects_oracle(selected, p) == expected


def test_touching_selected_cuts_share_a_cut_or_a_merge_edge(monkeypatch):
    # merged_cut_rects looks for touching rectangles only inside one cut
    # and across merge edges: two selected cuts whose rectangles touch lie
    # within dis_c, and the solver never selects both ends of a spacing edge
    calls = []

    def recording(selected, p, links):
        calls.append((selected, p, links))
        return merged_cut_rects(selected, p, links)

    monkeypatch.setattr(trimdecomp.cli, "merged_cut_rects", recording)
    runs = [(parse_layout(polyomino_text(seed)), m) for seed in range(300) for m in Metric]
    runs += [
        (random_layout(seed, clusters=9, stitch=stitch), Metric.CHEBYSHEV)
        for seed in range(150)
        for stitch in (False, True)
    ]
    touching = across = 0
    for doc, metric in runs:
        calls.clear()
        ecg = decompose_document(doc, metric=metric).end_cuts
        ((selected, p, links),) = calls
        rank = {c.pair: k for k, c in enumerate(ecg.candidates)}
        merges = set(ecg.merge_edges)
        boxes = [(rank[c.pair], b.rect) for c in selected for b in c.boxes]
        for (ka, ra), (kb, rb) in itertools.combinations(boxes, 2):
            if rects_closed_intersect(ra, rb):
                touching += 1
                across += ka != kb
                assert ka == kb or (min(ka, kb), max(ka, kb)) in merges, (doc.name, ka, kb)
        assert merged_cut_rects(selected, p, links) == merged_cut_rects_oracle(selected, p), doc.name
    assert touching >= 200 and across >= 20, (touching, across)


def test_merged_cut_rects_first_fit_decides_capped_chain():
    # three touching 40-wide boxes under an 80 cap: the first two fuse, so
    # the third stays alone, although fusing the last two would also print
    p = params(whigh=80)
    selected = _one_box_cuts([Rect.of(x, 0, x + 40, 40) for x in (80, 0, 40)])
    expected = (Rect.of(0, 0, 80, 40), Rect.of(80, 0, 120, 40))
    assert merged_linking_all(selected, p) == merged_cut_rects_oracle(selected, p) == expected


def test_rects_touching_nothing_come_back_sorted_unfused(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return merge_union(*args)

    monkeypatch.setattr(trimdecomp.endcut, "merge_union", counting)
    p = params(whigh=120)
    rects = [Rect.of(x, y, x + 40, y + 40) for x in (300, 0, 150) for y in (90, -100, 0)]
    expected = tuple(sorted(rects))
    selected = _one_box_cuts(rects + rects[:3])
    assert merged_linking_all(selected, p) == merged_cut_rects_oracle(selected, p) == expected
    assert calls == []
    # a touching pair that does not fuse ends the merge after one round
    misaligned = Rect.of(340, 100, 380, 140)
    selected = _one_box_cuts([misaligned, *rects])
    assert merged_linking_all(selected, p) == tuple(sorted([misaligned, *rects]))
    assert len(calls) == 1


def test_merge_union_calls_grow_linearly_on_the_grid(monkeypatch):
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return merge_union(*args)

    monkeypatch.setattr(trimdecomp.endcut, "merge_union", counting)
    counts = []
    for shapes in (2000, 8000):
        calls = 0
        decompose_document(grid_layout(shapes, 0))
        counts.append(calls)
    # four times the shapes: a pairwise search makes 16 times the calls
    assert 0 < counts[1] <= 5 * counts[0], counts
