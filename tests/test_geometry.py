import gc
import pickle
import random
import tracemalloc

import pytest

from corpora import runs
from helpers import rect_chebyshev_gap, rect_gaps, rectset_chebyshev_gap, shape_facts
from trimdecomp.geometry import (
    GeometryError,
    Metric,
    Rect,
    RectilinearShape,
    SpatialIndex,
    bounding_box,
    components,
    interval_gap,
    rects_closed_intersect,
    rects_interior_intersect,
    rectset_within,
)
from trimdecomp.cli import decompose_document
from trimdecomp.endcut import EndCutBox, EndCutCandidate, _facing_sides, _outline_runs
from trimdecomp.layout_io import LayoutParseError, parse_layout, parse_report, write_layout, write_report
from trimdecomp.synth import grid_layout


def test_rect_basics():
    r = Rect.of(0, 10, 30, 50)
    assert (r.lo, r.hi) == ((0, 10), (30, 50))
    assert (r.width, r.height, r.area) == (30, 40, 1200)
    assert r.inflate(5) == Rect.of(-5, 5, 35, 55)
    # records are named tuples: tuple order, tuple hash, the dataclass repr
    rng = random.Random(1103)
    rects = []
    for _ in range(1000):
        x, y = rng.randint(-50, 50), rng.randint(-50, 50)
        rects.append(Rect.of(x, y, x + rng.randint(1, 20), y + rng.randint(1, 20)))
    assert sorted(rects) == sorted(rects, key=lambda r: (*r.lo, *r.hi))
    assert hash(Rect.of(1, 2, 3, 4)) == hash(((1, 2), (3, 4)))
    assert repr(r) == "Rect(lo=(0, 10), hi=(30, 50))"
    # a rectangle without positive area is rejected where it enters
    for bad in (Rect.of(0, 0, 0, 10), Rect.of(30, 10, 0, 50), Rect((0, 0), (10, 0))):
        with pytest.raises(GeometryError, match="no area"):
            RectilinearShape.from_rect(1, bad)
        x1, y1 = bad.lo
        x2, y2 = bad.hi
        with pytest.raises(LayoutParseError, match="^line 1: cut corners"):
            parse_report(f"cut {x1} {y1} {x2} {y2}\ncost 0.0\n")


def test_points_are_integer_only():
    with pytest.raises(GeometryError, match="must be integers"):
        RectilinearShape.from_outline(1, [(0, 0), (10, 0), (10, 10.0), (0, 10)])
    with pytest.raises(GeometryError, match="must be integers"):
        RectilinearShape.from_rect(1, Rect.of(0, 0, 10.0, 10))
    with pytest.raises(LayoutParseError, match="coordinate must be an integer, got '10.5'"):
        parse_layout("layout t\nrect 1 0 0 10.5 10\n")


@pytest.mark.parametrize("sid", [-1, True, 2.0, "3"])
def test_ids_follow_the_parser_rule(sid):
    # parse_layout refuses each of these ids, so a shape built with one
    # would write layout text that does not read back as the document
    with pytest.raises(GeometryError, match="feature id must be a non-negative integer"):
        RectilinearShape.from_rect(sid, Rect.of(0, 0, 10, 10))
    with pytest.raises(GeometryError, match="feature id must be a non-negative integer"):
        RectilinearShape.from_outline(sid, [(0, 0), (10, 0), (10, 10), (0, 10)])
    assert RectilinearShape.from_rect(0, Rect.of(0, 0, 10, 10)).id == 0


def test_every_rect_built_by_the_pipeline_has_positive_area():
    # Rect checks nothing itself, so this guards the constructors inside
    # the pipeline: outline slabs, cut boxes, stitched pieces, merged cuts
    seen = {"shapes": 0, "cuts": 0, "pieces": 0, "report": 0}
    for _, doc, _ in runs("geometry areas"):
        result = decompose_document(doc)
        groups = {
            "shapes": [r for s in doc.shapes for r in s.rects],
            "cuts": [b.rect for c in result.end_cuts.candidates for b in c.boxes],
            "pieces": [r for piece in result.graph.pieces for r in piece],
            "report": result.report.cuts,
        }
        for name, rects in groups.items():
            assert all(x1 < x2 and y1 < y2 for (x1, y1), (x2, y2) in rects), (doc.name, name)
            seen[name] += len(rects)
    assert min(seen.values()) > 100, seen


def _records(result) -> tuple[list, list]:
    """Every Rect, EndCutBox and EndCutCandidate a decomposition returns,
    nested ones included, and every corner: of those rects and of the
    shapes' outlines."""
    found: list = []
    corners: list = []

    def rect(r):
        found.append(r)
        corners.extend(r)

    def cand(c):
        found.append(c)
        for box in c.boxes:
            found.append(box)
            rect(box.rect)

    for s in result.document.shapes:
        corners.extend(s.outline)
        for r in (*s.rects, s.bbox):
            rect(r)
    for piece in result.graph.pieces:
        for r in piece:
            rect(r)
    for c in result.end_cuts.candidates:
        cand(c)
    for r in result.report.cuts:
        rect(r)
    return found, corners


def _rebuilt(r):
    """The same value built through the records' public constructors."""
    if type(r) is Rect:
        (x1, y1), (x2, y2) = r
        return Rect((x1, y1), (x2, y2))
    if type(r) is EndCutBox:
        return EndCutBox(rect=_rebuilt(r.rect), kind=r.kind)
    return EndCutCandidate(pair=r.pair, boxes=tuple(_rebuilt(b) for b in r.boxes))


def test_pipeline_records_match_their_public_constructors(monkeypatch):
    # records built with tuple.__new__ must be exactly what Rect(...),
    # EndCutBox(...) and EndCutCandidate(...) build, and every corner is
    # an exact pair of ints, no tuple subclass
    docs = [doc for _, doc, _ in runs("geometry records")]
    results = [decompose_document(doc) for doc in docs]
    kinds = {Rect: 0, EndCutBox: 0, EndCutCandidate: 0}
    n_corners = 0
    for result in results:
        found, corners = _records(result)
        for p in corners:
            assert type(p) is tuple and len(p) == 2, (type(p), p)
            assert type(p[0]) is int and type(p[1]) is int, p
        n_corners += len(corners)
        for r in found:
            assert type(r) in kinds, type(r)
            kinds[type(r)] += 1
            built = _rebuilt(r)
            assert r == built and hash(r) == hash(built) and repr(r) == repr(built)
            assert pickle.dumps(r) == pickle.dumps(built)
            back = pickle.loads(pickle.dumps(r))
            assert type(back) is type(r) and back == r
    assert min(kinds.values()) > 100 and n_corners > 100, (kinds, n_corners)

    # decomposing, and parsing rect lines, call no Python-level __new__
    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"{cls.__name__} built through its class")

    for cls in kinds:
        monkeypatch.setattr(cls, "__new__", refuse)
    with pytest.raises(AssertionError, match="Rect built through its class"):
        Rect((0, 0), (1, 1))
    for doc in docs:
        text = write_layout(doc)
        if "poly" in text:
            decompose_document(doc)
        else:
            write_report(decompose_document(parse_layout(text)).report)
    # a caller's points are unpacked as pairs, so a 3-tuple is refused
    monkeypatch.undo()
    with pytest.raises(ValueError, match="unpack"):
        RectilinearShape.from_outline(1, [(0, 0), (10, 0, 5), (10, 10), (0, 10)])


def test_malformed_input_messages_print_corners_as_pairs():
    with pytest.raises(GeometryError, match=r"^outline move \(10, 0\) -> \(20, 10\) is not axis-aligned$"):
        RectilinearShape.from_outline(1, [(0, 0), (10, 0), (20, 10), (0, 10)])
    with pytest.raises(GeometryError, match=r"^outline doubles back at \(10, 0\)$"):
        RectilinearShape.from_outline(1, [(0, 0), (10, 0), (5, 0), (5, 10), (0, 10)])
    with pytest.raises(GeometryError, match=r"^rectangle has no area: \(0, 0\) \.\. \(10, 0\)$"):
        RectilinearShape.from_rect(1, Rect.of(0, 0, 10, 0))
    # a malformed poly line's parse error carries the same text
    with pytest.raises(LayoutParseError, match=r"^line 1: outline move \(10, 0\) -> \(20, 10\) is not"):
        parse_layout("poly 1 0 0 10 0 20 10 0 10\n")


def test_interval_gap():
    assert interval_gap(0, 10, 20, 30) == 10
    assert interval_gap(20, 30, 0, 10) == 10
    assert interval_gap(0, 10, 10, 30) == 0
    assert interval_gap(0, 10, 5, 30) == 0


def test_rect_gaps_and_chebyshev():
    a = Rect.of(0, 0, 10, 10)
    assert rect_gaps(a, Rect.of(25, 40, 35, 50)) == (15, 30)
    assert rect_chebyshev_gap(a, Rect.of(25, 40, 35, 50)) == 30
    assert rect_chebyshev_gap(a, Rect.of(3, 12, 8, 20)) == 2
    assert rect_chebyshev_gap(a, a) == 0


def test_rect_intersection_predicates():
    a = Rect.of(0, 0, 10, 10)
    touch = Rect.of(10, 0, 20, 10)
    corner = Rect.of(10, 10, 20, 20)
    inside = Rect.of(2, 2, 8, 8)
    apart = Rect.of(11, 0, 20, 10)
    assert not rects_interior_intersect(a, touch)
    assert rects_closed_intersect(a, touch)
    assert rects_closed_intersect(a, corner)
    assert rects_interior_intersect(a, inside)
    assert not rects_closed_intersect(a, apart)


def test_rect_overlap_kind():
    # the three ways two rectangles can meet: apart, touching, sharing area
    a = Rect.of(0, 0, 10, 10)
    apart, corner, side, overlap = (
        Rect.of(20, 0, 30, 10), Rect.of(10, 10, 20, 20), Rect.of(10, 0, 20, 10), Rect.of(5, 5, 20, 20)
    )
    assert not rects_closed_intersect(a, apart)
    for touching in (corner, side):
        assert rects_closed_intersect(a, touching)
        assert not rects_interior_intersect(a, touching)
    assert rects_interior_intersect(a, overlap)


def test_shape_from_rect_and_bbox():
    s = RectilinearShape.from_rect(3, Rect.of(0, 0, 40, 100))
    assert s.id == 3
    assert s.bbox == Rect.of(0, 0, 40, 100)
    assert min(min(r.width, r.height) for r in s.rects) == 40
    assert len(s.rects) == 1


def test_outline_normalisation_and_direction():
    # clockwise input is accepted and stored counter-clockwise: both
    # windings describe the same directed segments
    cw = RectilinearShape.from_outline(1, [(0, 0), (0, 10), (10, 10), (10, 0)])
    ccw = RectilinearShape.from_outline(1, [(0, 0), (10, 0), (10, 10), (0, 10)])
    segments = lambda s: sorted(zip(s.outline, s.outline[1:] + s.outline[:1]))
    assert segments(cw) == segments(ccw)
    # collinear midpoints are dropped
    s = RectilinearShape.from_outline(1, [(0, 0), (5, 0), (10, 0), (10, 10), (0, 10)])
    assert len(s.outline) == 4


def test_outline_rejects_bad_input():
    with pytest.raises(GeometryError):  # diagonal segment
        RectilinearShape.from_outline(1, [(0, 0), (10, 10), (0, 10)])
    with pytest.raises(GeometryError):  # too few vertices
        RectilinearShape.from_outline(1, [(0, 0), (10, 0), (10, 10)][:2])
    with pytest.raises(GeometryError):  # spike (zero-width excursion)
        RectilinearShape.from_outline(1, [(0, 0), (10, 0), (10, 10), (5, 10), (5, 20), (5, 10), (0, 10)][:6])
    with pytest.raises(GeometryError):  # consecutive duplicate vertex
        RectilinearShape.from_outline(1, [(0, 0), (10, 0), (10, 0), (10, 10), (0, 10), (0, 5)])
    with pytest.raises(GeometryError):  # self-intersecting bowtie
        RectilinearShape.from_outline(
            1, [(0, 0), (10, 0), (10, 6), (4, 6), (4, -4), (14, -4), (14, 10), (0, 10)]
        )


def test_outline_edges_have_outward_normals():
    # the runs (pos, lo, hi) of each outline, grouped by outward normal,
    # are what a polygon pair's end-cuts read: a shape 30 below and one
    # 30 to the right each face it along one run of the other
    s = RectilinearShape.from_rect(1, Rect.of(10, 0, 40, 30))
    below = RectilinearShape.from_rect(2, Rect.of(0, -50, 60, -30))
    right = RectilinearShape.from_rect(3, Rect.of(70, 5, 90, 20))

    def sides(a, b):
        return _facing_sides(_outline_runs(a.outline), _outline_runs(b.outline))

    assert sides(s, below) == [(-30, 0, 10, 40, "x")]
    assert sides(below, s) == [(-30, 0, 10, 40, "x")]
    assert sides(s, right) == [(40, 70, 5, 20, "y")]
    assert sides(right, s) == [(40, 70, 5, 20, "y")]
    # an L's six runs: its notch faces a bar tucked into it on two sides
    l = RectilinearShape.from_outline(
        4, [(0, 0), (200, 0), (200, 80), (80, 80), (80, 240), (0, 240)]
    )
    tucked = RectilinearShape.from_rect(5, Rect.of(120, 120, 200, 240))
    assert sides(l, tucked) == [
        (80, 120, 120, 240, "y"),
        (80, 120, 120, 200, "x"),
    ]


def test_l_shape_decomposition():
    s = RectilinearShape.from_outline(
        7, [(0, 0), (200, 0), (200, 80), (80, 80), (80, 240), (0, 240)]
    )
    assert sum(r.area for r in s.rects) == 200 * 80 + 80 * 160
    for i, a in enumerate(s.rects):
        for b in s.rects[i + 1:]:
            assert not rects_interior_intersect(a, b)
    assert s.bbox == Rect.of(0, 0, 200, 240)
    assert min(min(r.width, r.height) for r in s.rects) == 80
    assert len(s.outline) == 6


def test_plus_shape_decomposition():
    s = RectilinearShape.from_outline(
        1,
        [(40, 0), (80, 0), (80, 40), (120, 40), (120, 80), (80, 80),
         (80, 120), (40, 120), (40, 80), (0, 80), (0, 40), (40, 40)],
    )
    assert sum(r.area for r in s.rects) == 40 * 40 * 5
    assert len(s.outline) == 12


def test_shape_distance_and_overlap_error():
    a = RectilinearShape.from_rect(1, Rect.of(0, 0, 10, 10))
    b = RectilinearShape.from_rect(2, Rect.of(30, 0, 40, 10))
    assert rectset_chebyshev_gap(a.rects, b.rects) == 20
    # touching is allowed and is distance zero
    d = RectilinearShape.from_rect(4, Rect.of(10, 0, 20, 10))
    assert rectset_chebyshev_gap(a.rects, d.rects) == 0


def test_l_shape_distance_uses_pieces_not_bbox():
    # the bounding boxes overlap but the actual pieces stay 40 apart
    l1 = RectilinearShape.from_outline(
        1, [(0, 0), (200, 0), (200, 40), (40, 40), (40, 200), (0, 200)]
    )
    bar = RectilinearShape.from_rect(2, Rect.of(80, 80, 200, 200))
    assert rectset_chebyshev_gap(l1.rects, bar.rects) == 40
    assert rectset_within(l1.rects, bar.rects, 40)
    assert not rectset_within(l1.rects, bar.rects, 39)


def test_euclidean_metric_differs_on_diagonals():
    a = [Rect.of(0, 0, 10, 10)]
    b = [Rect.of(40, 50, 60, 70)]  # gaps (30, 40): straight-line 50
    assert rectset_within(a, b, 40, Metric.CHEBYSHEV)
    assert not rectset_within(a, b, 49, Metric.EUCLIDEAN)
    assert rectset_within(a, b, 50, Metric.EUCLIDEAN)


def _random_rects(rng: random.Random) -> list[Rect]:
    """One to three rectangles on a 24 lattice, so that gaps of exactly d
    and the 3-4-5 diagonal (72, 96 at 120) come up often."""
    out = []
    for _ in range(rng.randint(1, 3)):
        x, y = rng.randrange(0, 481, 24), rng.randrange(0, 481, 24)
        out.append(Rect.of(x, y, x + rng.randrange(24, 145, 24), y + rng.randrange(24, 145, 24)))
    return out


def test_rectset_within_matches_per_rectangle_gaps():
    def gaps(a: Rect, b: Rect) -> tuple[int, int]:
        # how far apart the two intervals lie on each axis, 0 when they meet
        (ax1, ay1), (ax2, ay2) = a
        (bx1, by1), (bx2, by2) = b
        return (
            max(0, bx1 - ax2, ax1 - bx2),
            max(0, by1 - ay2, ay1 - by2),
        )

    rng = random.Random(3045)
    at_d = {Metric.CHEBYSHEV: 0, Metric.EUCLIDEAN: 0}
    for _ in range(3000):
        a, b = _random_rects(rng), _random_rects(rng)
        d = rng.randrange(0, 145, 24)
        pair_gaps = [gaps(ra, rb) for ra in a for rb in b]
        cheb = min(max(gx, gy) for gx, gy in pair_gaps)
        eucl = min(gx * gx + gy * gy for gx, gy in pair_gaps)
        assert rectset_within(a, b, d, Metric.CHEBYSHEV) == (cheb <= d)
        assert rectset_within(a, b, d, Metric.EUCLIDEAN) == (eucl <= d * d)
        at_d[Metric.CHEBYSHEV] += cheb == d
        at_d[Metric.EUCLIDEAN] += eucl == d * d
    assert min(at_d.values()) >= 100, at_d
    # the 3-4-5 boundary: gaps 72 and 96 lie exactly 120 apart
    a, b = [Rect.of(0, 0, 10, 10)], [Rect.of(82, 106, 100, 120)]
    assert rectset_within(a, b, 120, Metric.EUCLIDEAN)
    assert not rectset_within(a, b, 119, Metric.EUCLIDEAN)
    assert rectset_within(a, b, 96, Metric.CHEBYSHEV)
    assert not rectset_within(a, b, 95, Metric.CHEBYSHEV)
    # touching along a side or at a corner is distance 0
    for touching in (Rect.of(10, 0, 20, 10), Rect.of(10, 10, 20, 20), Rect.of(-5, 10, 5, 30)):
        for metric in Metric:
            assert rectset_within(a, [touching], 0, metric)
    assert not rectset_within(a, [Rect.of(11, 0, 20, 10)], 0, Metric.EUCLIDEAN)


def test_bounding_box():
    rects = [Rect.of(0, 0, 10, 10), Rect.of(40, -20, 50, 5), Rect.of(2, 2, 3, 3)]
    assert bounding_box(rects) == Rect.of(0, -20, 50, 10)
    # any iterable, read once
    assert bounding_box(iter(rects)) == Rect.of(0, -20, 50, 10)
    # the first rectangle itself when it holds the others
    assert bounding_box(rects[:1]) is rects[0]
    assert bounding_box([rects[0], rects[2]]) is rects[0]
    with pytest.raises(GeometryError):
        bounding_box(iter(()))


def test_from_rect_matches_from_outline():
    rng = random.Random(7321)
    for _ in range(2000):
        x, y = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
        x2, y2 = x + rng.randint(1, 500), y + rng.randint(1, 500)
        sid = rng.randrange(10_000)
        assert shape_facts(RectilinearShape.from_rect(sid, Rect.of(x, y, x2, y2))) == shape_facts(
            RectilinearShape.from_outline(sid, [(x, y), (x2, y), (x2, y2), (x, y2)])
        )


def test_a_rectangle_builds_its_outline_on_read():
    # a rectangle stores no outline: the four corners it builds are the
    # outline from_outline makes of them, and a rect line parses alike
    corners = [(10, 20), (70, 20), (70, 60), (10, 60)]
    r = RectilinearShape.from_rect(5, Rect.of(10, 20, 70, 60))
    assert r.corners == ()
    assert r.outline == RectilinearShape.from_outline(5, corners).outline == tuple(corners)
    assert RectilinearShape.from_outline(5, corners[::-1]) == r
    rect_line, poly_line = parse_layout("rect 5 10 20 70 60\npoly 6 80 20 90 20 90 60 80 60\n").shapes
    assert rect_line == r
    assert poly_line == RectilinearShape.from_rect(6, Rect.of(80, 20, 90, 60))
    # an outline that starts at another corner is kept as it was read
    turned = RectilinearShape.from_outline(5, corners[2:] + corners[:2])
    assert turned.outline == turned.corners == tuple(corners[2:] + corners[:2])
    assert turned.rects == r.rects


def test_spatial_index_pairs_cover_every_close_box_pair():
    rng = random.Random(99)
    for trial in range(40):
        shapes = []
        # sparse ids in random order, so pairs() cannot be ascending by accident
        for fid in rng.sample(range(1, 10_000), rng.randint(3, 29)):
            x = rng.randrange(-500, 2000, 10)
            y = rng.randrange(-500, 2000, 10)
            w = rng.randrange(10, 400, 10)
            h = rng.randrange(10, 400, 10)
            shapes.append(RectilinearShape.from_rect(fid, Rect.of(x, y, x + w, y + h)))
        rng.choice([60, 120, 250])  # a band height once drawn here: the shapes stay the same
        index = SpatialIndex.from_shapes(shapes)
        for d in (0, 50, 120):
            pairs = list(index.pairs(d))
            assert all(a < b for a, b in pairs)
            assert pairs == sorted(set(pairs))
            # a box is named by its shape's place in shapes, not by its id
            found = {(shapes[a].id, shapes[b].id) for a, b in pairs}
            for i, s in enumerate(shapes):
                for t in shapes[i + 1 :]:
                    if rect_chebyshev_gap(s.bbox, t.bbox) <= d:
                        assert (s.id, t.id) in found


def brute_force_pairs(boxes: list[Rect], d: int) -> list[tuple[int, int]]:
    return sorted(
        (a, b)
        for a in range(len(boxes))
        for b in range(a + 1, len(boxes))
        if rect_chebyshev_gap(boxes[a], boxes[b]) <= d
    )


def test_spatial_index_pairs_are_exactly_the_box_gap_pairs():
    rng = random.Random(4711)
    for trial in range(300):
        rng.choice([7, 60, 120, 250])  # a band height once drawn here: the boxes stay the same
        boxes = []
        # boxes in random order and negative coordinates, as many as the
        # sparse ids once drawn here; tall boxes span many bands, and the
        # largest gaps exceed the band height
        for _ in rng.sample(range(-20, 10_000), rng.randint(0, 30)):
            x = rng.randrange(-1500, 1500, 10)
            y = rng.randrange(-1500, 1500, 10)
            w = rng.randrange(10, 400, 10)
            h = rng.randrange(10, rng.choice([100, 1200]), 10)
            boxes.append(Rect.of(x, y, x + w, y + h))
        index = SpatialIndex(boxes)
        for d in (0, 10, 50, 120, 300, 700):
            assert index.pairs(d) == brute_force_pairs(boxes, d), (trial, d)


def test_spatial_index_pairs_with_tall_boxes_among_small_ones():
    # at small gaps the bands are low, and the tall boxes span far more
    # bands than any box starts in; some spans are a few units, some millions
    rng = random.Random(2718)
    for trial in range(200):
        unit = rng.choice([1, 2, 3, 7])
        boxes = []
        for _ in rng.sample(range(-20, 10_000), rng.randint(0, 30)):
            x = rng.randrange(-300, 300, 5)
            y = rng.randrange(-300, 300)
            w = rng.randrange(1, 60)
            h = rng.choice(
                [rng.randrange(1, 30), rng.randrange(5, 12) * unit, rng.randrange(1, 10**7)]
            )
            boxes.append(Rect.of(x, y, x + w, y + h))
        index = SpatialIndex(boxes)
        for d in (0, 1, 5, 40, 300):
            assert index.pairs(d) == brute_force_pairs(boxes, d), (trial, d)


def test_tall_bars_take_memory_by_count_not_height():
    # two 10-wide bars 50,000,000 nm tall at a 1 nm spacing rule: one band
    # per unit of height would list each bar 50 million times
    h = 50_000_000
    text = (
        "layout bars\nparam dis_m 1\nparam hlow 1\nparam wlow 1\n"
        f"rect 1 0 0 10 {h}\nrect 2 20 0 30 {h}\nrect 3 0 {h + 1} 30 {h + 11}\n"
    )
    tracemalloc.start()
    try:
        result = decompose_document(parse_layout(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.graph.conflict_edges == ((0, 2, -1), (1, 2, -1))
    assert result.stats.conflicts == 0
    assert peak < 1_000_000, peak
    index = SpatialIndex([Rect.of(0, 0, 10, h), Rect.of(11, 0, 21, h)])
    assert index.pairs(1) == [(0, 1)] and index.pairs(0) == []


def test_spatial_index_pairs_of_touching_boxes_at_gap_zero():
    # a 3 x 3 block of squares touching on sides and corners,
    # one square apart by a single unit, and one overlapping another
    boxes = [Rect.of(10 * i, 10 * j, 10 * i + 10, 10 * j + 10) for i in range(3) for j in range(3)]
    boxes.append(Rect.of(31, 0, 41, 10))  # box 9
    boxes.append(Rect.of(-5, -5, 5, 5))  # box 10
    index = SpatialIndex(boxes)
    pairs = index.pairs(0)
    assert pairs == brute_force_pairs(boxes, 0)
    assert (0, 4) in pairs and (6, 9) not in pairs and (0, 10) in pairs
    assert index.pairs(1) == brute_force_pairs(boxes, 1)
    assert (6, 9) in index.pairs(1)


def test_components_are_the_classes_a_walk_reaches():
    rng = random.Random(31)
    for trial in range(300):
        n = rng.randrange(0, 40)
        links = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n + 1))]
        adjacent = [set() for _ in range(n)]
        for a, b in links:
            adjacent[a].add(b)
            adjacent[b].add(a)
        want, seen = [], set()
        for v in range(n):
            if v not in seen:
                todo, reached = [v], {v}
                while todo:
                    for w in adjacent[todo.pop()] - reached:
                        reached.add(w)
                        todo.append(w)
                seen |= reached
                want.append(sorted(reached))
        assert components(n, links) == want, trial
    # a vertex that no link reaches is a class of its own
    assert components(5, [(4, 1), (3, 1)]) == [[0], [1, 3, 4], [2]]


def test_memory_held_after_a_10k_grid_decomposition():
    # tracemalloc of what decompose_document(grid_layout(10000, 2)) holds,
    # its document included: 8,892,865 bytes when this bound was set,
    # with rectangles that store no outline and answers on ranks; the
    # bound leaves 10 % over that
    gc.collect()
    tracemalloc.start()
    try:
        result = decompose_document(grid_layout(10000, 2))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.stats.conflicts == 660
    assert held <= 9_782_000, held
