"""Integer rectilinear geometry kernel.

Everything in this module works on integer nanometer coordinates and every
predicate is exact. Floating point never enters the picture; the Euclidean
distance mode compares squared gaps against a squared threshold.

Distance between two disjoint rectilinear shapes is defined as the smallest,
over all pairs of constituent rectangles, of max(horizontal gap, vertical
gap). Two rectangles that overlap or touch in an axis have gap 0 in that
axis, so touching shapes are at distance 0.

SpatialIndex is the one neighbour search: it lists every pair of boxes
within a given Chebyshev gap, exactly, by a band sweep. A pair is found
only in a band where one of its boxes starts, so a box is listed only in
such bands, and its memory does not grow with its height.

Point, Rect and RectilinearShape are named tuples that order, compare
and hash as plain tuples and check nothing. RectilinearShape's
constructors and the parsers check input where it enters. Where this
module fixes a record's arity itself, it builds the record with
tuple.__new__, as namedtuple's _make does, and skips the generated
Python-level __new__; a tuple a caller passes in goes through the
class.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple, Sequence


class GeometryError(ValueError):
    """Invalid geometric input."""


class OverlappingInputShapes(GeometryError):
    """Two input shapes share interior area; the layout is malformed."""


class Metric(enum.Enum):
    CHEBYSHEV = "chebyshev"
    EUCLIDEAN = "euclidean"


# the record constructor that namedtuple's _make uses: no Python frame
_new = tuple.__new__


class Point(NamedTuple):
    x: int
    y: int


class Rect(NamedTuple):
    """Axis-aligned rectangle from lo, the lower-left corner, to hi, the
    upper-right one. It orders and hashes as ((lo.x, lo.y), (hi.x, hi.y));
    from_rect and the parsers reject one without positive area."""

    lo: Point
    hi: Point

    @classmethod
    def of(cls, x1: int, y1: int, x2: int, y2: int) -> "Rect":
        return _new(cls, (_new(Point, (x1, y1)), _new(Point, (x2, y2))))

    @property
    def width(self) -> int:
        return self.hi.x - self.lo.x

    @property
    def height(self) -> int:
        return self.hi.y - self.lo.y

    @property
    def area(self) -> int:
        return self.width * self.height

    def inflate(self, d: int) -> "Rect":
        (x1, y1), (x2, y2) = self
        return _new(Rect, (_new(Point, (x1 - d, y1 - d)), _new(Point, (x2 + d, y2 + d))))


def interval_gap(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> int:
    """Gap between two closed intervals; 0 when they overlap or touch."""
    if b_lo > a_hi:
        return b_lo - a_hi
    if a_lo > b_hi:
        return a_lo - b_hi
    return 0


def rect_gaps(a: Rect, b: Rect) -> tuple[int, int]:
    gx = interval_gap(a.lo.x, a.hi.x, b.lo.x, b.hi.x)
    gy = interval_gap(a.lo.y, a.hi.y, b.lo.y, b.hi.y)
    return gx, gy


def rect_chebyshev_gap(a: Rect, b: Rect) -> int:
    gx, gy = rect_gaps(a, b)
    return max(gx, gy)


def rects_interior_intersect(a: Rect, b: Rect) -> bool:
    return (
        a.lo.x < b.hi.x
        and b.lo.x < a.hi.x
        and a.lo.y < b.hi.y
        and b.lo.y < a.hi.y
    )


def rects_closed_intersect(a: Rect, b: Rect) -> bool:
    return (
        a.lo.x <= b.hi.x
        and b.lo.x <= a.hi.x
        and a.lo.y <= b.hi.y
        and b.lo.y <= a.hi.y
    )


def _normalize_outline(points: Sequence[Point]) -> list[Point]:
    """Drop a repeated closing point, merge collinear runs, reject spikes."""
    pts = list(points)
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts.pop()
    if len(pts) < 4:
        raise GeometryError("outline needs at least 4 distinct vertices")

    for p, q in zip(pts, pts[1:] + pts[:1]):
        if p == q:
            raise GeometryError("outline repeats a vertex consecutively")
        if p.x != q.x and p.y != q.y:
            raise GeometryError(f"outline move {p} -> {q} is not axis-aligned")

    def direction(p: Point, q: Point) -> tuple[int, int]:
        dx = (q.x > p.x) - (q.x < p.x)
        dy = (q.y > p.y) - (q.y < p.y)
        return dx, dy

    merged: list[Point] = []
    n = len(pts)
    for i, p in enumerate(pts):
        prev = pts[i - 1]
        nxt = pts[(i + 1) % n]
        d_in = direction(prev, p)
        d_out = direction(p, nxt)
        if d_in == d_out:
            continue  # collinear, vertex is redundant
        if d_in == (-d_out[0], -d_out[1]):
            raise GeometryError(f"outline doubles back at {p}")
        merged.append(p)
    if len(merged) < 4 or len(merged) % 2 != 0:
        raise GeometryError("outline does not describe a rectilinear polygon")
    return merged


def _signed_area2(pts: Sequence[Point]) -> int:
    return sum(p.x * q.y - q.x * p.y for p, q in zip(pts, pts[1:] + pts[:1]))


def _check_simple(pts: Sequence[Point]) -> None:
    """Reject outlines whose boundary touches or crosses itself."""
    n = len(pts)
    segs = [
        (min(p.x, q.x), min(p.y, q.y), max(p.x, q.x), max(p.y, q.y))
        for p, q in zip(pts, pts[1:] + pts[:1])
    ]
    if len(set(pts)) != n:
        raise GeometryError("outline revisits a vertex")
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            a, b = segs[i], segs[j]
            if a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]:
                raise GeometryError("outline self-intersects")


def _decompose_outline(pts: Sequence[Point]) -> tuple[Rect, ...]:
    """Slice a simple rectilinear polygon into horizontal slabs of rectangles."""
    ys = sorted({p.y for p in pts})
    verticals = [
        (p.x, min(p.y, q.y), max(p.y, q.y)) for p, q in zip(pts, pts[1:] + pts[:1]) if p.x == q.x
    ]
    rects: list[Rect] = []
    for y0, y1 in zip(ys, ys[1:]):
        xs = sorted(x for x, vlo, vhi in verticals if vlo <= y0 and vhi >= y1)
        if len(xs) % 2 != 0:
            raise GeometryError("outline is not a valid simple polygon")
        for k in range(0, len(xs), 2):
            rects.append(Rect.of(xs[k], y0, xs[k + 1], y1))
    if not rects:
        raise GeometryError("outline encloses no area")
    return tuple(sorted(rects))


def _check_integer(points: Iterable[Point]) -> None:
    for p in points:
        if not isinstance(p.x, int) or not isinstance(p.y, int):
            raise GeometryError(f"point coordinates must be integers: ({p.x}, {p.y})")


class RectilinearShape(NamedTuple):
    """A layout feature: a simple rectilinear polygon.

    Stored as the counter-clockwise outline plus a slab decomposition into
    axis-aligned rectangles whose union is exactly the polygon.
    """

    id: int
    rects: tuple[Rect, ...]
    outline: tuple[Point, ...]

    @classmethod
    def from_outline(cls, sid: int, points: Iterable[tuple[int, int]]) -> "RectilinearShape":
        pts = [Point(x, y) for x, y in points]
        _check_integer(pts)
        pts = _normalize_outline(pts)
        if _signed_area2(pts) < 0:
            pts.reverse()
        _check_simple(pts)
        rects = _decompose_outline(pts)
        return cls(sid, rects, tuple(pts))

    @classmethod
    def from_rect(cls, sid: int, rect: Rect) -> "RectilinearShape":
        """The shape of one rectangle with integer corners and positive
        area, built directly: the same rects and outline as from_outline
        given its four corners counter-clockwise from the lower-left one,
        without normalising or slicing an outline."""
        lo, hi = rect
        _check_integer(rect)
        if lo.x >= hi.x or lo.y >= hi.y:
            raise GeometryError(f"rectangle has no area: {lo} .. {hi}")
        return _rect_shape(sid, lo.x, lo.y, hi.x, hi.y)

    @property
    def bbox(self) -> Rect:
        return bounding_box(self.rects)

    @property
    def min_dimension(self) -> int:
        return min(min(r.width, r.height) for r in self.rects)

    def __repr__(self) -> str:  # keep noise down in test failures
        return f"RectilinearShape(id={self.id}, rects={len(self.rects)})"


def _rect_shape(sid: int, x1: int, y1: int, x2: int, y2: int) -> RectilinearShape:
    """The shape of the rectangle from (x1, y1) to (x2, y2), built without
    checks: the caller has made sure the corners are integers with
    x1 < x2 and y1 < y2."""
    lo, hi = _new(Point, (x1, y1)), _new(Point, (x2, y2))
    outline = (lo, _new(Point, (x2, y1)), hi, _new(Point, (x1, y2)))
    return _new(RectilinearShape, (sid, (_new(Rect, (lo, hi)),), outline))


def bounding_box(rects: Sequence[Rect]) -> Rect:
    """The smallest rectangle holding all of rects; the rectangle itself
    when there is only one."""
    if len(rects) == 1:
        return rects[0]
    if not rects:
        raise GeometryError("bounding box of nothing")
    los, his = zip(*rects)
    xs1, ys1 = zip(*los)
    xs2, ys2 = zip(*his)
    return _new(Rect, (_new(Point, (min(xs1), min(ys1))), _new(Point, (max(xs2), max(ys2)))))


def rectset_chebyshev_gap(a: Sequence[Rect], b: Sequence[Rect]) -> int:
    return min(rect_chebyshev_gap(ra, rb) for ra in a for rb in b)


def rectset_within(a: Sequence[Rect], b: Sequence[Rect], d: int, metric: Metric = Metric.CHEBYSHEV) -> bool:
    """Exact test for distance(a, b) <= d under the chosen metric."""
    euclidean = metric is Metric.EUCLIDEAN
    dd = d * d
    for (ax1, ay1), (ax2, ay2) in a:
        for (bx1, by1), (bx2, by2) in b:
            gx = bx1 - ax2 if bx1 > ax2 else ax1 - bx2 if ax1 > bx2 else 0
            gy = by1 - ay2 if by1 > ay2 else ay1 - by2 if ay1 > by2 else 0
            if (gx * gx + gy * gy <= dd) if euclidean else (gx <= d and gy <= d):
                return True
    return False


class SpatialIndex:
    """Bounding boxes by id, for neighbour search.

    pairs() lists exactly the pairs of ids whose boxes lie within a
    Chebyshev gap of each other, by one sweep along x inside horizontal
    bands one cell high.
    """

    def __init__(self, boxes: dict[int, Rect], cell_size: int):
        if cell_size <= 0:
            raise GeometryError("cell size must be positive")
        self.cell_size = cell_size
        self._boxes = boxes

    @classmethod
    def from_shapes(cls, shapes: Iterable[RectilinearShape], cell_size: int) -> "SpatialIndex":
        return cls({s.id: s.bbox for s in shapes}, cell_size)

    def pairs(self, distance: int = 0) -> list[tuple[int, int]]:
        """Every pair (a, b) with a < b whose boxes lie within Chebyshev
        gap distance of each other, each once and in ascending order.

        Band k is [k * cell, (k + 1) * cell) in y, and a box starts in the
        band of its lo.y. Of two boxes within the gap, the one with the
        lower lo.y reaches up to the other's lo.y, its y range raised by
        distance at the top, so the band where the other starts holds
        both, and only that band reports the pair. A band where no box
        starts reports nothing, so a box is listed only in the start bands
        its raised y range meets, found by bisection over the sorted start
        bands. Its entries are thus at most the number of boxes, whatever
        its height. Inside a band a sweep in lo.x order compares each box with
        the earlier ones whose hi.x plus distance reaches its lo.x.
        """
        cell, d = self.cell_size, distance
        starts = sorted({y1 // cell for (_, y1), _ in self._boxes.values()})
        bands: dict[int, list[list[int]]] = {k: [] for k in starts}
        for sid, ((x1, y1), (x2, y2)) in self._boxes.items():
            # a list: freed 5-tuples would stay on the interpreter's tuple
            # free list and add to the peak of the solve that follows
            entry = [x1, sid, x2 + d, y1, y2 + d]
            first, last = y1 // cell, (y2 + d) // cell
            for k in starts[bisect_left(starts, first) : bisect_right(starts, last)]:
                bands[k].append(entry)
        found: list[tuple[int, int]] = []
        for k, band in bands.items():
            band.sort()
            low = k * cell  # a box with lo.y >= low has this as its first band
            active: list[list[int]] = []
            for entry in band:
                x, b, _, y, reach_y = entry
                still = []
                for other in active:
                    if other[2] < x:
                        continue  # out of reach of this and every later box
                    still.append(other)
                    a = other[1]
                    if (
                        (y >= low or other[3] >= low)
                        and other[3] <= reach_y
                        and y <= other[4]
                    ):
                        found.append((a, b) if a < b else (b, a))
                still.append(entry)
                active = still
        found.sort()
        return found
