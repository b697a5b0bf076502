"""Integer rectilinear geometry kernel.

Everything in this module works on integer nanometer coordinates and every
predicate is exact. Floating point never enters the picture; the Euclidean
distance mode compares squared gaps against a squared threshold.

Distance between two disjoint rectilinear shapes is defined as the smallest,
over all pairs of constituent rectangles, of max(horizontal gap, vertical
gap). Two rectangles that overlap or touch in an axis have gap 0 in that
axis, so touching shapes are at distance 0.

SpatialIndex is the one neighbour search: it lists every pair of boxes
within a given Chebyshev gap, exactly, by index, in a band sweep whose
memory does not grow with a box's height. components is the one
grouping: the classes that a set of pairs joins, such as solve's blocks.

RectilinearShape.from_outline reads a polygon's outline in one pass for
its corners and then checks and cuts it in one sweep up its horizontal
runs, in time n log n plus the shifts of one sorted list of xs for n
corners. Each piece of the polygon between two vertical runs becomes one
rectangle, however many corners lie beside it, so a comb is one
rectangle per tooth and a staircase one per step. A rectangle stores no
outline: its four corners are made when something reads them, as an
end-cut beside a polygon does.

Rect and RectilinearShape are named tuples that order, compare and
hash as plain tuples and check nothing. A corner is a plain (x, y) pair
of ints, no record: building a pair and unpacking an exact tuple are the
interpreter's fast paths, and corners are the most numerous values here.
RectilinearShape's constructors and the parsers check input where it
enters. Where this module fixes a record's arity itself, it builds the
record with tuple.__new__, as namedtuple's _make does, and skips the
generated Python-level __new__; a tuple a caller passes in goes through
the class.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from itertools import groupby
from operator import itemgetter
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
_first = itemgetter(0)


# a corner or outline vertex: a plain (x, y) pair of ints
Corner = tuple[int, int]


class Rect(NamedTuple):
    """Axis-aligned rectangle from lo, the lower-left corner, to hi, the
    upper-right one, each an (x, y) pair. It orders and hashes as
    ((x1, y1), (x2, y2)); from_rect and the parsers reject one without
    positive area."""

    lo: Corner
    hi: Corner

    @classmethod
    def of(cls, x1: int, y1: int, x2: int, y2: int) -> "Rect":
        return _new(cls, ((x1, y1), (x2, y2)))

    @property
    def width(self) -> int:
        (x1, _), (x2, _) = self
        return x2 - x1

    @property
    def height(self) -> int:
        (_, y1), (_, y2) = self
        return y2 - y1

    @property
    def area(self) -> int:
        return self.width * self.height

    def inflate(self, d: int) -> "Rect":
        (x1, y1), (x2, y2) = self
        return _new(Rect, ((x1 - d, y1 - d), (x2 + d, y2 + d)))


def interval_gap(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> int:
    """Gap between two closed intervals; 0 when they overlap or touch."""
    if b_lo > a_hi:
        return b_lo - a_hi
    if a_lo > b_hi:
        return a_lo - b_hi
    return 0


def rects_interior_intersect(a: Rect, b: Rect) -> bool:
    (ax1, ay1), (ax2, ay2) = a
    (bx1, by1), (bx2, by2) = b
    return ax1 < bx2 and bx1 < ax2 and ay1 < by2 and by1 < ay2


def rects_closed_intersect(a: Rect, b: Rect) -> bool:
    (ax1, ay1), (ax2, ay2) = a
    (bx1, by1), (bx2, by2) = b
    return ax1 <= bx2 and bx1 <= ax2 and ay1 <= by2 and by1 <= ay2


def _check_integer(points: Iterable[tuple[int, int]]) -> None:
    """Reject a coordinate that is not an int, or that is a bool, which
    would be written as True or False."""
    for x, y in points:
        if (
            not (isinstance(x, int) and isinstance(y, int))
            or isinstance(x, bool)
            or isinstance(y, bool)
        ):
            raise GeometryError(f"point coordinates must be integers: ({x}, {y})")


def _check_id(sid: int) -> None:
    """Reject a feature id that parse_layout would: not an int, a bool,
    or negative."""
    if not isinstance(sid, int) or isinstance(sid, bool) or sid < 0:
        raise GeometryError(f"feature id must be a non-negative integer: {sid!r}")


def _corners(pts: list[Corner]) -> tuple[list[Corner], list[int]]:
    """The corners of an outline and the direction of the run that leaves
    each (0 right, 1 up, 2 left, 3 down), in one pass over its moves.

    A repeated closing point is dropped; a repeated or diagonal move, and
    a run that doubles back, are rejected. Every corner turns a quarter,
    so the runs alternate between horizontal and vertical and there are
    an even number of them, at least four: a closed walk needs both kinds
    of move, each in both directions.
    """
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts.pop()
    if len(pts) < 4:
        raise GeometryError("outline needs at least 4 distinct vertices")
    dirs = []
    for (px, py), (qx, qy) in zip(pts, (*pts[1:], pts[0])):
        if py == qy:
            if px == qx:
                raise GeometryError("outline repeats a vertex consecutively")
            dirs.append(0 if qx > px else 2)
        elif px == qx:
            dirs.append(1 if qy > py else 3)
        else:
            raise GeometryError(f"outline move {(px, py)} -> {(qx, qy)} is not axis-aligned")
    corners, leaving = [], []
    d_in = dirs[-1]
    for p, d in zip(pts, dirs):
        if d != d_in:  # a vertex inside a straight run is dropped
            if d == d_in ^ 2:
                raise GeometryError(f"outline doubles back at {p}")
            corners.append(p)
            leaving.append(d)
        d_in = d
    return corners, leaving


def _sweep(corners: list[Corner], dirs: list[int]) -> tuple[tuple[Rect, ...], tuple[Corner, ...]]:
    """Check that the outline through corners is simple and cut it into
    rectangles, in one sweep up its horizontal runs; also give the outline
    counter-clockwise.

    No vertex may repeat, and two horizontal runs on one line may not
    meet: sorted, each must end before the next one on its line begins.
    The sweep keeps the sorted xs of the vertical runs that cross the band
    below the current y. A horizontal run at y may meet only its own ones
    among them, those that end at its corners; any other crosses or
    touches it. A vertical run that starts or ends inside a horizontal one
    has a corner on another horizontal run of that line, and of two
    vertical runs that overlap on one line, the one that starts higher
    starts inside the other, whose x its horizontal run then meets.

    The open xs bound the pieces of the polygon in the band, in pairs. A
    piece closes only where a run at y meets it, so vertically adjacent
    pieces of equal x extent are one rectangle. The lowest-leftmost corner
    is convex and is the left end of the first run in sorted order: the
    outline is counter-clockwise when it leaves that corner to the right.
    """
    m = len(corners)
    if len(set(corners)) != m:
        raise GeometryError("outline revisits a vertex")
    # from a corner that starts a horizontal run, run i goes from a[i] to
    # b[i], and the vertical run from b[i] to a[i + 1]
    c = corners[1:] + corners[:1] if dirs[0] & 1 else corners
    a, b = c[0::2], c[1::2]
    a_next, b_prev = a[1:] + a[:1], b[-1:] + b[:-1]
    # (y, x1, x2, the verticals at x1 and x2 go up, traversed rightwards)
    runs = sorted(
        [
            (y, xa, xb, yp > y, yn > y, True) if xa < xb else (y, xb, xa, yn > y, yp > y, False)
            for (xa, y), (xb, _), (_, yp), (_, yn) in zip(a, b, b_prev, a_next)
        ]
    )
    for r, q in zip(runs, runs[1:]):
        if r[0] == q[0] and q[1] <= r[2]:
            raise GeometryError("outline self-intersects")
    open_xs: list[int] = []
    since: dict[int, int] = {}  # left x of each open piece: the y it starts at
    rects: list[Rect] = []
    for y, level in groupby(runs, _first):
        level = list(level)
        for _, x1, x2, up1, up2, _ in level:  # close the pieces below that the run meets
            lo, hi = bisect_left(open_xs, x1), bisect_right(open_xs, x2)
            if hi - lo != (not up1) + (not up2):
                raise GeometryError("outline self-intersects")
            for t in range(lo - (lo & 1), hi, 2):
                y0 = since.pop(open_xs[t], None)
                if y0 is not None:
                    rects.append(_new(Rect, ((open_xs[t], y0), (open_xs[t + 1], y))))
        for _, x1, x2, up1, up2, _ in level:
            if up1:
                insort(open_xs, x1)
            else:
                del open_xs[bisect_left(open_xs, x1)]
            if up2:
                insort(open_xs, x2)
            else:
                del open_xs[bisect_left(open_xs, x2)]
        for _, x1, x2, _, _, _ in level:  # open the pieces above that the run meets
            lo, hi = bisect_left(open_xs, x1), bisect_right(open_xs, x2)
            for t in range(lo - (lo & 1), hi, 2):
                since.setdefault(open_xs[t], y)
    rects.sort()
    if not runs[0][5]:
        corners.reverse()
    return tuple(rects), tuple(corners)


class RectilinearShape(NamedTuple):
    """A layout feature: a simple rectilinear polygon.

    Stored as sorted axis-aligned rectangles with disjoint interiors whose
    union is exactly the polygon: the pieces of the bands between
    consecutive vertex ys, with vertically adjacent pieces of equal x
    extent merged. Its outline is counter-clockwise, without collinear
    vertices; corners holds it, except for a rectangle whose outline
    starts at its lower-left corner, which stores () and whose outline
    property builds the four corners on each read.
    """

    id: int
    rects: tuple[Rect, ...]
    corners: tuple[Corner, ...]

    @classmethod
    def from_outline(cls, sid: int, points: Iterable[tuple[int, int]]) -> "RectilinearShape":
        """The shape of a simple rectilinear outline in either winding; a
        repeated closing point and collinear vertices are dropped. An
        outline that is not axis-aligned, doubles back, revisits a vertex
        or touches or crosses itself raises GeometryError, and so does an
        id that is not a non-negative int."""
        _check_id(sid)
        pts = [(x, y) for x, y in points]
        _check_integer(pts)
        return _polygon_shape(sid, pts)

    @classmethod
    def from_rect(cls, sid: int, rect: Rect) -> "RectilinearShape":
        """The shape of one rectangle with integer corners and positive
        area, built directly: the same rects and outline as from_outline
        given its four corners counter-clockwise from the lower-left one,
        without normalising or slicing an outline. The id must be a
        non-negative int."""
        _check_id(sid)
        (x1, y1), (x2, y2) = rect
        _check_integer(rect)
        if x1 >= x2 or y1 >= y2:
            raise GeometryError(f"rectangle has no area: {(x1, y1)} .. {(x2, y2)}")
        return _rect_shape(sid, x1, y1, x2, y2)

    @property
    def outline(self) -> tuple[Corner, ...]:
        if self.corners:
            return self.corners
        (((x1, y1), (x2, y2)),) = self.rects
        return ((x1, y1), (x2, y1), (x2, y2), (x1, y2))

    @property
    def bbox(self) -> Rect:
        rects = self.rects
        return rects[0] if len(rects) == 1 else bounding_box(rects)

    def __repr__(self) -> str:  # keep noise down in test failures
        return f"RectilinearShape(id={self.id}, rects={len(self.rects)})"


def _rect_shape(sid: int, x1: int, y1: int, x2: int, y2: int) -> RectilinearShape:
    """The shape of the rectangle from (x1, y1) to (x2, y2), built without
    checks: the caller has made sure the corners are integers with
    x1 < x2 and y1 < y2."""
    rect = _new(Rect, ((x1, y1), (x2, y2)))
    return _new(RectilinearShape, (sid, (rect,), ()))


def _polygon_shape(sid: int, pts: list[Corner]) -> RectilinearShape:
    """The shape of the outline through pts, built as from_outline builds
    it but without its integer check: the caller has made the
    coordinates ints. A rectangle whose outline starts at its lower-left
    corner stores no outline, as _rect_shape's does not."""
    rects, outline = _sweep(*_corners(pts))
    if len(rects) == 1 and outline[0] == rects[0].lo:
        outline = ()
    return _new(RectilinearShape, (sid, rects, outline))


def bounding_box(rects: Iterable[Rect]) -> Rect:
    """The smallest rectangle holding all of rects, found in one pass over
    their corners; the first rectangle itself when it holds the others."""
    rects = iter(rects)
    first = next(rects, None)
    if first is None:
        raise GeometryError("bounding box of nothing")
    (x1, y1), (x2, y2) = first
    for (a, b), (c, d) in rects:
        if a < x1:
            x1 = a
        if b < y1:
            y1 = b
        if c > x2:
            x2 = c
        if d > y2:
            y2 = d
    box = ((x1, y1), (x2, y2))
    return first if box == first else _new(Rect, box)


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
    """Bounding boxes by index, for neighbour search.

    pairs() lists exactly the pairs of indices whose boxes lie within a
    Chebyshev gap of each other, by one sweep along x inside horizontal
    bands as high as that gap.
    """

    def __init__(self, boxes: Sequence[Rect]):
        self._boxes = boxes

    @classmethod
    def from_shapes(cls, shapes: Sequence[RectilinearShape]) -> "SpatialIndex":
        """The shapes' bounding boxes in their order."""
        return cls([s.bbox for s in shapes])

    def pairs(self, distance: int = 0) -> list[tuple[int, int]]:
        """Every pair (a, b) with a < b whose boxes lie within Chebyshev
        gap distance of each other, each once and in ascending order.

        Band k is [k * cell, (k + 1) * cell) in y, cell being distance (1
        at gap 0), and a box starts in the band of its y1. Of two boxes
        within the gap, the one with the lower y1 reaches up to the
        other's y1, its y range raised by distance at the top, so the
        band where the other starts holds both, and only that band
        reports the pair. A band where no box starts reports nothing, so
        a box is listed only in the start bands its raised y range meets:
        each box is filed under its own start band, and a walk up the
        start bands carries on the boxes whose raised top still reaches
        the next one. A box's entries are thus at most the number of
        boxes, whatever its height. Inside a band a sweep in x1 order
        compares each box with the earlier ones whose x2 plus distance
        reaches its x1.
        """
        d, cell = distance, max(distance, 1)
        own: dict[int, list[list[int]]] = {}  # the boxes that start in each band
        for i, ((x1, y1), (x2, y2)) in enumerate(self._boxes):
            # a list: freed 5-tuples would stay on the interpreter's tuple
            # free list and add to the peak of the solve that follows
            entry = [x1, i, x2 + d, y1, y2 + d]
            starters = own.get(y1 // cell)
            if starters is None:
                own[y1 // cell] = [entry]
            else:
                starters.append(entry)
        found: list[tuple[int, int]] = []
        band: list[list[int]] = []
        for k in sorted(own):
            low = k * cell  # a box with y1 >= low has this as its first band
            # the earlier boxes whose raised top reaches this band, in order
            band = [entry for entry in band if entry[4] >= low]
            band += own[k]
            band.sort()
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


def components(n: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The connected components of the graph on 0..n-1 whose edges are
    links, each in ascending order, listed by their lowest members."""
    parent = list(range(n))
    for a, b in links:
        while parent[a] != a:  # halving the path up to each root
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[a if a > b else b] = b if a > b else a  # a root is the lowest of its class
    comps: list[list[int]] = []
    for i, p in enumerate(parent):  # p is i at a root, else a lower vertex, numbered already
        if p == i:
            parent[i] = len(comps)  # from here on, the number of i's component
            comps.append([i])
        else:
            parent[i] = p = parent[p]
            comps[p].append(i)
    return comps
