"""End-cut candidate generation.

Two features that sit closer than the same-mask spacing rule can still share
a mask if the trim exposure removes the sliver of material between them. A
candidate end-cut for a feature pair is a set of rectangular boxes filling
the gap between facing edges or between nearby convex corners. Every pair
of boundary runs of the two features that can face each other is
examined, read from the corners of two rectangles and from the outlines
otherwise; the surviving boxes are deduplicated and thinned so
overlapping alternatives collapse to the cheapest usable set.

EndCutBox and EndCutCandidate are named tuples like the geometry records,
and this module builds them with tuple.__new__, as it fixes their arity
itself. The neighbours of a feature come from SpatialIndex.pairs, whose
band sweep lists a box only in the bands where some box starts, so a
tall box costs no more than a short one. The touching pairs of printed
cut rectangles come from no sweep: merged_cut_rects reads them from the
end-cut graph's merge edges, which already relate every pair of cuts
within dis_c.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Sequence

from .geometry import (
    Corner,
    Rect,
    RectilinearShape,
    _new,
    interval_gap,
    rects_closed_intersect,
    rects_interior_intersect,
)
from .layout_io import DecompositionParams, LayoutDocument


class BoxKind(enum.Enum):
    EDGE_EDGE = "edge_edge"
    CORNER_CORNER = "corner_corner"


class EndCutBox(NamedTuple):
    """One rectangle of a candidate cut, and whether it fills the gap
    between two facing runs or the pocket between two corners."""

    rect: Rect
    kind: BoxKind

    def sort_key(self) -> tuple:
        return (self.rect, self.kind.value)


class EndCutCandidate(NamedTuple):
    pair: tuple[int, int]
    boxes: tuple[EndCutBox, ...]


# the runs (pos, lo, hi) of an outline, grouped by outward normal: down,
# right, up and left
Runs = tuple[list[tuple[int, int, int]], ...]
# facing sides (lo, hi, ov_lo, ov_hi, axis), as generate_end_cut describes them
Sides = Sequence[tuple[int, int, int, int, str]]


def _outline_runs(outline: Sequence[Corner]) -> Runs:
    """The runs of a counter-clockwise outline, grouped by outward normal,
    the direction of travel turned clockwise."""
    runs: Runs = ([], [], [], [])
    down, right, up, left = runs
    for (px, py), (qx, qy) in zip(outline, (*outline[1:], outline[0])):
        if py == qy:
            if px < qx:
                down.append((py, px, qx))
            else:
                up.append((py, qx, px))
        elif py < qy:
            right.append((px, py, qy))
        else:
            left.append((px, qy, py))
    return runs


def _facing_sides(runs1: Runs, runs2: Runs) -> Sides:
    """The facing sides of two features, read from their grouped runs.

    The bottom, right, top and left runs of the first are paired with the
    top, left, bottom and right runs of the second, as generate_end_cut
    pairs the sides of two rectangles, and a pair faces only when a gap
    lies between its two runs along their normal. Two runs apart on both
    axes face here across each gap, and resolve_box_overlaps collapses
    the two equal corner boxes that come of it.
    """
    down1, right1, up1, left1 = runs1
    down2, right2, up2, left2 = runs2
    sides = []
    # the first feature's runs, the second's facing runs, the axis both
    # lie along, and whether the first's run is the lower across the gap
    for group1, group2, axis, first_low in (
        (down1, up2, "x", False),
        (right1, left2, "y", True),
        (up1, down2, "x", True),
        (left1, right2, "y", False),
    ):
        for pos1, lo1, hi1 in group1:
            for pos2, lo2, hi2 in group2:
                lo, hi = (pos1, pos2) if first_low else (pos2, pos1)
                if lo < hi:
                    sides.append((lo, hi, max(lo1, lo2), min(hi1, hi2), axis))
    return sides


def resolve_box_overlaps(raw: Sequence[EndCutBox]) -> tuple[EndCutBox, ...]:
    """Thin a pile of candidate boxes for one feature pair.

    Identical rectangles collapse (an edge-to-edge box outranks a corner
    one). Corner boxes that touch an edge-to-edge box are dropped as
    redundant, and boxes that still share interior area, directly or
    through a chain of such overlaps, collapse to the smallest of them.
    """
    by_rect: dict[Rect, EndCutBox] = {}
    for box in sorted(raw, key=EndCutBox.sort_key):
        cur = by_rect.get(box.rect)
        if cur is None or (
            cur.kind is BoxKind.CORNER_CORNER and box.kind is BoxKind.EDGE_EDGE
        ):
            by_rect[box.rect] = box
    ee = [b.rect for b in by_rect.values() if b.kind is BoxKind.EDGE_EDGE]
    boxes = [
        b
        for b in by_rect.values()
        if b.kind is BoxKind.EDGE_EDGE
        or not any(rects_closed_intersect(b.rect, e) for e in ee)
    ]
    n = len(boxes)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if rects_interior_intersect(boxes[i].rect, boxes[j].rect):
                parent[find(i)] = find(j)
    clusters: dict[int, list[EndCutBox]] = {}
    for i, box in enumerate(boxes):
        clusters.setdefault(find(i), []).append(box)
    keep = [min(c, key=lambda b: (b.rect.area, b.sort_key())) for c in clusters.values()]
    return tuple(sorted(keep, key=EndCutBox.sort_key))


def generate_end_cut(
    s1: RectilinearShape,
    s2: RectilinearShape,
    params: DecompositionParams,
    material: Sequence[Rect],
) -> EndCutCandidate | None:
    """The cut candidate of one feature pair, or None when no box survives.

    Only edges with opposite outward normals are paired, the only ones
    that can face each other. A perpendicular edge pair adds nothing: its
    box has a corner of one feature at a corner, and if that corner is
    concave, feature material lies inside the box, while if it is convex,
    a facing parallel pair yields the same corner box. Two rectangles have
    four such pairs, and the one box they can give comes straight from
    their corners, in one call. A pair with a polygon groups the runs of
    both outlines on each call and reads its facing runs from them. A box
    is kept only when none of the material rects has area inside it, so
    material must hold the rects of s1 and of every feature whose
    bounding box lies within max(h_high, w_high) of s1's. No other feature
    reaches into a box: an edge-to-edge box lies within its gap (at most
    h_high) of an edge of s1, and a corner box within max(w_high, h_high)
    of a corner of s1.

    Each facing pair becomes a side (lo, hi, ov_lo, ov_hi, axis): the two
    edges lie on the lines lo < hi across the gap, and ov_lo..ov_hi is the
    overlap of their spans along axis, the axis they lie on. It is empty
    (ov_hi < ov_lo) when the spans are disjoint, and a single point when
    they only meet. One loop applies the size windows and the material
    test to every side on plain integers, and builds records only for the
    boxes it keeps.
    """
    r1, r2 = s1.rects, s2.rects
    sides: Sides
    if len(r1) == 1 and len(r2) == 1:
        # Two rectangles face at most once: r1's bottom against r2's top,
        # its top against r2's bottom, its right against r2's left or its
        # left against r2's right, in that order. Apart on both axes, they
        # face across each gap, and both sides give the one corner pocket
        # between their nearest corners; only the first is read, so the
        # pair needs no collapse. The spans' overlap is taken with
        # conditional expressions, which cost no call, unlike max and min.
        (ax1, ay1), (ax2, ay2) = r1[0]
        (bx1, by1), (bx2, by2) = r2[0]
        if by2 < ay1 or ay2 < by1:
            lo, hi = (by2, ay1) if by2 < ay1 else (ay2, by1)
            sides = ((lo, hi, ax1 if ax1 > bx1 else bx1, ax2 if ax2 < bx2 else bx2, "x"),)
        elif ax2 < bx1 or bx2 < ax1:
            lo, hi = (ax2, bx1) if ax2 < bx1 else (bx2, ax1)
            sides = ((lo, hi, ay1 if ay1 > by1 else by1, ay2 if ay2 < by2 else by2, "y"),)
        else:
            return None  # they touch or overlap
    else:
        sides = _facing_sides(_outline_runs(s1.outline), _outline_runs(s2.outline))
    p = params
    raw = []
    for lo, hi, ov_lo, ov_hi, axis in sides:
        if ov_hi > ov_lo:
            # spans overlap: the gap strip between two facing edge runs,
            # w along the run, h across the gap
            kind = BoxKind.EDGE_EDGE
            w, h = ov_hi - ov_lo, hi - lo
            if w > p.w_th:
                continue  # a cut cannot repair a facing run longer than the hotspot limit
        elif ov_hi < ov_lo:
            # spans disjoint: the diagonal pocket between the two nearest
            # corners, whose w and h are its width and height as drawn
            kind = BoxKind.CORNER_CORNER
            ov_lo, ov_hi = ov_hi, ov_lo
            w, h = (hi - lo, ov_hi - ov_lo) if axis == "y" else (ov_hi - ov_lo, hi - lo)
        else:
            continue  # the spans only meet at a point
        if not (p.w_low <= w <= p.w_high and p.h_low <= h <= p.h_high):
            continue
        x1, y1, x2, y2 = (lo, ov_lo, hi, ov_hi) if axis == "y" else (ov_lo, lo, ov_hi, hi)
        # usable only when no feature material lies inside; touching is fine
        for (mx1, my1), (mx2, my2) in material:
            if x1 < mx2 and mx1 < x2 and y1 < my2 and my1 < y2:
                break
        else:
            rect = _new(Rect, ((x1, y1), (x2, y2)))
            raw.append(_new(EndCutBox, (rect, kind)))
    if not raw:
        return None
    pair = (s1.id, s2.id) if s1.id < s2.id else (s2.id, s1.id)
    # a lone box has nothing to collapse with
    boxes = (raw[0],) if len(raw) == 1 else resolve_box_overlaps(raw)
    return _new(EndCutCandidate, (pair, boxes))


def generate_all_end_cuts(
    doc: LayoutDocument,
    pairs: Iterable[tuple[int, int]],
    near_pairs: Iterable[tuple[int, int]],
) -> tuple[EndCutCandidate, ...]:
    """The cut candidates of ascending shape rank pairs, in pair order:
    a cut's rank is its place here, and each carries its feature id pair.

    near_pairs must include every rank pair of shapes whose bounding boxes
    lie within max(h_high, w_high) of each other, as SpatialIndex.pairs(d)
    lists for any d at least that; the boxes of a pair are checked against
    a and its neighbours there. A pair costs one call of generate_end_cut.
    """
    shapes, params = doc.shapes, doc.params
    near: list[list[int]] = [[] for _ in shapes]  # by rank
    for a, b in near_pairs:
        near[a].append(b)
        near[b].append(a)
    cuts: list[EndCutCandidate] = []
    last = None
    material: list[Rect] = []
    for a, b in pairs:
        if a != last:
            last = a
            material = list(shapes[a].rects)
            for n in near[a]:
                material.extend(shapes[n].rects)
        cand = generate_end_cut(shapes[a], shapes[b], params, material)
        if cand is not None:
            cuts.append(cand)
    return tuple(cuts)


def merge_union(a: Rect, b: Rect, params: DecompositionParams) -> Rect | None:
    """Union of two cut rectangles when they can print as one trim shape:
    one contains the other, or they are aligned and touch or overlap and
    the combined run stays within the width cap."""
    (ax1, ay1), (ax2, ay2) = a
    (bx1, by1), (bx2, by2) = b
    if ax1 <= bx1 and ay1 <= by1 and ax2 >= bx2 and ay2 >= by2:
        return a
    if bx1 <= ax1 and by1 <= ay1 and bx2 >= ax2 and by2 >= ay2:
        return b
    if ay1 == by1 and ay2 == by2:
        if interval_gap(ax1, ax2, bx1, bx2) == 0:
            u = Rect.of(min(ax1, bx1), ay1, max(ax2, bx2), ay2)
            return u if u.width <= params.w_high else None
    if ax1 == bx1 and ax2 == bx2:
        if interval_gap(ay1, ay2, by1, by2) == 0:
            u = Rect.of(ax1, min(ay1, by1), ax2, max(ay2, by2))
            return u if u.height <= params.w_high else None
    return None


def mergeable_pair(a: Sequence[Rect], b: Sequence[Rect], params: DecompositionParams) -> bool:
    """Whether a rectangle of one cut can fuse with one of the other; plain
    loops, as a generator costs more than the test for a lone pair."""
    for ra in a:
        for rb in b:
            if merge_union(ra, rb, params) is not None:
                return True
    return False


def merged_cut_rects(
    selected: Sequence[EndCutCandidate],
    params: DecompositionParams,
    links: Iterable[tuple[int, int]],
) -> tuple[Rect, ...]:
    """Final trim-mask geometry for the selected cuts, with touching
    aligned rectangles fused so each printed shape appears once.

    links are the position pairs of selected that the end-cut graph joins
    by a merge edge. Two rectangles can fuse only if they touch, and two
    selected cuts with rectangles that touch lie within dis_c of each
    other, so a merge edge joins them: a spacing edge would have kept one
    of them out. The touching pairs are thus found among the boxes of one
    cut and of linked cuts, with no search over the others.

    Each round fuses every rectangle into the lowest-indexed output
    rectangle that accepts it, and rounds repeat until nothing fuses.
    An output rectangle is exactly the union of the rectangles fused into
    it, so two outputs touch just when rectangles fused into them touch:
    a round's touching pairs are the last round's, mapped to their
    outputs. The only candidates for a rectangle are the outputs that
    hold the earlier ones it touches. A rectangle that touches no earlier
    one opens its own output, so a round with no touching pair, or one in
    which nothing fused, leaves the sorted rectangles as they are and
    ends the merge.
    """
    boxes = [[b.rect for b in c.boxes] for c in selected]
    rects = _in_order([r for own in boxes for r in own])
    near = [(own, own) for own in boxes if len(own) > 1]
    near += [(boxes[i], boxes[j]) for i, j in links]
    touching = [
        (ra, rb)
        for rects_a, rects_b in near
        for ra in rects_a
        for rb in rects_b
        if ra != rb and rects_closed_intersect(ra, rb)
    ]
    pairs: set[tuple[int, int]] = set()  # ascending index pairs of touching rects
    if touching:
        rank = {r: i for i, r in enumerate(rects)}
        for ra, rb in touching:
            a, b = rank[ra], rank[rb]
            pairs.add((a, b) if a < b else (b, a))
    while pairs:
        earlier: list[list[int]] = [[] for _ in rects]
        for i, j in pairs:
            earlier[j].append(i)
        out: list[Rect] = []
        home: list[int] = []  # the output index each rectangle went into
        fused = False
        for r, touching in zip(rects, earlier):
            for k in sorted({home[i] for i in touching}) if touching else ():
                u = merge_union(out[k], r, params)
                if u is not None:
                    out[k] = u
                    home.append(k)
                    fused = True
                    break
            else:
                home.append(len(out))
                out.append(r)
        if not fused:
            break
        rects = _in_order(out)
        rank = {r: i for i, r in enumerate(rects)}
        to = [rank[out[k]] for k in home]  # each rectangle's output, by new index
        pairs = {(a, b) if a < b else (b, a) for i, j in pairs if (a := to[i]) != (b := to[j])}
    return tuple(rects)


def _in_order(rects: Iterable[Rect]) -> list[Rect]:
    """The distinct rects in ascending order, sorted on each one's plain
    (x1, y1, x2, y2): ints compare faster than nested pairs."""
    by_key = {r[0] + r[1]: r for r in rects}
    return [by_key[k] for k in sorted(by_key)]
