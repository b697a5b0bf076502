"""Conflict and end-cut graphs, on integer ranks.

The document orders the shapes, and a shape is its rank there; the
stages here take and return rank pairs. A segment is its rank in
(feature id, k) order, a cut its rank in pair order, and each kind of
edge is a tuple of rank tuples in sorted order. The model holds these
graphs, and the writers turn a rank into its key where they print it.

The layout graph has one vertex per feature segment. Conflict edges join
segments of different features that sit within the same-mask spacing
rule; each is (a, b, k), k being the rank of its feature pair's
candidate end-cut, or -1. Stitch edges chain the consecutive segments of
one split feature, each beside its stitch point. The stitch stage reads
the bounding box of each feature with a neighbour once, gives each
feature one list of pieces (its rects when it is not cut) split along
one corner index (0 for x, 1 for y), and builds segments, stitch points
and conflict edges from it.

The end-cut graph has one vertex per candidate cut, spacing edges between
cuts that are too close to print separately, and merge edges between cuts
that could fuse into one trim shape.

The graphs are built here and solved as they are: ilp.solve is the one
place that splits them into independent blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .geometry import (
    Metric,
    OverlappingInputShapes,
    Rect,
    SpatialIndex,
    bounding_box,
    rectset_within,
)
from .layout_io import (
    DecompositionParams,
    LayoutDocument,
    StitchPoint,
    VertexKey,
    _collector_paused,
    split_feature_rects,
)
from .endcut import EndCutCandidate, mergeable_pair

PairKey = tuple[int, int]


@dataclass(frozen=True)
class LayoutGraph:
    # by segment rank: each segment's (feature id, k) key, sorted, and its rects
    segments: tuple[VertexKey, ...]
    pieces: tuple[tuple[Rect, ...], ...]
    # sorted (a, b, cut rank or -1) on segment ranks, a < b
    conflict_edges: tuple[tuple[int, int, int], ...]
    # sorted (a, b) on segment ranks, each beside its stitch point
    stitch_edges: tuple[tuple[int, int], ...]
    stitch_points: tuple[StitchPoint, ...]


@dataclass(frozen=True)
class EndCutGraph:
    # the candidates in pair order: a cut's rank is its place here
    candidates: tuple[EndCutCandidate, ...]
    # sorted (ka, kb) on cut ranks, ka < kb
    ee_edges: tuple[tuple[int, int], ...]
    merge_edges: tuple[tuple[int, int], ...]


def conflict_pairs(
    doc: LayoutDocument, candidates: Iterable[PairKey], metric: Metric = Metric.CHEBYSHEV
) -> list[PairKey]:
    """Shape rank pairs within the same-mask spacing rule of each other.

    candidates are ascending rank pairs (a, b), a < b, that include every
    pair whose bounding boxes lie within dis_m of each other, such as
    SpatialIndex.pairs(d) lists for any d >= dis_m; each is checked exactly.
    Two shapes that overlap are at gap 0, so they are among the
    candidates, and the same pass over their rects raises
    OverlappingInputShapes for the first such pair, the lowest. A pair of
    two rectangles takes one gap and one overlap test in the loop body,
    a pair with a polygon the same test on every pair of their rects.
    """
    shapes = doc.shapes
    d = doc.params.dis_m
    dd = d * d
    euclidean = metric is Metric.EUCLIDEAN
    found: list[PairKey] = []
    for pair in candidates:
        rects_a, rects_b = shapes[pair[0]].rects, shapes[pair[1]].rects
        if len(rects_a) == 1 and len(rects_b) == 1:
            (ax1, ay1), (ax2, ay2) = rects_a[0]
            (bx1, by1), (bx2, by2) = rects_b[0]
            gx = bx1 - ax2 if bx1 > ax2 else ax1 - bx2 if ax1 > bx2 else 0
            gy = by1 - ay2 if by1 > ay2 else ay1 - by2 if ay1 > by2 else 0
            if (gx * gx + gy * gy <= dd) if euclidean else (gx <= d and gy <= d):
                if not (gx or gy) and ax1 < bx2 and bx1 < ax2 and ay1 < by2 and by1 < ay2:
                    a, b = shapes[pair[0]].id, shapes[pair[1]].id
                    raise OverlappingInputShapes(f"features {a} and {b} overlap")
                found.append(pair)
            continue
        within = False
        for (ax1, ay1), (ax2, ay2) in rects_a:
            for (bx1, by1), (bx2, by2) in rects_b:
                gx = bx1 - ax2 if bx1 > ax2 else ax1 - bx2 if ax1 > bx2 else 0
                gy = by1 - ay2 if by1 > ay2 else ay1 - by2 if ay1 > by2 else 0
                if (gx * gx + gy * gy <= dd) if euclidean else (gx <= d and gy <= d):
                    within = True
                    if not (gx or gy) and ax1 < bx2 and bx1 < ax2 and ay1 < by2 and by1 < ay2:
                        a, b = shapes[pair[0]].id, shapes[pair[1]].id
                        raise OverlappingInputShapes(f"features {a} and {b} overlap")
        if within:
            found.append(pair)
    return found


def _with_cuts(
    doc: LayoutDocument, pairs: Iterable[PairKey], cuts: Iterable[EndCutCandidate]
) -> list[tuple[int, int, int]]:
    """Each shape rank pair (a, b) as (a, b, k), k its cut's rank in cuts."""
    shapes, cut_rank = doc.shapes, {c.pair: k for k, c in enumerate(cuts)}
    return [(a, b, cut_rank.get((shapes[a].id, shapes[b].id), -1)) for a, b in pairs]


def build_layout_graph(
    doc: LayoutDocument,
    pairs: Sequence[PairKey],
    cuts: Sequence[EndCutCandidate],
) -> LayoutGraph:
    """One segment per feature; pairs and cuts as generate_stitch_candidates
    takes them."""
    return LayoutGraph(
        segments=tuple([(s.id, 0) for s in doc.shapes]),
        pieces=tuple([s.rects for s in doc.shapes]),
        conflict_edges=tuple(_with_cuts(doc, pairs, cuts)),
        stitch_edges=(),
        stitch_points=(),
    )


def _merge_intervals(ivals: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[list[int]] = []
    for lo, hi in sorted(ivals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def _cut_middle(rects: Sequence[Rect], coord: int, k: int) -> int | None:
    """The middle of a feature's cross-section at a cut across coordinate
    k of a corner (0 for x, 1 for y), or None when the material just before
    or just after the cut is not one interval: a cut there would leave a
    segment in two parts."""
    before: list[tuple[int, int]] = []
    after: list[tuple[int, int]] = []
    for lo, hi in rects:
        cross = (lo[1 - k], hi[1 - k])
        if lo[k] < coord <= hi[k]:
            before.append(cross)
        if lo[k] <= coord < hi[k]:
            after.append(cross)
    whole = _merge_intervals(before + after)
    if len(_merge_intervals(before)) == len(_merge_intervals(after)) == len(whole) == 1:
        return (whole[0][0] + whole[0][1]) // 2
    return None


def generate_stitch_candidates(
    doc: LayoutDocument,
    pairs: Sequence[PairKey],
    cuts: Sequence[EndCutCandidate],
    metric: Metric = Metric.CHEBYSHEV,
) -> LayoutGraph:
    """The stitched layout graph: features split into stitched segments
    away from all conflict zones, in place of build_layout_graph's.

    A feature is cut only where the projections of its conflicting
    neighbours, widened by the spacing rule, leave an uncovered span of at
    least max(2, dis_m // 2) along its long axis (60 when dis_m is 121),
    and only where the feature's cross-section on each side of the cut is
    one interval, so every segment stays in one piece; the stitch point is
    the middle of that cross-section.
    Widening, with the cut strictly inside the span, keeps every
    conflicting pair incident to exactly one segment of each feature, so
    splitting never adds a conflict the unsplit layout did not have, and
    each pair's cut sits on the one edge the pair becomes.

    pairs are the conflicting shape rank pairs (a, b), a < b, in ascending
    order, as conflict_pairs lists them, and cuts the candidate end-cut of
    each pair that has one, in the same order, each carrying its feature
    id pair.
    """
    d = doc.params.dis_m
    margin = max(2, d // 2)
    shapes = doc.shapes

    neighbours: dict[int, list[int]] = {}
    for a, b in pairs:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    boxes = {r: shapes[r].bbox for r in neighbours}  # by rank, each read once

    segments: list[VertexKey] = []
    pieces: list[tuple[Rect, ...]] = []
    ranks: list[range] = []  # by shape rank: the ranks of its segments
    stitch_edges: list[tuple[int, int]] = []
    stitch_points: list[StitchPoint] = []
    for r, shape in enumerate(shapes):
        fid, base = shape.id, len(pieces)
        parts = [shape.rects]
        near = neighbours.get(r)
        if near:
            bb = boxes[r]
            k = 0 if bb.width >= bb.height else 1  # the long axis: x, unless taller
            start, end = bb.lo[k], bb.hi[k]
            covered = []
            for nid in near:
                nlo, nhi = boxes[nid]
                lo, hi = max(nlo[k] - d, start), min(nhi[k] + d, end)
                if lo < hi:
                    covered.append((lo, hi))
            coords: list[int] = []
            crosses: list[int] = []
            pos = start
            for lo, hi in _merge_intervals(covered) + [(end, end)]:
                if lo - pos >= margin:
                    coord = (pos + lo) // 2
                    cross = _cut_middle(shape.rects, coord, k)
                    if cross is not None:
                        coords.append(coord)
                        crosses.append(cross)
                pos = max(pos, hi)
            if coords:
                parts = split_feature_rects(shape.rects, [start, *coords, end], k)
                for i, (coord, cross) in enumerate(zip(coords, crosses), base):
                    x, y = (coord, cross) if k == 0 else (cross, coord)
                    stitch_edges.append((i, i + 1))
                    stitch_points.append(StitchPoint(fid, x, y, "vh"[k]))
        ranks.append(range(base, base + len(parts)))
        segments += [(fid, i) for i in range(len(parts))]
        pieces += parts

    conflict_edges: list[tuple[int, int, int]] = []
    for f, h, cut in _with_cuts(doc, pairs, cuts):
        rf, rh = ranks[f], ranks[h]
        if len(rf) == len(rh) == 1:
            hits = [(rf[0], rh[0])]  # the pair passed this very test as whole features
        else:
            hits = [
                (a, b) for a in rf for b in rh if rectset_within(pieces[a], pieces[b], d, metric)
            ]
        # widening leaves each pair one edge, which carries the pair's cut
        if len(hits) != 1:
            a, b = shapes[f].id, shapes[h].id
            raise AssertionError(f"features {a} and {b} meet at {len(hits)} segment pairs")
        conflict_edges.append((*hits[0], cut))
    conflict_edges.sort()

    return LayoutGraph(*map(tuple, (segments, pieces, conflict_edges, stitch_edges, stitch_points)))


def build_end_cut_graph(
    cuts: tuple[EndCutCandidate, ...],
    params: DecompositionParams,
    metric: Metric = Metric.CHEBYSHEV,
) -> EndCutGraph:
    """Spacing and merge relations between candidate cuts, on their
    ranks in the order of cuts, their pair order."""
    d = params.dis_c
    rects = [[b.rect for b in c.boxes] for c in cuts]
    index = SpatialIndex([r[0] if len(r) == 1 else bounding_box(r) for r in rects])
    ee: list[tuple[int, int]] = []
    merges: list[tuple[int, int]] = []
    # ascending rank pairs, in ascending order
    for i, j in index.pairs(d):
        ra, rb = rects[i], rects[j]
        if rectset_within(ra, rb, d, metric):
            (merges if mergeable_pair(ra, rb, params) else ee).append((i, j))
    return EndCutGraph(cuts, tuple(ee), tuple(merges))


_CUT_LABEL = ' [label="cut"]'


@_collector_paused
def layout_graph_dot(g: LayoutGraph) -> str:
    label = [f'"{f}/{k}"' for f, k in g.segments]
    return "\n".join(
        [
            "graph layout {",
            *[f"  {v};" for v in label],
            *[
                f"  {label[a]} -- {label[b]}{'' if k < 0 else _CUT_LABEL};"
                for a, b, k in g.conflict_edges
            ],
            *[f"  {label[a]} -- {label[b]} [style=dashed];" for a, b in g.stitch_edges],
            "}",
            "",
        ]
    )


@_collector_paused
def end_cut_graph_dot(ecg: EndCutGraph) -> str:
    label = [f'"{c.pair[0]}-{c.pair[1]}"' for c in ecg.candidates]
    return "\n".join(
        [
            "graph endcuts {",
            *[f"  {v};" for v in label],
            *[f"  {label[a]} -- {label[b]};" for a, b in ecg.ee_edges],
            *[f"  {label[a]} -- {label[b]} [style=dashed];" for a, b in ecg.merge_edges],
            "}",
            "",
        ]
    )
