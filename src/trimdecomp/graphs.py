"""Conflict and end-cut graphs.

The layout graph has one vertex per feature segment. Conflict edges join
segments of different features that sit within the same-mask spacing rule;
each may carry the candidate end-cut of its feature pair. Stitch edges
chain the consecutive segments of one split feature. The stitch stage
reads every bounding box once, gives each feature one list of pieces
(its rects when it is not cut) split along one Point index (0 for x, 1
for y), and builds segments, stitch points and conflict edges from it.

The end-cut graph has one vertex per candidate cut, spacing edges between
cuts that are too close to print separately, and merge edges between cuts
that could fuse into one trim shape.

The graphs are built here and solved as they are: ilp.solve is the one
place that splits them into independent blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .geometry import (
    Metric,
    Rect,
    SpatialIndex,
    bounding_box,
    rectset_chebyshev_gap,
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

EdgeKey = tuple[VertexKey, VertexKey]
PairKey = tuple[int, int]


@dataclass(frozen=True)
class LayoutGraph:
    segments: dict[VertexKey, tuple[Rect, ...]]
    conflict_edges: dict[EdgeKey, EndCutCandidate | None]
    stitch_edges: dict[EdgeKey, StitchPoint]

    def vertices(self) -> list[VertexKey]:
        return sorted(self.segments)


class EndCutGraph:
    def __init__(
        self,
        candidates: Mapping[PairKey, EndCutCandidate],
        ee_edges: Iterable[tuple[PairKey, PairKey]],
        merge_edges: Iterable[tuple[PairKey, PairKey]],
    ):
        self.candidates = dict(candidates)
        self.ee_edges = frozenset(ee_edges)
        self.merge_edges = frozenset(merge_edges)


def conflict_pairs(
    doc: LayoutDocument, candidates: Iterable[PairKey], metric: Metric = Metric.CHEBYSHEV
) -> list[PairKey]:
    """Feature pairs within the same-mask spacing rule of each other.

    candidates are ascending pairs (a, b), a < b, that include every pair
    whose bounding boxes lie within dis_m of each other, such as
    SpatialIndex.pairs(d) lists for any d >= dis_m; each is checked exactly.
    """
    rects = {s.id: s.rects for s in doc.shapes}
    d = doc.params.dis_m
    return [(a, b) for a, b in candidates if rectset_within(rects[a], rects[b], d, metric)]


def build_layout_graph(
    doc: LayoutDocument,
    pairs: Sequence[PairKey],
    cuts: Mapping[PairKey, EndCutCandidate],
) -> LayoutGraph:
    segments = {(s.id, 0): s.rects for s in doc.shapes}
    conflict_edges: dict[EdgeKey, EndCutCandidate | None] = {
        ((a, 0), (b, 0)): cuts.get((a, b)) for a, b in pairs
    }
    return LayoutGraph(segments=segments, conflict_edges=conflict_edges, stitch_edges={})


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
    k of a Point (0 for x, 1 for y), or None when the material just before
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
    cuts: Mapping[PairKey, EndCutCandidate],
    metric: Metric = Metric.CHEBYSHEV,
) -> LayoutGraph:
    """The stitched layout graph: features split into stitched segments
    away from all conflict zones, in place of build_layout_graph's.

    A feature is cut only where the projections of its conflicting
    neighbours, widened by the spacing rule, leave an uncovered span of at
    least max(1, dis_m // 2) along its long axis (60 when dis_m is 121),
    and only where the feature's cross-section on each side of the cut is
    one interval, so every segment stays in one piece; the stitch point is
    the middle of that cross-section.
    Widening keeps every conflicting pair incident to exactly one segment
    of each feature, so splitting can never add a conflict the unsplit
    layout did not have.

    pairs are the conflicting feature pairs (a, b), a < b, in ascending
    order, as conflict_pairs lists them, and cuts the candidate end-cut of
    each pair that has one.
    """
    d = doc.params.dis_m
    margin = max(1, d // 2)
    boxes = {s.id: s.bbox for s in doc.shapes}

    neighbours: dict[int, set[int]] = {}
    for a, b in pairs:
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)

    pieces_of: dict[int, list[tuple[Rect, ...]]] = {}
    stitch_edges: dict[EdgeKey, StitchPoint] = {}
    for shape in doc.shapes:
        fid = shape.id
        pieces = [shape.rects]
        near = neighbours.get(fid)
        if near:
            bb = boxes[fid]
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
                pieces = split_feature_rects(shape.rects, [start, *coords, end], k)
                for i, (coord, cross) in enumerate(zip(coords, crosses)):
                    x, y = (coord, cross) if k == 0 else (cross, coord)
                    stitch_edges[((fid, i), (fid, i + 1))] = StitchPoint(fid, x, y, "vh"[k])
        pieces_of[fid] = pieces
    segments = {(f, i): piece for f, pieces in pieces_of.items() for i, piece in enumerate(pieces)}

    conflict_edges: dict[EdgeKey, EndCutCandidate | None] = {}
    for f, h in pairs:
        hits = [
            ((f, i), (h, j))
            for i, a in enumerate(pieces_of[f])
            for j, b in enumerate(pieces_of[h])
            if rectset_within(a, b, d, metric)
        ]
        for e in hits:
            conflict_edges[e] = None
        cand = cuts.get((f, h))
        if cand is not None and hits:
            cbox = [bounding_box(cand.rects)]
            best = min(
                hits,
                key=lambda e: (
                    rectset_chebyshev_gap(segments[e[0]], cbox)
                    + rectset_chebyshev_gap(segments[e[1]], cbox),
                    e,
                ),
            )
            conflict_edges[best] = cand

    return LayoutGraph(
        segments=segments, conflict_edges=conflict_edges, stitch_edges=stitch_edges
    )


def build_end_cut_graph(
    cuts: Mapping[PairKey, EndCutCandidate],
    params: DecompositionParams,
    metric: Metric = Metric.CHEBYSHEV,
) -> EndCutGraph:
    """Spacing and merge relations between candidate cuts."""
    order = sorted(cuts)
    d = params.dis_c
    rects = [cuts[p].rects for p in order]
    index = SpatialIndex({i: bounding_box(r) for i, r in enumerate(rects)}, d)
    ee: set[tuple[PairKey, PairKey]] = set()
    merges: set[tuple[PairKey, PairKey]] = set()
    for i, j in index.pairs(d):
        ra, rb = rects[i], rects[j]
        if not rectset_within(ra, rb, d, metric):
            continue
        if mergeable_pair(ra, rb, params):
            merges.add((order[i], order[j]))
        else:
            ee.add((order[i], order[j]))
    return EndCutGraph(cuts, ee, merges)


_CUT_LABEL = ' [label="cut"]'


@_collector_paused
def layout_graph_dot(g: LayoutGraph) -> str:
    verts = g.vertices()
    label = {v: f'"{v[0]}/{v[1]}"' for v in verts}
    return "\n".join(
        [
            "graph layout {",
            *[f"  {label[v]};" for v in verts],
            *[
                f"  {label[u]} -- {label[v]}{'' if cand is None else _CUT_LABEL};"
                for (u, v), cand in sorted(g.conflict_edges.items())
            ],
            *[f"  {label[u]} -- {label[v]} [style=dashed];" for u, v in sorted(g.stitch_edges)],
            "}",
            "",
        ]
    )


@_collector_paused
def end_cut_graph_dot(ecg: EndCutGraph) -> str:
    cuts = sorted(ecg.candidates)
    label = {p: f'"{p[0]}-{p[1]}"' for p in cuts}
    return "\n".join(
        [
            "graph endcuts {",
            *[f"  {label[p]};" for p in cuts],
            *[f"  {label[a]} -- {label[b]};" for a, b in sorted(ecg.ee_edges)],
            *[f"  {label[a]} -- {label[b]} [style=dashed];" for a, b in sorted(ecg.merge_edges)],
            "}",
            "",
        ]
    )
