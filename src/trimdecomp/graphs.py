"""Conflict and end-cut graphs.

The layout graph has one vertex per feature segment. Conflict edges join
segments of different features that sit within the same-mask spacing rule;
each may carry the candidate end-cut of its feature pair. Stitch edges
chain the consecutive segments of one split feature.

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
    shapes_within,
)
from .layout_io import (
    DecompositionParams,
    LayoutDocument,
    StitchPoint,
    VertexKey,
    split_feature_rects,
)
from .endcut import EndCutCandidate, mergeable_pair

EdgeKey = tuple[VertexKey, VertexKey]
PairKey = tuple[int, int]


def edge_key(u: VertexKey, v: VertexKey) -> EdgeKey:
    return (u, v) if u <= v else (v, u)


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
    doc: LayoutDocument, index: SpatialIndex, metric: Metric = Metric.CHEBYSHEV
) -> list[PairKey]:
    """Feature pairs within the same-mask spacing rule of each other."""
    by_id = {s.id: s for s in doc.shapes}
    d = doc.params.dis_m
    pairs: set[PairKey] = set()
    for s in doc.shapes:
        for oid in index.query(s.bbox, d):
            if oid <= s.id:
                continue
            if shapes_within(s, by_id[oid], d, metric):
                pairs.add((s.id, oid))
    return sorted(pairs)


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


def generate_stitch_candidates(
    doc: LayoutDocument,
    g: LayoutGraph,
    margin: int | None = None,
    metric: Metric = Metric.CHEBYSHEV,
) -> LayoutGraph:
    """Split features into stitched segments away from all conflict zones.

    A feature is cut only where the projections of its conflicting
    neighbours, widened by the spacing rule, leave an uncovered span of at
    least the margin along its long axis. Widening keeps every conflicting
    pair incident to exactly one segment of each feature, so splitting can
    never add a conflict the unsplit layout did not have.
    """
    params = doc.params
    d = params.dis_m
    if margin is None:
        margin = max(1, d // 2)
    by_id = {s.id: s for s in doc.shapes}

    neighbours: dict[int, set[int]] = {}
    for (u, v) in g.conflict_edges:
        neighbours.setdefault(u[0], set()).add(v[0])
        neighbours.setdefault(v[0], set()).add(u[0])

    segments: dict[VertexKey, tuple[Rect, ...]] = {}
    stitch_edges: dict[EdgeKey, StitchPoint] = {}
    seg_count: dict[int, int] = {}

    for shape in doc.shapes:
        fid = shape.id
        near = neighbours.get(fid)
        if not near:
            segments[(fid, 0)] = shape.rects
            seg_count[fid] = 1
            continue
        bb = shape.bbox
        axis = "x" if bb.width >= bb.height else "y"
        span = (bb.lo.x, bb.hi.x) if axis == "x" else (bb.lo.y, bb.hi.y)
        covered = []
        for nid in sorted(near):
            nb = by_id[nid].bbox
            lo, hi = (nb.lo.x, nb.hi.x) if axis == "x" else (nb.lo.y, nb.hi.y)
            lo, hi = max(lo - d, span[0]), min(hi + d, span[1])
            if lo < hi:
                covered.append((lo, hi))
        cuts: list[int] = []
        pos = span[0]
        for lo, hi in _merge_intervals(covered) + [(span[1], span[1])]:
            if lo - pos >= margin:
                cuts.append((pos + lo) // 2)
            pos = max(pos, hi)
        if not cuts:
            segments[(fid, 0)] = shape.rects
            seg_count[fid] = 1
            continue
        pieces = split_feature_rects(shape, cuts, axis)
        seg_count[fid] = len(pieces)
        for k, piece in enumerate(pieces):
            segments[(fid, k)] = piece
        for k, coord in enumerate(cuts):
            if axis == "x":
                spanning = [r for r in shape.rects if r.lo.x <= coord <= r.hi.x]
                cross = (
                    min(r.lo.y for r in spanning) + max(r.hi.y for r in spanning)
                ) // 2
                sp = StitchPoint(fid, coord, cross, "v")
            else:
                spanning = [r for r in shape.rects if r.lo.y <= coord <= r.hi.y]
                cross = (
                    min(r.lo.x for r in spanning) + max(r.hi.x for r in spanning)
                ) // 2
                sp = StitchPoint(fid, cross, coord, "h")
            stitch_edges[((fid, k), (fid, k + 1))] = sp

    conflict_edges: dict[EdgeKey, EndCutCandidate | None] = {}
    for (u, v), cand in sorted(g.conflict_edges.items()):
        f, gid = u[0], v[0]
        hits: list[EdgeKey] = []
        for i in range(seg_count[f]):
            for j in range(seg_count[gid]):
                if rectset_within(segments[(f, i)], segments[(gid, j)], d, metric):
                    hits.append(edge_key((f, i), (gid, j)))
        for e in hits:
            conflict_edges[e] = None
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
    index = SpatialIndex(max(d, 1))
    bboxes = []
    for i, p in enumerate(order):
        bb = bounding_box(cuts[p].rects)
        bboxes.append(bb)
        index.insert(i, bb)
    ee: set[tuple[PairKey, PairKey]] = set()
    merges: set[tuple[PairKey, PairKey]] = set()
    for i, pa in enumerate(order):
        ca = cuts[pa]
        for j in sorted(index.query(bboxes[i], d)):
            if j <= i:
                continue
            cb = cuts[order[j]]
            if not rectset_within(ca.rects, cb.rects, d, metric):
                continue
            if mergeable_pair(ca, cb, params):
                merges.add((pa, order[j]))
            else:
                ee.add((pa, order[j]))
    return EndCutGraph(cuts, ee, merges)


def layout_graph_dot(g: LayoutGraph) -> str:
    def node(v: VertexKey) -> str:
        return f'"{v[0]}/{v[1]}"'

    lines = ["graph layout {"]
    for v in g.vertices():
        lines.append(f"  {node(v)};")
    for (u, v), cand in sorted(g.conflict_edges.items()):
        attr = ' [label="cut"]' if cand is not None else ""
        lines.append(f"  {node(u)} -- {node(v)}{attr};")
    for u, v in sorted(g.stitch_edges):
        lines.append(f"  {node(u)} -- {node(v)} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def end_cut_graph_dot(ecg: EndCutGraph) -> str:
    def node(p: PairKey) -> str:
        return f'"{p[0]}-{p[1]}"'

    lines = ["graph endcuts {"]
    for p in sorted(ecg.candidates):
        lines.append(f"  {node(p)};")
    for a, b in sorted(ecg.ee_edges):
        lines.append(f"  {node(a)} -- {node(b)};")
    for a, b in sorted(ecg.merge_edges):
        lines.append(f"  {node(a)} -- {node(b)} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
