"""Shared oracles and generators for the test suite.

Everything here recomputes answers by a route the package itself never
takes: plain enumeration over all assignments, an external
mixed-integer solve of the exported LP text, an all-pairs search for
fusable trim rectangles, a two-level grouping of candidate boxes, a
polygon built by four separate passes over its outline, and
end-cut generation over every pair of boundary edges of two features,
which it derives from their outlines itself, with its own facing rule
and size windows, the perpendicular-edge corner boxes the
package no longer builds, and box clearance checked against every
feature of the layout.
A priced block of the solver is solved again by bucket elimination in
a min-fill order, with the search's tie-break folded into one integer
objective. Its cut and spacing factors are the package's own: the
cost_table of each row template. HiGHS and enumeration still check
those templates independently, through the exported LP text. A layout
graph's conflict pairs are also solved over three full masks by the
external solver, the LELELE baseline.
Tests compare the package against these, never against itself, and
the model oracles read a model's rows and weights only from its
exported LP text. The rectangle gaps are here too, as only tests read
them, and so are the polyomino and crowded-chain layout generators that
several test files share.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from trimdecomp.endcut import (
    BoxKind,
    EndCutBox,
    EndCutCandidate,
    merge_union,
    resolve_box_overlaps,
)
from trimdecomp.geometry import (
    GeometryError,
    Point,
    Rect,
    RectilinearShape,
    interval_gap,
    rects_closed_intersect,
    rects_interior_intersect,
    rectset_within,
)
from trimdecomp.graphs import EndCutGraph, LayoutGraph
from trimdecomp.ilp import (
    CUT_CONFLICT_ROWS,
    SPACING_ROWS,
    BlockStructure,
    IlpModel,
    IlpSolution,
    cost_table,
    export_lp,
)
from trimdecomp.layout_io import DecompositionParams, LayoutDocument, StitchPoint


def rect_gaps(a: Rect, b: Rect) -> tuple[int, int]:
    gx = interval_gap(a.lo.x, a.hi.x, b.lo.x, b.hi.x)
    gy = interval_gap(a.lo.y, a.hi.y, b.lo.y, b.hi.y)
    return gx, gy


def rect_chebyshev_gap(a: Rect, b: Rect) -> int:
    gx, gy = rect_gaps(a, b)
    return max(gx, gy)


def rectset_chebyshev_gap(a: Sequence[Rect], b: Sequence[Rect]) -> int:
    return min(rect_chebyshev_gap(ra, rb) for ra in a for rb in b)


def enumerate_model(model: IlpModel) -> tuple[Fraction, dict[str, int]]:
    """Optimal value and lexicographically least optimal mask vector of a
    small model, by checking every assignment of every binary variable
    against the rows and weights of its exported LP text."""
    names, obj, rows, scale = parse_lp(export_lp(model))
    nv = len(names)
    if nv == 0:
        return Fraction(0), {}
    assert nv <= 16, "enumeration oracle is for small models only"
    col = {name: i for i, name in enumerate(names)}
    bits = (np.arange(1 << nv, dtype=np.int64)[:, None] >> np.arange(nv)) & 1
    feasible = np.ones(1 << nv, dtype=bool)
    for terms, rhs in rows:
        total = np.zeros(1 << nv, dtype=np.int64)
        for name, coef in terms.items():
            total += coef * bits[:, col[name]]
        feasible &= total <= rhs
    assert feasible.any(), "every model admits some assignment"
    # a decimal weight such as 0.1 becomes an integer over a common denominator
    den = math.lcm(*(c.denominator for c in obj.values()))
    weights = np.zeros(nv, dtype=np.int64)
    for name, coef in obj.items():
        weights[col[name]] = int(coef * den)
    obj_value = bits @ weights
    best = int(obj_value[feasible].min())
    x_cols = [i for i, name in enumerate(names) if name.startswith("x_")]
    # rank mask vectors with the first variable most significant
    key = np.zeros(1 << nv, dtype=np.int64)
    for i in x_cols:
        key = (key << 1) | bits[:, i]
    optimal = feasible & (obj_value == best)
    row = int(np.flatnonzero(optimal)[np.argmin(key[optimal])])
    witness = {names[i]: int(bits[row, i]) for i in x_cols}
    return Fraction(best, den * scale), witness


_MAX_BUCKET = 16  # widest bucket eliminate builds a table for


def _min_fill_order(adj: list[set[int]]) -> list[int]:
    """An elimination order of the graph adj by least fill-in, lowest
    variable first among equals, kept in a heap whose stale entries are
    skipped. adj is consumed. A variable whose bucket would span more than
    _MAX_BUCKET variables (itself and its neighbours when it goes) raises
    ValueError before any table is built."""

    def fill(v: int) -> int:
        ns = list(adj[v])
        return sum(1 for i, u in enumerate(ns) for w in ns[i + 1 :] if w not in adj[u])

    current = [fill(v) for v in range(len(adj))]
    heap = [(f, v) for v, f in enumerate(current)]
    heapq.heapify(heap)
    done = [False] * len(adj)
    order = []
    while heap:
        f, v = heapq.heappop(heap)
        if done[v] or f != current[v]:
            continue
        ns = adj[v]
        if len(ns) + 1 > _MAX_BUCKET:
            raise ValueError(f"a bucket of {len(ns) + 1} variables is wider than {_MAX_BUCKET}")
        done[v] = True
        order.append(v)
        for u in ns:
            adj[u].discard(v)
            adj[u] |= ns - {u}
        # only v's neighbours and theirs can see their fill change
        touched = ns.union(*(adj[u] for u in ns))
        for u in touched:
            if not done[u]:
                current[u] = fill(u)
                heapq.heappush(heap, (current[u], u))
        adj[v] = set()
    return order


def eliminate(block: BlockStructure) -> tuple[int, list[int], set[int]]:
    """The search's answer to one priced block, by bucket elimination in a
    min-fill order: its cost, each local vertex's mask and the indices of
    the pending cuts it selects.

    The variables are the masks x_i and the cut choices c_k, K cuts in
    all. A pair is a table over (x_a, x_b), its price on one mask or
    across. A pending cut is the cost_table of CUT_CONFLICT_ROWS over
    (x_a, x_b, c_k) times its price, and a spacing edge the cost_table of
    SPACING_ROWS over its two cuts; an entry that no indicator value
    admits is forbidden. Every table is on one integer objective,
    cost * 2^(m+K) + sum x_i * 2^(K+m-1-i) + sum (1 - c_k) * 2^(K-1-k),
    whose minimum has the least cost, then the lexicographically smallest
    mask vector, then the cut choice that selects before it skips, lowest
    cut first: no two assignments tie, so the answer is unique. Nothing
    recurses: each bucket keeps its argmin table, and the variables are
    assigned in reverse elimination order."""
    m, pairs, cuts, spacing = block
    n = m + len(cuts)
    unit = 1 << n
    # above every feasible objective, so a forbidden entry never wins
    forbidden = (sum(max(same, diff) for _, _, same, diff in pairs) + sum(p for *_, p in cuts) + 1) * unit

    def from_table(template, weight: int) -> list[int]:
        table = cost_table(template)
        width = len(next(iter(table)))
        entries = (table[tuple(i >> j & 1 for j in range(width))] for i in range(1 << width))
        return [forbidden if t is None else t * weight * unit for t in entries]

    # (scope, table): bit j of a table index is the value of scope[j]
    factors = [((i,), [0, 1 << (n - 1 - i)]) for i in range(m)]
    factors += [((m + k,), [1 << (n - m - 1 - k), 0]) for k in range(len(cuts))]
    for a, b, same, diff in pairs:
        factors.append(((a, b), [same * unit, diff * unit, diff * unit, same * unit]))
    for k, (a, b, price) in enumerate(cuts):
        factors.append(((a, b, m + k), from_table(CUT_CONFLICT_ROWS, price)))
    spaced = from_table(SPACING_ROWS, 0)
    factors += [((m + ka, m + kb), spaced) for ka, kb in spacing]

    adj: list[set[int]] = [set() for _ in range(n)]
    for scope, _ in factors:
        for u in scope:
            adj[u].update(w for w in scope if w != u)
    order = _min_fill_order(adj)
    when = {v: t for t, v in enumerate(order)}
    buckets: list[list] = [[] for _ in order]
    for scope, table in factors:
        buckets[min(when[u] for u in scope)].append((scope, table))

    total = 0
    kept = []  # each variable's remaining scope and argmin table
    for t, v in enumerate(order):
        rest = tuple(sorted({u for scope, _ in buckets[t] for u in scope} - {v}))
        full = (v, *rest)
        size = 1 << len(full)
        values = [0] * size
        for scope, table in buckets[t]:
            pos = [full.index(u) for u in scope]
            proj = [sum((i >> p & 1) << j for j, p in enumerate(pos)) for i in range(size)]
            values = list(map(int.__add__, values, map(table.__getitem__, proj)))
        message = [min(values[i], values[i + 1]) for i in range(0, size, 2)]
        kept.append((rest, [int(values[i + 1] < values[i]) for i in range(0, size, 2)]))
        if rest:
            buckets[min(when[u] for u in rest)].append((rest, message))
        else:
            total += message[0]

    value = [0] * n
    for t in reversed(range(n)):
        rest, argmin = kept[t]
        value[order[t]] = argmin[sum(value[u] << j for j, u in enumerate(rest))]
    assert total < forbidden, "every block admits some assignment"
    return total >> n, value[:m], {k for k in range(len(cuts)) if value[m + k]}


def variable_indices(model: IlpModel) -> tuple[dict, dict, dict, dict]:
    """Each key's variable index, one dict per block of variables (x, ec,
    c and s; an edge keyed by its two segments' keys): the key's rank in
    its block plus the sizes of the blocks before it."""
    g = model.graph
    segs = g.segments
    blocks = (
        segs,
        [c.pair for c in model.end_cuts.candidates],
        [(segs[a], segs[b]) for a, b, _ in g.conflict_edges],
        [(segs[a], segs[b]) for a, b in g.stitch_edges],
    )
    starts = itertools.accumulate(map(len, blocks), initial=0)
    x_of, ec_of, c_of, s_of = (
        {key: start + rank for rank, key in enumerate(keys)}
        for start, keys in zip(starts, blocks)
    )
    return x_of, ec_of, c_of, s_of


def keyed(model: IlpModel, sol: IlpSolution) -> tuple[dict, frozenset]:
    """sol's masks by segment key and its selected cuts by feature pair,
    read off its ranks through the graphs' keys."""
    cuts = model.end_cuts.candidates
    return dict(zip(model.graph.segments, sol.colors)), frozenset(cuts[k].pair for k in sol.selected)


def solution_values(g: LayoutGraph, model: IlpModel, sol: IlpSolution) -> dict[str, int]:
    """Every variable of the model built from g, by name, read off a
    solution of g: masks and cuts as solved, conflict and stitch
    indicators derived from them."""
    x_of, ec_of, c_of, s_of = variable_indices(model)
    colors, selected = keyed(model, sol)
    values = {model.names[i]: colors[v] for v, i in x_of.items()}
    for pair, i in ec_of.items():
        values[model.names[i]] = int(pair in selected)
    segs, cuts = g.segments, model.end_cuts.candidates
    for a, b, k in g.conflict_edges:
        u, v = segs[a], segs[b]
        cut = k >= 0 and cuts[k].pair in selected
        values[model.names[c_of[(u, v)]]] = int(colors[u] == colors[v] and not cut)
    for (u, v), i in s_of.items():
        values[model.names[i]] = int(colors[u] != colors[v])
    return values


def ranked_graphs(
    segments: dict,
    conflict_edges: dict,
    stitch_edges: dict | None = None,
    candidates: dict | None = None,
    ee_edges=(),
) -> tuple[LayoutGraph, EndCutGraph]:
    """The graphs of a hand-written keyed graph, ranked as the package's
    builders rank theirs: segments {(id, k): rects}; conflict_edges
    {(u, v): candidate or None} and stitch_edges {(u, v): StitchPoint} on
    segment keys; candidates {pair: candidate}; ee_edges as pairs of
    pairs. A segment's rank is its place in sorted key order, a cut's in
    sorted pair order."""
    stitch_edges, candidates = stitch_edges or {}, candidates or {}
    keys, pairs = sorted(segments), sorted(candidates)
    x = {v: i for i, v in enumerate(keys)}
    k = {p: i for i, p in enumerate(pairs)}
    stitches = sorted((x[u], x[v], sp) for (u, v), sp in stitch_edges.items())
    g = LayoutGraph(
        segments=tuple(keys),
        pieces=tuple(segments[v] for v in keys),
        conflict_edges=tuple(
            sorted(
                (x[u], x[v], -1 if c is None else k[c.pair]) for (u, v), c in conflict_edges.items()
            )
        ),
        stitch_edges=tuple((a, b) for a, b, _ in stitches),
        stitch_points=tuple(sp for _, _, sp in stitches),
    )
    ee = sorted(tuple(sorted((k[p], k[q]))) for p, q in ee_edges)
    return g, EndCutGraph(tuple(candidates[p] for p in pairs), tuple(ee), ())


def merged_cut_rects_oracle(
    selected: list[EndCutCandidate], params: DecompositionParams
) -> tuple[Rect, ...]:
    """Trim rectangles fused by the plain pairwise fixpoint: each round
    tries every output rectangle in index order and fuses into the first
    one that accepts, until a round fuses nothing."""
    rects = sorted({b.rect for c in selected for b in c.boxes})
    changed = True
    while changed:
        changed = False
        out: list[Rect] = []
        for r in rects:
            for k, q in enumerate(out):
                u = merge_union(q, r, params)
                if u is not None:
                    out[k] = u
                    changed = True
                    break
            else:
                out.append(r)
        rects = sorted(set(out))
    return tuple(rects)


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


def outline_oracle(sid: int, points) -> RectilinearShape:
    """A polygon built by four separate passes over its outline: merge
    collinear runs, wind it by its signed area, test every pair of runs
    for contact, and slice it into one rectangle per piece of every band
    between two consecutive distinct ys, so no two pieces ever merge."""
    pts = [Point(x, y) for x, y in points]
    for p in pts:
        if not isinstance(p.x, int) or not isinstance(p.y, int):
            raise GeometryError(f"point coordinates must be integers: ({p.x}, {p.y})")
    pts = _normalize_outline(pts)
    if _signed_area2(pts) < 0:
        pts.reverse()
    _check_simple(pts)
    rects = _decompose_outline(pts)
    return RectilinearShape(sid, rects, tuple(pts))


def staircase_outline(steps: int) -> list[tuple[int, int]]:
    """The outline of a staircase of steps steps, 20 wide and 10 high,
    each 20 narrower than the one below: 2 * steps + 2 vertices, one
    rectangle per step."""
    w = 20 * steps
    pts = [(0, 0), (w, 0)]
    for i in range(1, steps + 1):
        pts += [(w - 20 * (i - 1), 10 * i), (w - 20 * i, 10 * i)]
    return pts


def comb_outline(teeth: int) -> list[tuple[int, int]]:
    """The outline of a comb: a base 20 high and teeth 20 wide at pitch 40
    rising from it, tooth i 20 + 10 * i high. One band between two
    consecutive ys crosses every tooth still rising, so slicing by bands
    makes 1 + teeth * (teeth + 1) / 2 rectangles; the base and the teeth
    are teeth + 1."""
    pts = [(0, 0), (40 * teeth - 20, 0)]
    for i in reversed(range(teeth)):
        top = 40 + 10 * i
        pts += [(40 * i + 20, top), (40 * i, top)]
        if i:
            pts += [(40 * i, 20), (40 * i - 20, 20)]
    return pts


def resolve_box_overlaps_oracle(raw: list[EndCutBox]) -> tuple[EndCutBox, ...]:
    """Box thinning by two nested groupings: boxes in closed contact form
    groups; in a group with edge-to-edge boxes the corner boxes touching
    one are dropped; the rest cluster by shared interior and each cluster
    keeps its smallest box."""
    by_rect: dict[Rect, EndCutBox] = {}
    for box in sorted(raw, key=EndCutBox.sort_key):
        cur = by_rect.get(box.rect)
        if cur is None or (
            cur.kind is BoxKind.CORNER_CORNER and box.kind is BoxKind.EDGE_EDGE
        ):
            by_rect[box.rect] = box
    boxes = sorted(by_rect.values(), key=EndCutBox.sort_key)

    def clusters(items: list[EndCutBox], linked) -> list[list[EndCutBox]]:
        parent = list(range(len(items)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in itertools.combinations(range(len(items)), 2):
            if linked(items[i].rect, items[j].rect):
                parent[find(i)] = find(j)
        out: dict[int, list[EndCutBox]] = {}
        for i, box in enumerate(items):
            out.setdefault(find(i), []).append(box)
        return list(out.values())

    keep: list[EndCutBox] = []
    for group in clusters(boxes, rects_closed_intersect):
        ee = [b for b in group if b.kind is BoxKind.EDGE_EDGE]
        if ee:
            group = ee + [
                b
                for b in group
                if b.kind is BoxKind.CORNER_CORNER
                and not any(rects_closed_intersect(b.rect, e.rect) for e in ee)
            ]
        for cluster in clusters(group, rects_interior_intersect):
            keep.append(min(cluster, key=lambda b: (b.rect.area, b.sort_key())))
    return tuple(sorted(keep, key=EndCutBox.sort_key))


class BoundaryEdge(NamedTuple):
    """A boundary edge of an outline: its outward normal, orientation
    ('h' or 'v'), pos (the coordinate of the line it lies on) and its
    span lo..hi along that line."""

    normal: tuple[int, int]
    orientation: str
    pos: int
    lo: int
    hi: int


def boundary_edges(s: RectilinearShape) -> tuple[BoundaryEdge, ...]:
    """The edges of a shape's counter-clockwise outline, in outline order,
    each with the direction of travel turned clockwise as its normal."""
    pts = s.outline
    edges = []
    for a, b in zip(pts, pts[1:] + pts[:1]):
        dx, dy = (b.x > a.x) - (b.x < a.x), (b.y > a.y) - (b.y < a.y)
        if dy == 0:
            edges.append(BoundaryEdge((0, -dx), "h", a.y, min(a.x, b.x), max(a.x, b.x)))
        else:
            edges.append(BoundaryEdge((dy, 0), "v", a.x, min(a.y, b.y), max(a.y, b.y)))
    return tuple(edges)


def shape_facts(s: RectilinearShape) -> tuple:
    """Everything a shape stores, and the boundary edges of its outline,
    so two shapes built by different routes can be compared in full."""
    return s.id, s.rects, s.outline, boundary_edges(s)


def _sized_box(rect: Rect, kind: BoxKind, run_axis: str, p: DecompositionParams) -> EndCutBox | None:
    """The box, when its size fits the rules: w (along the repaired run,
    which lies along run_axis) between w_low and w_high, h (across the
    gap) between h_low and h_high, and for an edge-to-edge box a run no
    longer than w_th. A corner box is given run_axis 'x' and read as
    drawn."""
    w, h = (rect.height, rect.width) if run_axis == "y" else (rect.width, rect.height)
    if not (p.w_low <= w <= p.w_high and p.h_low <= h <= p.h_high):
        return None
    if kind is BoxKind.EDGE_EDGE and w > p.w_th:
        return None
    return EndCutBox(rect=rect, kind=kind)


def parallel_box(e1: BoundaryEdge, e2: BoundaryEdge, p: DecompositionParams) -> EndCutBox | None:
    """Box between two parallel edges that face each other: the lower
    edge's normal points across the gap to the upper edge, whose normal
    points back. Where their spans overlap it is the strip between the
    shared run; where they are disjoint, the pocket between the near ends;
    where they meet at a point, none."""
    lo_e, hi_e = sorted((e1, e2), key=lambda e: e.pos)
    axis = 0 if e1.orientation == "v" else 1
    if lo_e.pos == hi_e.pos or lo_e.normal[axis] != 1 or hi_e.normal[axis] != -1:
        return None
    a, b = max(e1.lo, e2.lo), min(e1.hi, e2.hi)
    if a == b:
        return None
    kind, run_axis = (BoxKind.EDGE_EDGE, "yx"[axis]) if a < b else (BoxKind.CORNER_CORNER, "x")
    a, b = min(a, b), max(a, b)
    if axis == 0:
        rect = Rect.of(lo_e.pos, a, hi_e.pos, b)
    else:
        rect = Rect.of(a, lo_e.pos, b, hi_e.pos)
    return _sized_box(rect, kind, run_axis, p)


def perpendicular_box(ev: BoundaryEdge, eh: BoundaryEdge, p: DecompositionParams) -> EndCutBox | None:
    """Corner box between a vertical edge ev and a horizontal edge eh: the
    pocket spanned by ev's line, eh's line and the two edges' near ends,
    on the side each edge faces."""
    a, c = ev.pos, eh.pos
    if ev.normal[0] == 1:
        if eh.lo <= a:
            return None
        x_lo, x_hi = a, eh.lo
    else:
        if eh.hi >= a:
            return None
        x_lo, x_hi = eh.hi, a
    if eh.normal[1] == 1:
        if ev.lo <= c:
            return None
        y_lo, y_hi = c, ev.lo
    else:
        if ev.hi >= c:
            return None
        y_lo, y_hi = ev.hi, c
    return _sized_box(Rect.of(x_lo, y_lo, x_hi, y_hi), BoxKind.CORNER_CORNER, "x", p)


def generate_end_cut_box(
    e1: BoundaryEdge, e2: BoundaryEdge, params: DecompositionParams
) -> EndCutBox | None:
    """Candidate box between any two boundary edges, parallel or
    perpendicular, or None when their geometry admits no cut or the box
    violates the size rules."""
    if e1.orientation == e2.orientation:
        return parallel_box(e1, e2, params)
    if e1.orientation == "v":
        return perpendicular_box(e1, e2, params)
    return perpendicular_box(e2, e1, params)


def box_clear_oracle(rect: Rect, shapes_by_id: dict[int, RectilinearShape]) -> bool:
    """Whether no feature material lies inside rect, checked against every
    feature: the package checks only the features within reach of the
    pair instead. Touching the box's boundary is fine."""
    return not any(
        rects_interior_intersect(rect, r) for s in shapes_by_id.values() for r in s.rects
    )


def generate_end_cut_oracle(
    s1: RectilinearShape,
    s2: RectilinearShape,
    params: DecompositionParams,
    shapes_by_id: dict[int, RectilinearShape],
) -> EndCutCandidate | None:
    """End-cut candidate of a feature pair from all 16 kinds of edge
    pairs: perpendicular edges and parallel edges that face the same way
    are tried too."""
    raw: list[EndCutBox] = []
    edges2 = boundary_edges(s2)
    for e1 in boundary_edges(s1):
        for e2 in edges2:
            box = generate_end_cut_box(e1, e2, params)
            if box is not None and box_clear_oracle(box.rect, shapes_by_id):
                raw.append(box)
    if not raw:
        return None
    pair = (min(s1.id, s2.id), max(s1.id, s2.id))
    return EndCutCandidate(pair=pair, boxes=resolve_box_overlaps(raw))


def end_cuts_oracle(doc: LayoutDocument) -> tuple[EndCutCandidate, ...]:
    """The cut candidates of every conflicting pair of a layout in pair
    order, with the pairs found by testing all pairs and each box checked
    against every feature."""
    shapes = sorted(doc.shapes, key=lambda s: s.id)
    by_id = {s.id: s for s in shapes}
    cuts = []
    for s1, s2 in itertools.combinations(shapes, 2):
        if rectset_within(s1.rects, s2.rects, doc.params.dis_m):
            cand = generate_end_cut_oracle(s1, s2, doc.params, by_id)
            if cand is not None:
                cuts.append(cand)
    return tuple(cuts)


def _dummy_candidate(pair: tuple[int, int]) -> EndCutCandidate:
    a, b = pair
    box = EndCutBox(
        rect=Rect.of(a * 1000, b * 1000, a * 1000 + 20, b * 1000 + 20),
        kind=BoxKind.EDGE_EDGE,
    )
    return EndCutCandidate(pair=pair, boxes=(box,))


def random_model_graph(
    rng: random.Random,
) -> tuple[LayoutGraph, EndCutGraph, Fraction]:
    """Small random conflict structure whose model stays enumerable.

    Vertex, conflict, cut and stitch counts are drawn so the model never
    exceeds twelve binaries; candidate cuts get random exclusion edges."""
    while True:
        n = rng.randint(2, 5)
        split = rng.randint(1, n) if rng.random() < 0.4 else None
        verts = []
        for f in range(1, n + 1):
            verts.append((f, 0))
            if f == split:
                verts.append((f, 1))
        possible = list(itertools.combinations(range(len(verts)), 2))
        rng.shuffle(possible)
        n_edges = rng.randint(1, min(5, len(possible)))
        edges = {}
        cands = {}
        for i, j in possible[:n_edges]:
            u, v = verts[i], verts[j]
            if u[0] == v[0]:
                continue
            pair = (min(u[0], v[0]), max(u[0], v[0]))
            if rng.random() < 0.5 and pair not in cands:
                cands[pair] = _dummy_candidate(pair)
                edges[(u, v)] = cands[pair]
            else:
                edges[(u, v)] = None
        if not edges:
            continue
        stitch_edges = {}
        if split is not None:
            stitch_edges[((split, 0), (split, 1))] = StitchPoint(split, 0, 0, "v")
        nvars = len(verts) + len(edges) + len(cands) + len(stitch_edges)
        if nvars > 12:
            continue
        ee = set()
        pairs = sorted(cands)
        for pa, pb in itertools.combinations(pairs, 2):
            if rng.random() < 0.5:
                ee.add((pa, pb))
        segments = {
            v: (Rect.of(v[0] * 500 + v[1] * 100, 0, v[0] * 500 + v[1] * 100 + 40, 40),)
            for v in verts
        }
        g, ecg = ranked_graphs(segments, edges, stitch_edges, cands, ee)
        alpha = rng.choice(
            [Fraction(1, 10), Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(0)]
        )
        return g, ecg, alpha


def chain30_rects(first_id: int = 1, y: int = 0) -> list[str]:
    """A crowded chain of 30 bars, as layout lines for param dis_m 120 and
    hlow 60: every neighbour pair conflicts and every cut excludes its
    neighbours' cuts, so the solver cannot prove the optimum 0 within a
    fraction of a second."""
    return [
        f"rect {first_id + i} {200 * i} {y} {200 * i + 100} {y + 40 + i % 9}"
        for i in range(30)
    ]


def square_grid_rects(first_id: int = 1, y: int = 0) -> list[str]:
    """A 4 by 20 grid of 40 nm squares at pitch 100, as layout lines for
    param dis_m 120: each square conflicts with its eight neighbours, and
    the one block this makes has min-fill width 30, so the solver cannot
    prove its optimum within a fraction of a second."""
    return [
        f"rect {first_id + 20 * row + col} {100 * col} {y + 100 * row} {100 * col + 40} {y + 100 * row + 40}"
        for row in range(4)
        for col in range(20)
    ]


def chain_text(bars: int) -> str:
    """Crowded chain: every neighbour pair conflicts and every cut excludes
    its neighbours' cuts, while alternating the masks costs nothing."""
    lines = [f"layout chain{bars}", "param dis_m 120", "param hlow 60"]
    for i in range(bars):
        lines.append(f"rect {i + 1} {200 * i} 0 {200 * i + 100} {40 + i % 9}")
    return "\n".join(lines) + "\n"


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


def parse_lp(text: str):
    """Read back the exporter's LP dialect: objective terms, rows of
    unit-coefficient sums with a bound, and the binary name list."""
    scale = 1
    obj: dict[str, Fraction] = {}
    rows: list[tuple[dict[str, int], int]] = []
    names: list[str] = []
    section = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("\\"):
            if "scaled by" in line:
                scale = int(line.rsplit(" ", 1)[1])
            continue
        if line in ("Minimize", "Subject To", "Binaries", "End"):
            section = line
            continue
        if section == "Minimize":
            toks = line.split(":", 1)[1].split()
            if toks and toks[0] == "0":
                toks = []  # constant-zero objective
            i = 0
            while i < len(toks):
                sign = 1 if toks[i] == "+" else -1
                if toks[i + 1][0].isdigit():
                    coef, name = Fraction(toks[i + 1]), toks[i + 2]
                    i += 3
                else:
                    coef, name = Fraction(1), toks[i + 1]
                    i += 2
                obj[name] = obj.get(name, Fraction(0)) + sign * coef
        elif section == "Subject To":
            body = line.split(":", 1)[1]
            lhs, rhs = body.split("<=")
            terms: dict[str, int] = {}
            toks = lhs.split()
            for j in range(0, len(toks), 2):
                sign = 1 if toks[j] == "+" else -1
                terms[toks[j + 1]] = terms.get(toks[j + 1], 0) + sign
            rows.append((terms, int(rhs)))
        elif section == "Binaries":
            names.extend(line.split())
    return names, obj, rows, scale


class _Milp:
    """The exported LP text as a scipy.optimize.milp problem whose
    variables can be fixed one at a time."""

    def __init__(self, text: str):
        from scipy.optimize import LinearConstraint

        self.names, self.obj, rows, self.scale = parse_lp(text)
        self.idx = {name: i for i, name in enumerate(self.names)}
        self.c = np.zeros(len(self.names))
        for name, coef in self.obj.items():
            self.c[self.idx[name]] = float(coef)
        self.constraints = []
        for terms, rhs in rows:
            a = np.zeros(len(self.names))
            for name, coef in terms.items():
                a[self.idx[name]] = coef
            self.constraints.append(LinearConstraint(a, -np.inf, rhs))
        self.lower = np.zeros(len(self.names))
        self.upper = np.ones(len(self.names))

    def solve(self) -> tuple[Fraction, list[int]]:
        """Optimum under the current fixings and the solution vector. The
        value is recomputed exactly from the rounded vector, never taken
        from the float objective."""
        from scipy.optimize import Bounds, milp

        res = milp(
            c=self.c,
            constraints=self.constraints,
            integrality=np.ones(len(self.names)),
            bounds=Bounds(self.lower, self.upper),
        )
        assert res.success, res.message
        x = [round(v) for v in res.x]
        total = sum(coef * x[self.idx[name]] for name, coef in self.obj.items())
        return Fraction(total) / self.scale, x


def milp_optimum(text: str) -> Fraction:
    """Solve the exported LP text with an external branch-and-bound."""
    return _Milp(text).solve()[0]


def three_mask_conflicts(g: LayoutGraph) -> int:
    """The fewest conflicts of g's conflict pairs over three full litho
    masks, no trim and no stitches: each segment takes one of three mask
    variables, each edge one indicator per mask, x_am + x_bm - c_em <= 1,
    minimising the sum of the indicators. Solved by scipy.optimize.milp
    with mip_rel_gap 0; the count is read off the rounded masks."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    assert not g.stitch_edges, "the three-mask model has no stitches"
    n, edges = len(g.segments), [(a, b) for a, b, _ in g.conflict_edges]
    nx = 3 * n  # x of segment v on mask m is 3v + m; c of edge e on mask m is nx + 3e + m
    rows, cols, vals = [], [], []
    for v in range(n):
        rows += [v] * 3
        cols += range(3 * v, 3 * v + 3)
        vals += [1] * 3
    for e, (a, b) in enumerate(edges):
        for m in range(3):
            r = n + 3 * e + m
            rows += [r] * 3
            cols += [3 * a + m, 3 * b + m, nx + 3 * e + m]
            vals += [1, 1, -1]
    nvars, nrows = nx + 3 * len(edges), n + 3 * len(edges)
    matrix = coo_array((vals, (rows, cols)), shape=(nrows, nvars))
    lower = np.r_[np.ones(n), np.full(nrows - n, -np.inf)]
    res = milp(
        c=np.r_[np.zeros(nx), np.ones(nvars - nx)],
        constraints=LinearConstraint(matrix, lower, np.ones(nrows)),
        integrality=np.ones(nvars),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert res.success, res.message
    x = np.round(res.x[:nx]).reshape(n, 3)
    assert (x.sum(axis=1) == 1).all()
    mask = x.argmax(axis=1)
    conflicts = sum(mask[a] == mask[b] for a, b in edges)
    assert conflicts == round(res.fun), (conflicts, res.fun)
    return int(conflicts)


def milp_lex_witness(text: str) -> tuple[Fraction, dict[str, int]]:
    """Optimum of the exported LP text and its lexicographically least
    optimal mask vector: each x variable, in the order the model lists
    them, is fixed to 0 whenever the external solver still reaches the
    optimum with it fixed there, and to 1 otherwise."""
    problem = _Milp(text)
    best, x = problem.solve()
    x_names = [name for name in problem.names if name.startswith("x_")]
    for name in x_names:
        i = problem.idx[name]
        problem.upper[i] = 0
        if x[i] == 0:
            continue  # the current optimum already has it at 0
        value, y = problem.solve()
        if value == best:
            x = y
        else:
            problem.upper[i] = problem.lower[i] = 1
    return best, {name: x[problem.idx[name]] for name in x_names}
