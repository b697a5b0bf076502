"""0-1 formulation and exact solver for mask assignment with end-cuts.

For conflicting segments i, j the binary x variables carry the mask choice
and a conflict indicator c is forced to 1 exactly when both sit on one
mask with no selected cut between them:

    x_i + x_j - c - ec <= 1        -x_i - x_j - c - ec <= -1

A cut can only be selected when its two segments share a mask
(ec + x_i - x_j <= 1 and symmetrically), two cuts too close to print
separately exclude each other (ec_a + ec_b <= 1), and a stitch indicator
follows the colour difference across each stitch edge
(x_i - x_j - s <= 0 and symmetrically). The objective charges one unit
per conflict and alpha per stitch, scaled to integers by alpha's
denominator so all arithmetic stays exact.

IlpModel spells this formulation out with named variables and rows; it
is built only for LP export and for checking. solve works on the layout
graph itself, through integer edge arrays: it splits the graph into
independent blocks (linked by conflict, stitch or cut-spacing edges) and
runs one exact branch and bound over each. A greedy two-colouring with a
small local search seeds the incumbent. The search then assigns masks in
ascending segment order, mask 0 first, and settles the cuts at each
complete colouring, so the first leaf it meets at the optimal cost is
the lexicographically smallest optimal mask vector, the promised
tie-break."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graphs import EdgeKey, EndCutGraph, LayoutGraph, PairKey
from .layout_io import VertexKey, fraction_to_decimal


class ModelError(ValueError):
    pass


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class IlpModel:
    names: tuple[str, ...]
    kinds: tuple[str, ...]
    constraints: tuple[tuple[tuple[tuple[int, int], ...], int], ...]
    objective: tuple[int, ...]
    scale: int
    alpha: Fraction
    x_of: dict[VertexKey, int]
    ec_of: dict[PairKey, int]
    c_of: dict[EdgeKey, int]
    s_of: dict[EdgeKey, int]


@dataclass(frozen=True)
class IlpSolution:
    objective: Fraction
    status: SolveStatus
    nodes: int
    blocks: int
    colors: dict[VertexKey, int]
    selected: frozenset[PairKey]


def _build(
    g: LayoutGraph, ecg: EndCutGraph | None, alpha: Fraction, allow_stitch: bool
) -> IlpModel:
    if g.stitch_edges and not allow_stitch:
        raise ModelError("graph has stitch edges; build the stitch-aware model instead")
    if alpha < 0:
        raise ModelError("alpha must be non-negative")
    verts = sorted(g.segments)
    multi = {f for f, k in verts if k > 0}

    def tok(v: VertexKey) -> str:
        return f"{v[0]}_{v[1]}" if v[0] in multi else str(v[0])

    names: list[str] = []
    kinds: list[str] = []
    objective: list[int] = []

    def add_var(name: str, kind: str, weight: int) -> int:
        names.append(name)
        kinds.append(kind)
        objective.append(weight)
        return len(names) - 1

    x_of = {v: add_var(f"x_{tok(v)}", "x", 0) for v in verts}
    ce_list = sorted(g.conflict_edges.items())
    pairs = sorted({c.pair for _, c in ce_list if c is not None})
    ec_of = {p: add_var(f"ec_{p[0]}_{p[1]}", "ec", 0) for p in pairs}
    scale = alpha.denominator
    snum = alpha.numerator
    c_of = {e: add_var(f"c_{tok(e[0])}_{tok(e[1])}", "c", scale) for e, _ in ce_list}
    se_list = sorted(g.stitch_edges)
    s_of = {(u, v): add_var(f"s_{u[0]}_{u[1]}_{v[1]}", "s", snum) for u, v in se_list}

    rows: list[tuple[tuple[tuple[int, int], ...], int]] = []
    for (u, v), cand in ce_list:
        xi, xj, ci = x_of[u], x_of[v], c_of[(u, v)]
        if cand is not None:
            ei = ec_of[cand.pair]
            rows.append((((xi, 1), (xj, 1), (ci, -1), (ei, -1)), 1))
            rows.append((((xi, -1), (xj, -1), (ci, -1), (ei, -1)), -1))
            rows.append((((ei, 1), (xi, 1), (xj, -1)), 1))
            rows.append((((ei, 1), (xj, 1), (xi, -1)), 1))
        else:
            rows.append((((xi, 1), (xj, 1), (ci, -1)), 1))
            rows.append((((xi, -1), (xj, -1), (ci, -1)), -1))
    for u, v in se_list:
        xi, xj, si = x_of[u], x_of[v], s_of[(u, v)]
        rows.append((((xi, 1), (xj, -1), (si, -1)), 0))
        rows.append((((xj, 1), (xi, -1), (si, -1)), 0))
    if ecg is not None:
        for pa, pb in sorted(ecg.ee_edges):
            if pa in ec_of and pb in ec_of:
                rows.append((((ec_of[pa], 1), (ec_of[pb], 1)), 1))

    return IlpModel(
        names=tuple(names),
        kinds=tuple(kinds),
        constraints=tuple(rows),
        objective=tuple(objective),
        scale=scale,
        alpha=alpha,
        x_of=x_of,
        ec_of=ec_of,
        c_of=c_of,
        s_of=s_of,
    )


def build_model_no_stitch(g: LayoutGraph, ecg: EndCutGraph | None = None) -> IlpModel:
    return _build(g, ecg, Fraction(0), allow_stitch=False)


def build_model_with_stitch(
    g: LayoutGraph, ecg: EndCutGraph | None, alpha: Fraction
) -> IlpModel:
    return _build(g, ecg, alpha, allow_stitch=True)


class _Timeout(Exception):
    pass


class _CompSolver:
    """Exact search over one independent block of the layout graph.

    Local variable ids 0..m-1 follow the canonical (ascending segment
    index) order. The search assigns them in that order, mask 0 before
    mask 1, and settles the cuts of each complete colouring in a fixed
    order, so leaves arrive in lexicographic order of the mask vector.
    Only a leaf strictly cheaper than the bound is accepted, and the bound
    starts one above the incumbent's cost: the last leaf accepted is the
    first one at the optimal cost, the lexicographically smallest optimum."""

    def __init__(
        self,
        gvars: Sequence[int],
        ce: Sequence[tuple[int, int, PairKey | None]],
        se: Sequence[tuple[int, int]],
        ee: Sequence[tuple[PairKey, PairKey]],
        wc: int,
        ws: int,
        deadline: float | None,
    ):
        self.m = len(gvars)
        local = {g: i for i, g in enumerate(gvars)}
        self.ce = [(local[a], local[b], pair) for a, b, pair in ce]
        self.se = [(local[a], local[b]) for a, b in se]
        self.wc = wc
        self.ws = ws
        self.deadline = deadline
        self.nodes = 0

        self.pend_pair = [pair for _, _, pair in self.ce if pair is not None]
        self.pend_edge = [(a, b) for a, b, pair in self.ce if pair is not None]
        pidx = {pair: k for k, pair in enumerate(self.pend_pair)}
        self.pend_adj: list[list[int]] = [[] for _ in self.pend_pair]
        for pa, pb in ee:
            ka, kb = pidx[pa], pidx[pb]
            self.pend_adj[ka].append(kb)
            self.pend_adj[kb].append(ka)
        for lst in self.pend_adj:
            lst.sort()

        self.best = 0
        self.bound = 1
        self.best_colors: list[int] = [0] * self.m
        self.best_sel: set[PairKey] = set()
        self.timed_out = False

    def _tick(self) -> None:
        self.nodes += 1
        if self.deadline is not None and (self.nodes & 2047) == 0:
            if time.monotonic() > self.deadline:
                raise _Timeout

    # -- incumbent -------------------------------------------------------

    def _greedy_colors(self) -> list[int]:
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(self.m)]
        for a, b, pair in self.ce:
            w = 0 if pair is not None else self.wc
            adj[a].append((b, w, 0))
            adj[b].append((a, w, 0))
        for a, b in self.se:
            adj[a].append((b, 0, self.ws))
            adj[b].append((a, 0, self.ws))
        for lst in adj:
            lst.sort()
        color = [-1] * self.m
        for root in range(self.m):
            if color[root] != -1:
                continue
            color[root] = 0
            queue = [root]
            qi = 0
            while qi < len(queue):
                v = queue[qi]
                qi += 1
                for n, _, _ in adj[v]:
                    if color[n] != -1:
                        continue
                    p0 = p1 = 0
                    for n2, wsame, wdiff in adj[n]:
                        if color[n2] == -1:
                            continue
                        if color[n2] == 0:
                            p0 += wsame
                            p1 += wdiff
                        else:
                            p0 += wdiff
                            p1 += wsame
                    color[n] = 0 if p0 <= p1 else 1
                    queue.append(n)
        # single-flip descent
        for _ in range(30):
            improved = False
            for v in range(self.m):
                delta = 0
                for n, wsame, wdiff in adj[v]:
                    if color[n] == color[v]:
                        delta += wdiff - wsame
                    else:
                        delta += wsame - wdiff
                if delta < 0:
                    color[v] ^= 1
                    improved = True
            if not improved:
                break
        return color

    def _cost_of(self, color: Sequence[int]) -> tuple[int, set[int]]:
        """Exact cost of a colouring under greedy cut selection."""
        chosen: set[int] = set()
        cost = 0
        for k, (a, b) in enumerate(self.pend_edge):
            if color[a] != color[b]:
                continue
            if any(j in chosen for j in self.pend_adj[k]):
                cost += self.wc
            else:
                chosen.add(k)
        for a, b, pair in self.ce:
            if pair is None and color[a] == color[b]:
                cost += self.wc
        for a, b in self.se:
            if color[a] != color[b]:
                cost += self.ws
        return cost, chosen

    # -- exact search ----------------------------------------------------

    def run(self) -> None:
        incumbent = self._greedy_colors()
        if incumbent[0] == 1:
            # the mirror costs the same and keeps variable 0 on mask 0
            incumbent = [1 - c for c in incumbent]
        inc_cost, inc_sel = self._cost_of(incumbent)
        self.best = inc_cost
        self.bound = inc_cost + 1  # scaled costs are integers
        self.best_colors = incumbent
        self.best_sel = {self.pend_pair[k] for k in inc_sel}
        try:
            self._branch()
        except _Timeout:
            self.timed_out = True

    def _branch(self) -> None:
        m = self.m
        # edges bucketed at their later endpoint; a candidate conflict is
        # left to the leaf, where its cut is chosen
        conflict_at: list[list[int]] = [[] for _ in range(m)]
        stitch_at: list[list[int]] = [[] for _ in range(m)]
        for a, b, pair in self.ce:
            if pair is None:
                conflict_at[max(a, b)].append(min(a, b))
        for a, b in self.se:
            stitch_at[max(a, b)].append(min(a, b))
        wc, ws = self.wc, self.ws

        vals = [0] * m
        added = [0] * m
        nxt = [0] * m
        cost = 0
        pos = 0
        while pos >= 0:
            val = nxt[pos]
            # colour symmetry: variable 0 stays on mask 0, the complement
            # being an equal-cost mirror
            if val > (0 if pos == 0 else 1):
                pos -= 1
                if pos >= 0:
                    cost -= added[pos]
                continue
            nxt[pos] = val + 1
            self._tick()
            add = 0
            for lo in conflict_at[pos]:
                if vals[lo] == val:
                    add += wc
            for lo in stitch_at[pos]:
                if vals[lo] != val:
                    add += ws
            if cost + add >= self.bound:
                continue
            vals[pos] = val
            if pos + 1 == m:
                self._leaf(vals, cost + add)
                continue
            added[pos] = add
            cost += add
            pos += 1
            nxt[pos] = 0

    def _leaf(self, vals: list[int], xcost: int) -> None:
        chosen: set[int] = set()
        constrained: list[int] = []
        for k, (a, b) in enumerate(self.pend_edge):
            if vals[a] != vals[b]:
                continue
            if self.pend_adj[k]:
                constrained.append(k)
            else:
                chosen.add(k)  # nothing else cares; selecting is free

        def rec(i: int, acc: int) -> None:
            self._tick()
            if acc >= self.bound:
                return
            if i == len(constrained):
                self.bound = self.best = acc
                self.best_colors = list(vals)
                self.best_sel = {self.pend_pair[k] for k in chosen}
                return
            k = constrained[i]
            if not any(j in chosen for j in self.pend_adj[k]):
                chosen.add(k)
                rec(i + 1, acc)
                chosen.discard(k)
            rec(i + 1, acc + self.wc)

        rec(0, xcost)


def solve(
    g: LayoutGraph,
    ecg: EndCutGraph | None,
    alpha: Fraction,
    *,
    time_limit: float | None = None,
) -> IlpSolution:
    """Minimise conflicts plus alpha times stitches on the layout graph.

    This is the one place the problem splits: blocks linked by conflict,
    stitch or cut-spacing edges are searched separately and the optima
    summed. Each block reports its lexicographically smallest optimal
    mask vector, so status OPTIMAL implies the canonical answer. A
    candidate cut with no spacing edge links nothing; it is selected
    afterwards wherever its two segments share a mask, at no cost. The
    status is TIMEOUT when any block ran out of time, in which case the
    best colouring found so far stands in for the exact answer."""
    if alpha < 0:
        raise ModelError("alpha must be non-negative")
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    verts = sorted(g.segments)
    idx = {v: i for i, v in enumerate(verts)}
    spaced: set[PairKey] = set()
    ee_all: list[tuple[PairKey, PairKey]] = []
    if ecg is not None:
        ee_all = sorted(ecg.ee_edges)
        spaced = {p for e in ee_all for p in e}
    ce: list[tuple[int, int, PairKey | None]] = []
    free: list[tuple[int, int, PairKey]] = []
    for (u, v), cand in sorted(g.conflict_edges.items()):
        if cand is None:
            ce.append((idx[u], idx[v], None))
        elif cand.pair in spaced:
            ce.append((idx[u], idx[v], cand.pair))
        else:
            free.append((idx[u], idx[v], cand.pair))
    se = [(idx[u], idx[v]) for u, v in sorted(g.stitch_edges)]
    pair_home = {pair: a for a, _, pair in ce if pair is not None}
    ee = [(pa, pb) for pa, pb in ee_all if pa in pair_home and pb in pair_home]

    parent = list(range(len(verts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b, _ in ce:
        parent[find(a)] = find(b)
    for a, b in se:
        parent[find(a)] = find(b)
    for pa, pb in ee:
        parent[find(pair_home[pa])] = find(pair_home[pb])

    block_of: dict[int, int] = {}
    blocks: list[list[int]] = []
    for i in range(len(verts)):
        root = find(i)
        if root not in block_of:
            block_of[root] = len(blocks)
            blocks.append([])
        blocks[block_of[root]].append(i)
    ce_by: list[list[tuple[int, int, PairKey | None]]] = [[] for _ in blocks]
    se_by: list[list[tuple[int, int]]] = [[] for _ in blocks]
    ee_by: list[list[tuple[PairKey, PairKey]]] = [[] for _ in blocks]
    for e in ce:
        ce_by[block_of[find(e[0])]].append(e)
    for e in se:
        se_by[block_of[find(e[0])]].append(e)
    for e in ee:
        ee_by[block_of[find(pair_home[e[0]])]].append(e)

    scale = alpha.denominator
    total = 0
    nodes = 0
    timed_out = False
    color_of = [0] * len(verts)
    selected: set[PairKey] = set()
    for bi, gvars in enumerate(blocks):
        comp = _CompSolver(
            gvars, ce_by[bi], se_by[bi], ee_by[bi], scale, alpha.numerator, deadline
        )
        comp.run()
        timed_out |= comp.timed_out
        total += comp.best
        nodes += comp.nodes
        for lv, gi in enumerate(gvars):
            color_of[gi] = comp.best_colors[lv]
        selected |= comp.best_sel
    for a, b, pair in free:
        if color_of[a] == color_of[b]:
            selected.add(pair)

    colors = {v: color_of[i] for i, v in enumerate(verts)}
    check = 0
    for (u, v), cand in g.conflict_edges.items():
        if colors[u] == colors[v] and (cand is None or cand.pair not in selected):
            check += scale
    for u, v in g.stitch_edges:
        if colors[u] != colors[v]:
            check += alpha.numerator
    if check != total:
        raise AssertionError(
            f"solution bookkeeping mismatch: recount {check} != search total {total}"
        )
    return IlpSolution(
        objective=Fraction(total, scale),
        status=SolveStatus.TIMEOUT if timed_out else SolveStatus.OPTIMAL,
        nodes=nodes,
        blocks=len(blocks),
        colors=colors,
        selected=frozenset(selected),
    )


def _is_ten_smooth(n: int) -> bool:
    for p in (2, 5):
        while n % p == 0:
            n //= p
    return n == 1


def export_lp(model: IlpModel) -> str:
    """Serialise the model in LP text format with binary variables."""
    lines: list[str] = []
    alpha = model.alpha
    smooth = alpha == 0 or _is_ten_smooth(alpha.denominator)
    terms: list[str] = []
    for i, w in enumerate(model.objective):
        if w == 0:
            continue
        if smooth:
            if model.kinds[i] == "c":
                terms.append(f"+ {model.names[i]}")
            else:
                terms.append(f"+ {fraction_to_decimal(alpha)} {model.names[i]}")
        else:
            terms.append(f"+ {w} {model.names[i]}")
    if not smooth:
        lines.append(f"\\ objective scaled by {model.scale}")
    lines.append("Minimize")
    if terms:
        obj_body = " ".join(terms)
    elif model.names:
        obj_body = "0 " + model.names[0]
    else:
        obj_body = "0"
    lines.append(" obj: " + obj_body)
    lines.append("Subject To")
    for ri, (row, rhs) in enumerate(model.constraints, start=1):
        parts = [("+ " if coef > 0 else "- ") + model.names[vi] for vi, coef in row]
        lines.append(f" r{ri}: " + " ".join(parts) + f" <= {rhs}")
    lines.append("Binaries")
    chunk: list[str] = []
    width = 0
    for name in model.names:
        if width + len(name) > 72 and chunk:
            lines.append(" " + " ".join(chunk))
            chunk, width = [], 0
        chunk.append(name)
        width += len(name) + 1
    if chunk:
        lines.append(" " + " ".join(chunk))
    lines.append("End")
    return "\n".join(lines) + "\n"
