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
runs exact branch and bound over each. A greedy two-colouring with a
small local search seeds the incumbent, branching follows falling
conflict degree, cut decisions are resolved at the leaves, and an
optional second pass canonicalises the optimum to the lexicographically
smallest mask vector."""

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


class _LexBudget(Exception):
    pass


class _CompSolver:
    """Exact search over one independent block of the layout graph.

    Local variable ids 0..m-1 follow the canonical (ascending segment
    index) order; branch order and the reported colouring both map back
    to it."""

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
        self.best_colors: list[int] = [0] * self.m
        self.best_sel: set[PairKey] = set()
        self.timed_out = False
        self._lex_budget = 0

    def _tick(self) -> None:
        self.nodes += 1
        if self.deadline is not None and (self.nodes & 2047) == 0:
            if time.monotonic() > self.deadline:
                raise _Timeout

    def _spend(self) -> None:
        self._lex_budget -= 1
        if self._lex_budget < 0:
            raise _LexBudget

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
        inc_cost, inc_sel = self._cost_of(incumbent)
        self.best = inc_cost
        self.best_colors = list(incumbent)
        self.best_sel = {self.pend_pair[k] for k in inc_sel}
        if self.best == 0:
            return
        try:
            self._branch(incumbent)
        except _Timeout:
            self.timed_out = True

    def _branch(self, incumbent: Sequence[int]) -> None:
        m = self.m
        ce_deg = [0] * m
        for a, b, _ in self.ce:
            ce_deg[a] += 1
            ce_deg[b] += 1
        order = sorted(range(m), key=lambda lv: (-ce_deg[lv], lv))
        pos_of = {lv: p for p, lv in enumerate(order)}
        # edges bucketed at their later-assigned endpoint; kind 0 is a plain
        # conflict, 1 a deferred candidate conflict, 2 a stitch
        eval_at: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        for a, b, pair in self.ce:
            pa, pb = pos_of[a], pos_of[b]
            eval_at[max(pa, pb)].append((min(pa, pb), 1 if pair is not None else 0))
        for a, b in self.se:
            pa, pb = pos_of[a], pos_of[b]
            eval_at[max(pa, pb)].append((min(pa, pb), 2))
        pend_pos = [(pos_of[a], pos_of[b]) for a, b in self.pend_edge]
        first_val = [incumbent[order[p]] for p in range(m)]
        wc, ws = self.wc, self.ws

        vals = [-1] * m
        tried = [0] * m
        added = [0] * m
        cost = 0
        pos = 0
        while pos >= 0:
            # colour symmetry: the first branching variable keeps its
            # incumbent value, the complement being an equal-cost mirror
            nvals = 1 if pos == 0 else 2
            if tried[pos] >= nvals:
                pos -= 1
                if pos >= 0:
                    cost -= added[pos]
                    vals[pos] = -1
                continue
            val = first_val[pos] if tried[pos] == 0 else 1 - first_val[pos]
            tried[pos] += 1
            self._tick()
            add = 0
            for lo, kind in eval_at[pos]:
                if kind == 0:
                    if vals[lo] == val:
                        add += wc
                elif kind == 2:
                    if vals[lo] != val:
                        add += ws
            if cost + add >= self.best:
                continue
            vals[pos] = val
            added[pos] = add
            cost += add
            if pos + 1 == m:
                self._leaf(vals, order, pend_pos, cost)
                cost -= add
                vals[pos] = -1
                continue
            pos += 1
            tried[pos] = 0

    def _leaf(
        self,
        vals: list[int],
        order: list[int],
        pend_pos: list[tuple[int, int]],
        xcost: int,
    ) -> None:
        chosen: set[int] = set()
        constrained: list[int] = []
        for k, (pa, pb) in enumerate(pend_pos):
            if vals[pa] != vals[pb]:
                continue
            if self.pend_adj[k]:
                constrained.append(k)
            else:
                chosen.add(k)  # nothing else cares; selecting is free

        def rec(i: int, acc: int) -> None:
            self._tick()
            if acc >= self.best:
                return
            if i == len(constrained):
                self.best = acc
                canon = [0] * self.m
                for p, lv in enumerate(order):
                    canon[lv] = vals[p]
                self.best_colors = canon
                self.best_sel = {self.pend_pair[k] for k in chosen}
                return
            k = constrained[i]
            if not any(j in chosen for j in self.pend_adj[k]):
                chosen.add(k)
                rec(i + 1, acc)
                chosen.discard(k)
            rec(i + 1, acc + self.wc)

        rec(0, xcost)

    # -- lexicographic canonicalisation -----------------------------------

    def lex_minimise(self, budget: int) -> None:
        """Rewrite the stored optimum as the lexicographically smallest
        colour vector with the same cost. The block's node allowance makes
        an oversized canonicalisation abort deterministically, keeping the
        best vector found so far."""
        m = self.m
        eval_at: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        for a, b, pair in self.ce:
            eval_at[max(a, b)].append((min(a, b), 1 if pair is not None else 0))
        for a, b in self.se:
            eval_at[max(a, b)].append((min(a, b), 2))
        self._lex_budget = budget
        witness = list(self.best_colors)
        try:
            for idx in range(m):
                if witness[idx] == 0:
                    continue
                found = self._probe(witness, idx, eval_at)
                if found is not None:
                    witness, sel = found
                    self.best_colors = list(witness)
                    self.best_sel = sel
        except _LexBudget:
            pass

    def _assign_cost(
        self,
        eval_at: list[list[tuple[int, int]]],
        vals: list[int],
        p: int,
        val: int,
    ) -> int:
        add = 0
        for lo, kind in eval_at[p]:
            if kind == 0:
                if vals[lo] == val:
                    add += self.wc
            elif kind == 2:
                if vals[lo] != val:
                    add += self.ws
        return add

    def _probe(
        self,
        witness: list[int],
        idx: int,
        eval_at: list[list[tuple[int, int]]],
    ) -> tuple[list[int], set[PairKey]] | None:
        """Lexicographically first completion of witness[:idx] + [0] that
        still attains the optimal cost, or None when there is none."""
        m = self.m
        vals = [-1] * m
        cost = 0
        for p in range(idx + 1):
            val = 0 if p == idx else witness[p]
            cost += self._assign_cost(eval_at, vals, p, val)
            vals[p] = val
            if cost > self.best:
                return None
        if idx + 1 == m:
            sel = self._leaf_exact(vals, cost)
            return (list(vals), sel) if sel is not None else None
        base = idx + 1
        tried = [0] * m
        added = [0] * m
        pos = base
        while pos >= base:
            if tried[pos] >= 2:
                pos -= 1
                if pos >= base:
                    cost -= added[pos]
                    vals[pos] = -1
                continue
            val = tried[pos]  # zero first makes the first full leaf lex-least
            tried[pos] += 1
            self._spend()
            add = self._assign_cost(eval_at, vals, pos, val)
            if cost + add > self.best:
                continue
            vals[pos] = val
            added[pos] = add
            cost += add
            if pos + 1 == m:
                sel = self._leaf_exact(vals, cost)
                if sel is not None:
                    return list(vals), sel
                cost -= add
                vals[pos] = -1
                continue
            pos += 1
            tried[pos] = 0
        return None

    def _leaf_exact(self, vals: list[int], xcost: int) -> set[PairKey] | None:
        """Cut selection completing this colouring at exactly the optimal
        cost, or None when that is impossible."""
        chosen: set[int] = set()
        constrained: list[int] = []
        for k, (a, b) in enumerate(self.pend_edge):
            if vals[a] != vals[b]:
                continue
            if self.pend_adj[k]:
                constrained.append(k)
            else:
                chosen.add(k)

        def rec(i: int, acc: int) -> set[int] | None:
            self._spend()
            if acc > self.best:
                return None
            if i == len(constrained):
                return set(chosen)
            k = constrained[i]
            if not any(j in chosen for j in self.pend_adj[k]):
                chosen.add(k)
                got = rec(i + 1, acc)
                if got is not None:
                    return got
                chosen.discard(k)
            return rec(i + 1, acc + self.wc)

        got = rec(0, xcost)
        if got is None:
            return None
        return {self.pend_pair[k] for k in got}


def solve(
    g: LayoutGraph,
    ecg: EndCutGraph | None,
    alpha: Fraction,
    *,
    time_limit: float | None = None,
    lexicographic: bool = True,
    node_budget: int = 200_000,
) -> IlpSolution:
    """Minimise conflicts plus alpha times stitches on the layout graph.

    This is the one place the problem splits: blocks linked by conflict,
    stitch or cut-spacing edges are searched separately, each with its own
    lexicographic allowance of node_budget probes, and the optima summed.
    A candidate cut with no spacing edge links nothing; it is selected
    afterwards wherever its two segments share a mask, at no cost. The
    status is TIMEOUT when any block ran out of time, in which case its
    greedy incumbent stands in for the exact answer."""
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
        if comp.timed_out:
            timed_out = True
        elif lexicographic:
            comp.lex_minimise(node_budget)
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
