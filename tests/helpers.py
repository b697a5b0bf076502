"""Shared oracles and generators for the test suite.

Everything here recomputes answers by a route the package itself never
takes: plain enumeration over all assignments, an external
mixed-integer solve of the exported LP text, and an all-pairs search for
fusable trim rectangles. Tests compare the package against these, never
against itself.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

from trimdecomp.endcut import BoxKind, EndCutBox, EndCutCandidate, merge_union
from trimdecomp.geometry import Rect
from trimdecomp.graphs import EndCutGraph, LayoutGraph
from trimdecomp.ilp import IlpModel, IlpSolution
from trimdecomp.layout_io import DecompositionParams, StitchPoint


def enumerate_model(model: IlpModel) -> tuple[Fraction, dict[str, int]]:
    """Optimal value and lexicographically least optimal mask vector of a
    small model, by checking every assignment of every binary variable."""
    nv = len(model.names)
    if nv == 0:
        return Fraction(0), {}
    assert nv <= 16, "enumeration oracle is for small models only"
    bits = (np.arange(1 << nv, dtype=np.int64)[:, None] >> np.arange(nv)) & 1
    feasible = np.ones(1 << nv, dtype=bool)
    for terms, rhs in model.constraints:
        total = np.zeros(1 << nv, dtype=np.int64)
        for vi, coef in terms:
            total += coef * bits[:, vi]
        feasible &= total <= rhs
    assert feasible.any(), "every model admits some assignment"
    obj = bits @ np.asarray(model.objective, dtype=np.int64)
    best = int(obj[feasible].min())
    x_cols = [i for i, k in enumerate(model.kinds) if k == "x"]
    # rank mask vectors with the first variable most significant
    key = np.zeros(1 << nv, dtype=np.int64)
    for i in x_cols:
        key = (key << 1) | bits[:, i]
    optimal = feasible & (obj == best)
    row = int(np.flatnonzero(optimal)[np.argmin(key[optimal])])
    witness = {model.names[i]: int(bits[row, i]) for i in x_cols}
    return Fraction(best, model.scale), witness


def solution_values(g: LayoutGraph, model: IlpModel, sol: IlpSolution) -> dict[str, int]:
    """Every variable of the model built from g, by name, read off a
    solution of g: masks and cuts as solved, conflict and stitch
    indicators derived from them."""
    values = {model.names[i]: sol.colors[v] for v, i in model.x_of.items()}
    for pair, i in model.ec_of.items():
        values[model.names[i]] = int(pair in sol.selected)
    for (u, v), cand in g.conflict_edges.items():
        cut = cand is not None and cand.pair in sol.selected
        values[model.names[model.c_of[(u, v)]]] = int(sol.colors[u] == sol.colors[v] and not cut)
    for (u, v), i in model.s_of.items():
        values[model.names[i]] = int(sol.colors[u] != sol.colors[v])
    return values


def enumerate_layout_optimum(
    g: LayoutGraph, ecg: EndCutGraph | None, alpha: Fraction
) -> Fraction:
    """Optimum of a conflict graph by trying every colouring and, within
    each, every independent set of cuts on the same-mask candidate edges."""
    verts = g.vertices()
    n = len(verts)
    assert n <= 16, "layout enumeration oracle is for small graphs only"
    vi = {v: i for i, v in enumerate(verts)}
    plain = []
    cand = []
    for (u, v), c in g.conflict_edges.items():
        if c is None:
            plain.append((vi[u], vi[v]))
        else:
            cand.append((vi[u], vi[v], c.pair))
    se = [(vi[u], vi[v]) for u, v in g.stitch_edges]
    ee = set(ecg.ee_edges) if ecg is not None else set()
    best: Fraction | None = None
    for mask in range(1 << n):
        col = [(mask >> i) & 1 for i in range(n)]
        cost = Fraction(sum(1 for a, b in plain if col[a] == col[b]))
        cost += alpha * sum(1 for a, b in se if col[a] != col[b])
        mono = [p for a, b, p in cand if col[a] == col[b]]
        saved = 0
        for r in range(len(mono), 0, -1):
            for chosen in itertools.combinations(mono, r):
                cs = set(chosen)
                if any(pa in cs and pb in cs for pa, pb in ee):
                    continue
                saved = r
                break
            if saved:
                break
        cost += len(mono) - saved
        if best is None or cost < best:
            best = cost
    assert best is not None
    return best


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


def _dummy_candidate(pair: tuple[int, int]) -> EndCutCandidate:
    a, b = pair
    box = EndCutBox(
        rect=Rect.of(a * 1000, b * 1000, a * 1000 + 20, b * 1000 + 20),
        kind=BoxKind.EDGE_EDGE,
        run_axis="x",
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
        g = LayoutGraph(segments=segments, conflict_edges=edges, stitch_edges=stitch_edges)
        ecg = EndCutGraph(cands, frozenset(ee), frozenset())
        alpha = rng.choice(
            [Fraction(1, 10), Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(0)]
        )
        return g, ecg, alpha


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
