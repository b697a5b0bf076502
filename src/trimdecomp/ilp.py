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

The formulation is written once, as data: one row template per edge
kind (conflict, conflict with a cut, stitch, spacing), whose terms name
slots of the edge's variables. IlpModel is the layout graph and the
end-cut graph themselves, with alpha: each edge once, by kind, on the
ranks the graphs decided. export_lp writes each edge with one f-string
generated from its kind's template, in one pass over the graphs' edge
tuples: the LP text is the one written form of the rows. The pipeline
builds the model once per decomposition: solve optimises it and
export_lp prints it.

solve prices each edge from its kind's cost_table and splits the model
into independent blocks, one exact branch and bound per distinct block
structure, reached only through _search: a block's priced structure in,
its BlockAnswer out. A greedy two-colouring seeds each search, which
assigns masks in ascending segment order, mask 0 first, so the first
leaf it meets at the optimal cost is the lexicographically smallest
optimal mask vector, the promised tie-break. Its IlpSolution is the
whole answer on ranks: masks by segment, the selected cuts, and the
conflict and stitch edges it leaves."""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .geometry import components
from .graphs import EndCutGraph, LayoutGraph
from .layout_io import SolveStatus, _collector_paused, fraction_to_decimal


class ModelError(ValueError):
    pass


# A row: its (variable, sign) terms, whose sum is at most its right-hand
# side. A row template: the rows of one edge kind, each term naming a slot
# of the edge's variable-index tuple instead of a variable.
Row = tuple[tuple[tuple[int, int], ...], int]
RowTemplate = tuple[Row, ...]

# slots (x_i, x_j, c): c is 1 when both segments share a mask
CONFLICT_ROWS: RowTemplate = (
    (((0, 1), (1, 1), (2, -1)), 1),
    (((0, -1), (1, -1), (2, -1)), -1),
)
# slots (x_i, x_j, c, ec): the cut ec may stand in for c, and only
# between two segments on one mask
CUT_CONFLICT_ROWS: RowTemplate = (
    (((0, 1), (1, 1), (2, -1), (3, -1)), 1),
    (((0, -1), (1, -1), (2, -1), (3, -1)), -1),
    (((3, 1), (0, 1), (1, -1)), 1),
    (((3, 1), (1, 1), (0, -1)), 1),
)
# slots (x_i, x_j, s): s is 1 when the two segments differ
STITCH_ROWS: RowTemplate = (
    (((0, 1), (1, -1), (2, -1)), 0),
    (((1, 1), (0, -1), (2, -1)), 0),
)
# slots (ec_a, ec_b): two cuts too close to print separately
SPACING_ROWS: RowTemplate = ((((0, 1), (1, 1)), 1),)


@functools.cache
def cost_table(template: RowTemplate) -> Mapping[tuple[int, ...], int | None]:
    """Each 0-1 value of the template's slots but slot 2, its indicator,
    mapped to the least indicator value for which every row holds (tried
    at 0 first), or None where none does; spacing has no indicator, so 0
    or None. Made on first use and shared by every caller, so read-only."""
    slots = 1 + max(slot for terms, _ in template for slot, _ in terms)
    table: dict[tuple[int, ...], int | None] = {}
    for v in itertools.product((0, 1), repeat=slots):
        if table.get(key := v[:2] + v[3:]) is None:
            holds = all(sum(sign * v[slot] for slot, sign in terms) <= rhs for terms, rhs in template)
            table[key] = sum(v[2:3]) if holds else None
    return MappingProxyType(table)


@dataclass(frozen=True)
class IlpModel:
    # the variables follow the graphs' ranks: the x block is the layout
    # graph's segments, the ec block the end-cut graph's candidates, and
    # the c and s blocks its conflict and stitch edges; a variable's index
    # is its rank in its block after the earlier blocks
    graph: LayoutGraph
    end_cuts: EndCutGraph
    alpha: Fraction

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        """Every variable's LP name in index order, made on first use:
        only exports and checks read them."""
        segs = self.graph.segments
        multi = {f for f, k in segs if k > 0}
        tok = [f"{f}_{k}" if f in multi else str(f) for f, k in segs]
        return (
            *[f"x_{t}" for t in tok],
            *[f"ec_{c.pair[0]}_{c.pair[1]}" for c in self.end_cuts.candidates],
            *[f"c_{tok[a]}_{tok[b]}" for a, b, _ in self.graph.conflict_edges],
            *[f"s_{segs[a][0]}_{segs[a][1]}_{segs[b][1]}" for a, b in self.graph.stitch_edges],
        )

    @property
    def scale(self) -> int:
        """The factor that makes every weight an integer: alpha's
        denominator."""
        return self.alpha.denominator


@dataclass(frozen=True)
class IlpSolution:
    objective: Fraction
    status: SolveStatus
    nodes: int
    blocks: int
    # each segment's mask by segment rank, 0 for A and 1 for B
    colors: tuple[int, ...]
    # the ascending ranks of the selected cuts, of the conflict edges left
    # on a shared mask with no selected cut, and of the stitch edges whose
    # two segments differ
    selected: tuple[int, ...]
    conflicts: tuple[int, ...]
    stitches: tuple[int, ...]


def build_model(g: LayoutGraph, ecg: EndCutGraph, alpha: Fraction) -> IlpModel:
    """The whole 0-1 model of the layout graph and its end-cut graph, with
    alpha per stitch. It holds the graphs themselves, whose ranks are the
    variables' ranks in their blocks, so it sorts and maps nothing."""
    if alpha < 0:
        raise ModelError("alpha must be non-negative")
    return IlpModel(g, ecg, alpha)


class _Timeout(Exception):
    pass


# A block's local structure, priced from cost_table: its vertex count;
# each edge that colours alone settle, a conflict with no pending cut or a
# stitch, as (a, b, price on one mask, price across); each pending cut's
# conflict edge as (a, b, its skip price), a cut's index being its rank in
# that list; its cut-spacing edges as sorted pairs of those indices.
BlockStructure = tuple[
    int,
    tuple[tuple[int, int, int, int], ...],
    tuple[tuple[int, int, int], ...],
    tuple[tuple[int, int], ...],
]


class BlockAnswer(NamedTuple):
    """A block search's scaled cost, local masks, selected pending-cut
    indices and node count; when timed_out, the best found by the deadline,
    not the lexicographically smallest optimum."""

    cost: int
    colors: list[int]
    selected: set[int]
    nodes: int
    timed_out: bool


# The node count of the canonical search of a lone segment's block: one
# node for its mask A and one for the empty cut selection of that colouring.
_LONE_NODES = 2


class _CompSolver:
    """Exact search over one independent block of the layout graph.

    The search sees only the block's priced local structure, and its
    answer is the mask of each local vertex plus the indices of the
    pending cuts it selects. A colouring costs each pair's price on one
    mask or across, plus the price of each cut it skips on a shared mask.
    Local variable ids 0..m-1 follow the canonical (ascending segment
    index) order. The search assigns them in that order, mask 0 before
    mask 1, and settles the cuts of each complete colouring in index
    order, so leaves arrive in lexicographic order of the mask vector.
    Only a leaf strictly cheaper than the bound is accepted, and the bound
    starts one above the incumbent's cost: the last leaf accepted is the
    first one at the optimal cost, the lexicographically smallest optimum.

    A leaf is settled on ints, cut k being bit 1 << k: the branch grows
    the bitmask of cuts on a shared mask as it assigns each cut's later
    endpoint, and a cut is selectable when the cuts selected so far miss
    its spacing neighbours (cut_adj). A child is counted and checked
    against the bound before it is called, so a pruned child costs no
    call. Only an accepted leaf copies vals and decodes best_sel.

    A solver holds no reference cycle (cut selection recurses through the
    _select method, not through a closure that refers to itself), so
    reference counting frees it as soon as its block is done. The pipeline
    runs with the cyclic collector paused and relies on that."""

    def __init__(self, block: BlockStructure, deadline: float | None):
        self.m, self.pairs, self.cuts, spacing = block
        self.deadline = deadline
        self.nodes = 0

        # each pending cut's spacing neighbours as one bitmask
        self.cut_adj = [0] * len(self.cuts)
        for ka, kb in spacing:
            self.cut_adj[ka] |= 1 << kb
            self.cut_adj[kb] |= 1 << ka

        self.vals = [0] * self.m

    # -- incumbent -------------------------------------------------------

    def _greedy_colors(self) -> list[int]:
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(self.m)]
        # a pending cut's conflict weighs nothing here: its cut may resolve it
        unpriced = [(a, b, 0, 0) for a, b, _ in self.cuts]
        for a, b, same, diff in (*self.pairs, *unpriced):
            adj[a].append((b, same, diff))
            adj[b].append((a, same, diff))
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
        chosen = 0
        cost = 0
        for k, (a, b, price) in enumerate(self.cuts):
            if color[a] != color[b]:
                continue
            if chosen & self.cut_adj[k]:
                cost += price
            else:
                chosen |= 1 << k
        for a, b, same, diff in self.pairs:
            cost += same if color[a] == color[b] else diff
        return cost, _indices(chosen)

    # -- exact search ----------------------------------------------------

    def run(self) -> BlockAnswer:
        incumbent = self._greedy_colors()
        if incumbent[0] == 1:
            # the mirror costs the same and keeps variable 0 on mask 0
            incumbent = [1 - c for c in incumbent]
        inc_cost, inc_sel = self._cost_of(incumbent)
        self.best = inc_cost
        self.bound = inc_cost + 1  # scaled costs are integers
        self.best_colors = incumbent
        self.best_sel = inc_sel
        timed_out = False
        try:
            self._branch()
        except _Timeout:
            timed_out = True
        return BlockAnswer(self.best, self.best_colors, self.best_sel, self.nodes, timed_out)

    def _branch(self) -> None:
        m, vals, deadline = self.m, self.vals, self.deadline
        # edges bucketed at their later endpoint as (earlier endpoint,
        # price on one mask, price across, cut bit); a pending cut is priced
        # at the leaf, where it is chosen
        at: list[list[tuple[int, int, int, int]]] = [[] for _ in range(m)]
        for a, b, same, diff in self.pairs:
            at[max(a, b)].append((min(a, b), same, diff, 0))
        for k, (a, b, _) in enumerate(self.cuts):
            at[max(a, b)].append((min(a, b), 0, 0, 1 << k))

        added = [0] * m
        # eq[pos]: the cuts whose two segments, both before pos, share a mask
        eq = [0] * (m + 1)
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
            nodes = self.nodes = self.nodes + 1
            if not nodes & 2047 and deadline is not None and time.monotonic() > deadline:
                raise _Timeout
            add = 0
            same_mask = eq[pos]
            for lo, same, diff, bit in at[pos]:
                if vals[lo] == val:
                    add += same
                    same_mask |= bit
                else:
                    add += diff
            if cost + add >= self.bound:
                continue
            vals[pos] = val
            if pos + 1 == m:
                # the cut selection is one more node; each pending cut has
                # a spacing neighbour, so each one on a shared mask is a choice
                nodes = self.nodes = nodes + 1
                if not nodes & 2047 and deadline is not None and time.monotonic() > deadline:
                    raise _Timeout
                self._select(0, same_mask, cost + add)
                continue
            eq[pos + 1] = same_mask
            added[pos] = add
            cost += add
            pos += 1
            nxt[pos] = 0

    def _select(self, chosen: int, rest: int, acc: int) -> None:
        """Settle the cuts of bitmask rest, lowest index first, select before
        skip, a skipped cut adding its price, chosen being the cuts selected
        so far. The caller counts this node and calls it only below the bound."""
        if not rest:
            self.bound = self.best = acc
            self.best_colors = list(self.vals)
            self.best_sel = _indices(chosen)
            return
        low = rest & -rest
        rest ^= low
        k = low.bit_length() - 1
        if not chosen & self.cut_adj[k]:
            # acc is unchanged, so still below the bound
            nodes = self.nodes = self.nodes + 1
            if not nodes & 2047 and self.deadline is not None and time.monotonic() > self.deadline:
                raise _Timeout
            self._select(chosen | low, rest, acc)
        nodes = self.nodes = self.nodes + 1
        if not nodes & 2047 and self.deadline is not None and time.monotonic() > self.deadline:
            raise _Timeout
        acc += self.cuts[k][2]
        if acc < self.bound:
            self._select(chosen, rest, acc)


def _indices(mask: int) -> set[int]:
    """The positions of the set bits of a bitmask."""
    return {k for k in range(mask.bit_length()) if mask >> k & 1}


def _search(block: BlockStructure, deadline: float | None) -> BlockAnswer:
    """The answer of one priced block: the one place solve reaches a
    search, and the one seam where another exact search can stand in."""
    return _CompSolver(block, deadline).run()


def solve(model: IlpModel, *, time_limit: float | None = None) -> IlpSolution:
    """Minimise the model's objective: conflicts plus alpha times stitches.

    solve reads the graphs' edges, stored per kind on segment and cut
    ranks, not the rows. Every edge is priced here, once, from its kind's
    cost_table, and each block's search gets those prices in its
    BlockStructure. The answer is on ranks too: masks by segment rank, and
    the ranks of the selected cuts and of the conflict and stitch edges.

    This is the one place the problem splits: the components of the
    conflict, stitch and cut-spacing edges are searched separately and
    the optima summed. A cut constrains the search only through a spacing
    edge with another cut; any other cut links nothing and is selected
    afterwards wherever its two segments share a mask, at no cost. A
    component of one segment, which no searched edge reaches, is a block
    on its own: it takes mask A, its canonical answer, with no block
    record, structure key or search. Blocks of one local structure
    are searched once, and the others take that answer through their own
    ids. blocks and nodes still count every block and its canonical
    search, as if each had run. A search that ran out of time is never
    reused. Each block reports its lexicographically smallest optimal
    mask vector, so status OPTIMAL implies the canonical answer. The
    status is TIMEOUT when any block ran out of time, in which case the
    best colouring found so far stands in for the exact answer.

    The answer is priced and checked here and nowhere else. One recount
    of the final colouring, on the vertex indices of each edge, lists the
    conflicts left and the stitches realised, and must match the search
    total; no two selected cuts may share a spacing edge. A failed check
    raises AssertionError."""
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    n = len(model.graph.segments)
    scale, ws = model.scale, model.alpha.numerator
    ends, stitch_edges = model.graph.conflict_edges, model.graph.stitch_edges
    spacing = model.end_cuts.ee_edges
    spaced = {k for e in spacing for k in e}
    # each kind's costs scaled by its weight: a conflict whose cut has a
    # spacing edge is pending, any other cut is free
    conflict, stitch, cut_conflict = map(cost_table, (CONFLICT_ROWS, STITCH_ROWS, CUT_CONFLICT_ROWS))
    pairs = [(a, b, scale * conflict[0, 0], scale * conflict[0, 1]) for a, b, k in ends if k < 0]
    pairs += [(a, b, ws * stitch[0, 0], ws * stitch[0, 1]) for a, b in stitch_edges]
    pend = [(a, b, scale * cut_conflict[0, 0, 0], k) for a, b, k in ends if k in spaced]
    free = [(a, b, k) for a, b, k in ends if k >= 0 and k not in spaced]
    cut_home = {cut: a for a, _, _, cut in pend}

    links = [(a, b) for a, b, _, _ in pairs + pend]
    try:
        links += [(cut_home[ka], cut_home[kb]) for ka, kb in spacing]
    except KeyError as exc:  # only a hand-built end-cut graph can hold such a cut
        k, cuts = exc.args[0], model.end_cuts.candidates
        what = cuts[k].pair if 0 <= k < len(cuts) else f"rank {k}"
        raise ModelError(f"cut {what} has a spacing edge but no conflict edge carries it") from None

    # blocks in order of their lowest vertex; a vertex's local id is its
    # rank in its block, so local order is canonical order
    blocks = [c for c in components(n, links) if len(c) > 1]
    blk, local = [0] * n, [0] * n
    for bi, gvars in enumerate(blocks):
        for li, i in enumerate(gvars):
            blk[i] = bi
            local[i] = li
    lone = n - sum(map(len, blocks))
    pairs_by: list[list[tuple[int, int, int, int]]] = [[] for _ in blocks]
    pend_by: list[list[tuple[int, int, int]]] = [[] for _ in blocks]
    ee_by: list[list[tuple[int, int]]] = [[] for _ in blocks]
    cuts_by: list[list[int]] = [[] for _ in blocks]
    cut_index: dict[int, int] = {}
    for a, b, same, diff in pairs:
        pairs_by[blk[a]].append((local[a], local[b], same, diff))
    for a, b, price, cut in pend:
        bi = blk[a]
        cut_index[cut] = len(cuts_by[bi])
        cuts_by[bi].append(cut)
        pend_by[bi].append((local[a], local[b], price))
    for ka, kb in spacing:
        la, lb = cut_index[ka], cut_index[kb]
        ee_by[blk[cut_home[ka]]].append((la, lb) if la < lb else (lb, la))

    total = 0
    nodes = 0
    timed_out = False
    # a lone segment takes mask A, its canonical search's answer
    color_of = [0] * n
    selected: set[int] = set()
    # the search depends only on a block's priced structure, so identical
    # blocks share one finished search; a search cut short by the deadline
    # is not an answer and is never reused
    memo: dict[BlockStructure, BlockAnswer] = {}
    for bi, gvars in enumerate(blocks):
        key = (len(gvars), tuple(pairs_by[bi]), tuple(pend_by[bi]), tuple(sorted(ee_by[bi])))
        answer = memo.get(key)
        if answer is None:
            answer = _search(key, deadline)
            if answer.timed_out:
                timed_out = True
            else:
                memo[key] = answer
        total += answer.cost
        nodes += answer.nodes
        for gi, c in zip(gvars, answer.colors):
            color_of[gi] = c
        selected.update(cuts_by[bi][k] for k in answer.selected)
    for a, b, cut in free:
        if color_of[a] == color_of[b]:
            selected.add(cut)

    # the recount reads the graphs' edges, not the prices; no cut is -1
    conflicts = tuple(
        [i for i, (a, b, k) in enumerate(ends) if color_of[a] == color_of[b] and k not in selected]
    )
    stitches = tuple(
        [i for i, (a, b) in enumerate(stitch_edges) if color_of[a] != color_of[b]]
    )
    check = scale * len(conflicts) + ws * len(stitches)
    if check != total:
        raise AssertionError(
            f"solution bookkeeping mismatch: recount {check} != search total {total}"
        )
    for ka, kb in spacing:
        if ka in selected and kb in selected:
            cuts = model.end_cuts.candidates
            raise AssertionError(
                f"cuts {cuts[ka].pair} and {cuts[kb].pair} are too close to both print"
            )
    return IlpSolution(
        objective=Fraction(total, scale),
        status=SolveStatus.TIMEOUT if timed_out else SolveStatus.OPTIMAL,
        nodes=nodes + lone * _LONE_NODES,
        blocks=len(blocks) + lone,
        colors=tuple(color_of),
        selected=tuple(sorted(selected)),
        conflicts=conflicts,
        stitches=stitches,
    )


@functools.cache
def _rows_writer(template: RowTemplate) -> Callable[..., str]:
    """The LP text of one edge's rows as one f-string, generated from the
    template on first use: a function of the first row's number r and
    the slots' names v0, v1, ... in slot order."""
    slots = 1 + max(slot for terms, _ in template for slot, _ in terms)
    rows = "\n".join(
        (f" r{{r + {ri}}}: " if ri else " r{r}: ")
        + " ".join(f"{'+' if sign > 0 else '-'} {{v{slot}}}" for slot, sign in terms)
        + f" <= {rhs}"
        for ri, (terms, rhs) in enumerate(template)
    )
    params = ", ".join(["r", *[f"v{slot}" for slot in range(slots)]])
    return eval(f"lambda {params}: f{rows!r}", {})


@_collector_paused
def export_lp(model: IlpModel) -> str:
    """Serialise the model in LP text format with binary variables.

    One pass over the edges in row order writes each edge with its kind's
    writer, one f-string generated from the row template, reading names
    by rank: segment a is names[a], cut k names[nx + k], and a c or s
    variable its edge's place after the x and ec blocks. Only c and s
    variables carry a weight. Stitches weigh alpha as a decimal when
    fraction_to_decimal finds one; otherwise the objective is written
    scaled to integers by alpha's denominator."""
    names = model.names
    ends, stitch_edges = model.graph.conflict_edges, model.graph.stitch_edges
    nx = len(model.graph.segments)
    c0 = nx + len(model.end_cuts.candidates)
    s0 = c0 + len(ends)
    alpha_text = fraction_to_decimal(model.alpha)
    lines: list[str] = []
    c_weight, s_weight = "", f"{alpha_text} "
    if "/" in alpha_text:
        lines.append(f"\\ objective scaled by {model.scale}")
        c_weight, s_weight = f"{model.scale} ", f"{model.alpha.numerator} "
    terms = [f"+ {c_weight}{name}" for name in names[c0:s0]]
    terms += [f"+ {s_weight}{name}" for name in names[s0:]] if model.alpha else []
    obj_body = " ".join(terms) or (f"0 {names[0]}" if names else "0")
    lines += ["Minimize", f" obj: {obj_body}", "Subject To"]
    templates = (CONFLICT_ROWS, CUT_CONFLICT_ROWS, STITCH_ROWS, SPACING_ROWS)
    plain, cut, stitch, spacing = map(_rows_writer, templates)
    n_plain, n_cut, n_stitch, n_spacing = map(len, templates)
    ri = 1
    for ci, (a, b, k) in enumerate(ends, c0):
        if k < 0:
            lines.append(plain(ri, names[a], names[b], names[ci]))
            ri += n_plain
        else:
            lines.append(cut(ri, names[a], names[b], names[ci], names[nx + k]))
            ri += n_cut
    for si, (a, b) in enumerate(stitch_edges, s0):
        lines.append(stitch(ri, names[a], names[b], names[si]))
        ri += n_stitch
    for ka, kb in model.end_cuts.ee_edges:
        lines.append(spacing(ri, names[nx + ka], names[nx + kb]))
        ri += n_spacing
    lines.append("Binaries")
    start = width = 0
    for i, size in enumerate(map(len, names)):
        if width + size > 72 and width:
            lines.append(" " + " ".join(names[start:i]))
            start, width = i, 0
        width += size + 1
    if width:
        lines.append(" " + " ".join(names[start:]))
    lines += ["End", ""]
    return "\n".join(lines)
