"""The paper's claim, measured exactly: end-cuts lower the optimum.

Each nine-cluster random layout, each 1 x 12 cell row, each polyomino
layout, each stacked-bar and square-grid layout and each 500-shape grid
is decomposed twice through the library: as decompose_document does,
and with no end-cut candidates at all, the same conflict pairs priced
with no trim mask. Every solve must be a proven optimum, and the no-cut
optimum is checked against an external MILP solver on the exported LP.
All but the grids are also solved over three full masks (LELELE), on the
same conflict pairs and dis_m with no stitches, by that MILP solver, and
their native conflicts are counted: the 4-cliques of the conflict graph,
four segments that conflict pairwise, which no three masks resolve.
"""

import functools
from fractions import Fraction

from corpora import runs
from helpers import milp_optimum, three_mask_conflicts

from trimdecomp.cli import decompose_document
from trimdecomp.geometry import SpatialIndex
from trimdecomp.graphs import EndCutGraph, build_layout_graph, conflict_pairs
from trimdecomp.ilp import SolveStatus, build_model, export_lp, solve


def without_cuts(doc):
    """The model and solution of doc's conflict pairs with no candidates."""
    p = doc.params
    reach = max(p.dis_m, p.h_high, p.w_high)
    pairs = conflict_pairs(doc, SpatialIndex.from_shapes(doc.shapes).pairs(reach))
    model = build_model(build_layout_graph(doc, pairs, ()), EndCutGraph((), (), ()), Fraction(0))
    return model, solve(model)


def four_cliques(g) -> int:
    """The 4-cliques of g's conflict graph, each counted once, at its
    edge of the two lowest ranks."""
    adj: dict[int, set[int]] = {}
    for a, b, _ in g.conflict_edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    count = 0
    for a, near in adj.items():
        for b in near:
            if b > a:
                common = sorted(c for c in near & adj[b] if c > b)
                count += sum(len(adj[c].intersection(common[i + 1:])) for i, c in enumerate(common))
    return count


@functools.cache
def corpus_optima(corpus):
    """Each layout's optimal conflicts with end-cuts, without them and over
    three masks (LELE-EC, LELE and LELELE), and the 4-cliques of its
    conflict graph, by label; and how many of its no-cut optima the
    external solver checked: the first ten that leave a conflict."""
    optima = {}
    checked = 0
    for label, doc, _ in runs(corpus):
        stats = decompose_document(doc).stats
        model, sol = without_cuts(doc)
        assert stats.status is sol.status is SolveStatus.OPTIMAL, label
        # no stitches: the cost counts the conflicts
        assert stats.cost == stats.conflicts and sol.objective == len(sol.conflicts), label
        assert stats.conflicts <= len(sol.conflicts), label
        optima[label] = (
            stats.conflicts,
            len(sol.conflicts),
            three_mask_conflicts(model.graph),
            four_cliques(model.graph),
        )
        if checked < 10 and sol.conflicts:
            assert milp_optimum(export_lp(model)) == sol.objective, label
            checked += 1
    return optima, checked


def optimal_sums(corpus):
    """The optimal conflict sums over the corpus over three masks, with
    end-cuts and without them (LELELE, LELE-EC and LELE), and how many
    of its no-cut optima the external solver checked."""
    optima, checked = corpus_optima(corpus)
    with_sum, without_sum, three_sum, _ = map(sum, zip(*optima.values()))
    return three_sum, with_sum, without_sum, checked


def native_conflicts(corpus):
    """The 4-cliques summed over the corpus; the labels of the layouts
    that have one but no three-mask conflict, which must be none: a
    4-clique has no three-colouring; and the labels of the layouts whose
    4-clique count differs from their three-mask optimum."""
    optima, _ = corpus_optima(corpus)
    uncounted = [label for label, (_, _, three, cliques) in optima.items() if cliques and not three]
    differing = [label for label, (_, _, three, cliques) in optima.items() if cliques != three]
    return sum(cliques for *_, cliques in optima.values()), uncounted, differing


def test_end_cuts_lower_the_optimum_of_nine_cluster_layouts():
    # three masks leave fewer conflicts than two plus trim on these pairs
    assert optimal_sums("reproduction random") == (13, 26, 251, 10)


def test_three_masks_beat_end_cuts_on_cell_rows():
    # end-cuts resolve most of the two-mask conflicts of the pins' facing
    # tips, 147 -> 27, but three masks still leave fewer
    assert optimal_sums("cellrow") == (24, 27, 147, 10)


def test_native_conflicts_of_nine_cluster_layouts():
    # every three-mask conflict of these layouts is a native one: each
    # layout has as many 4-cliques as its LELELE optimum, 13 in all
    assert native_conflicts("reproduction random") == (13, [], [])


def test_native_conflicts_of_cell_rows():
    # 19 4-cliques, 5 short of the LELELE sum of 24: four cell rows have
    # three-mask conflicts that no 4-clique forces (2, 1 and 1 with no
    # 4-clique, 2 with one)
    assert native_conflicts("cellrow") == (19, [], ["cellrow0", "cellrow1", "cellrow12", "cellrow16"])


def test_three_masks_beat_end_cuts_on_polyominoes():
    # 56 two-mask conflicts, 18 with end-cuts and 11 over three masks; yet
    # poly53 and poly95 end at 0 with end-cuts and at 1 over three masks
    assert optimal_sums("reproduction polyominoes") == (11, 18, 56, 10)


def test_native_conflicts_of_polyominoes():
    # ten layouts have a three-mask conflict, each with a 4-clique; three
    # have more 4-cliques than conflicts, as one conflict on a shared edge
    # resolves two: 16 4-cliques against an LELELE sum of 11
    assert native_conflicts("reproduction polyominoes") == (16, [], ["poly5", "poly56", "poly94"])


def test_three_masks_beat_end_cuts_on_dense_layouts():
    # stacked bars and square grids: 42 two-mask conflicts, 26 with
    # end-cuts and 15 over three masks
    assert optimal_sums("reproduction dense") == (15, 26, 42, 4)


def test_native_conflicts_of_dense_layouts():
    # every dense layout has more 4-cliques than three-mask conflicts, its
    # 4-cliques sharing edges: 37 of them against an LELELE sum of 15
    assert native_conflicts("reproduction dense") == (37, [], ["stack12", "stack20", "grid2x6", "grid3x4"])


def test_end_cuts_lower_the_optimum_of_grid_layouts():
    # five rows of 100 shapes, one of each kind: 33 conflicts with
    # end-cuts, the closed form, and 83 without them, whatever the seed
    for seed, (_, doc, _) in enumerate(runs("reproduction grid")):
        stats = decompose_document(doc).stats
        model, sol = without_cuts(doc)
        assert stats.status is sol.status is SolveStatus.OPTIMAL, seed
        assert (stats.cost, stats.conflicts) == (33, 33), seed
        assert (sol.objective, len(sol.conflicts)) == (83, 83), seed
    assert milp_optimum(export_lp(model)) == 83
