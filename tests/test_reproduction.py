"""The paper's claim, measured exactly: end-cuts lower the optimum.

Each nine-cluster random layout, each 1 x 12 cell row and each
500-shape grid is decomposed twice through the library: as
decompose_document does, and with no end-cut candidates at all, the same
conflict pairs priced with no trim mask. Every solve must be a proven
optimum, and the no-cut optimum is checked against an external MILP
solver on the exported LP. The random layouts and the cell rows are also
solved over three full masks (LELELE), on the same conflict pairs and
dis_m with no stitches, by that MILP solver.
"""

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


def optimal_sums(corpus):
    """The optimal conflict sums over the corpus with end-cuts, without
    them and over three masks (LELE-EC, LELE and LELELE), and how many of
    its no-cut optima the external solver checked: the first ten that
    leave a conflict."""
    with_sum = without_sum = three_sum = 0
    checked = 0
    for label, doc, _ in runs(corpus):
        stats = decompose_document(doc).stats
        model, sol = without_cuts(doc)
        assert stats.status is sol.status is SolveStatus.OPTIMAL, label
        # no stitches: the cost counts the conflicts
        assert stats.cost == stats.conflicts and sol.objective == len(sol.conflicts), label
        assert stats.conflicts <= len(sol.conflicts), label
        with_sum += stats.conflicts
        without_sum += len(sol.conflicts)
        three_sum += three_mask_conflicts(model.graph)
        if checked < 10 and sol.conflicts:
            assert milp_optimum(export_lp(model)) == sol.objective, label
            checked += 1
    return three_sum, with_sum, without_sum, checked


def test_end_cuts_lower_the_optimum_of_nine_cluster_layouts():
    # three masks leave fewer conflicts than two plus trim on these pairs
    assert optimal_sums("reproduction random") == (13, 26, 251, 10)


def test_three_masks_beat_end_cuts_on_cell_rows():
    # end-cuts resolve most of the two-mask conflicts of the pins' facing
    # tips, 147 -> 27, but three masks still leave fewer
    assert optimal_sums("cellrow") == (24, 27, 147, 10)


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
