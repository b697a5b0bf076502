"""Differential gate on the dense families: stacked bars and square grids,
where every feature conflicts with several others and HiGHS itself needs
a second or more. Every layout is proven optimal at the cost and the
lexicographically least mask vector of an external MILP solve of its
exported model."""

from corpora import runs
from helpers import milp_lex_witness, variable_indices

from trimdecomp.cli import decompose_document
from trimdecomp.ilp import SolveStatus, export_lp


def test_dense_layouts_match_the_external_lex_min_optimum():
    costs = {}
    for label, doc, metric in runs("dense"):
        result = decompose_document(doc, metric=metric)
        model = result.model
        cost, witness = milp_lex_witness(export_lp(model))
        x_of = variable_indices(model)[0]
        got = {model.names[i]: "AB".index(result.report.masks[v]) for v, i in x_of.items()}
        assert result.stats.status is SolveStatus.OPTIMAL, label
        assert result.stats.cost == cost, label
        assert got == witness, label
        costs[label] = cost
    assert costs == {"stack12": 6, "stack20": 12, "grid2x6": 3, "grid3x4": 5}
