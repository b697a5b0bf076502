"""Differential gate on cell rows: every 1 x 12 cell-row layout is proven
optimal at the cost of an external MILP solve of its exported model."""

from corpora import runs
from helpers import milp_optimum

from trimdecomp.cli import decompose_document
from trimdecomp.ilp import SolveStatus, export_lp


def test_cell_rows_match_the_external_optimum():
    checked = costly = 0
    for label, doc, metric in runs("cellrow"):
        result = decompose_document(doc, metric=metric)
        assert result.stats.status is SolveStatus.OPTIMAL, label
        assert result.stats.cost == milp_optimum(export_lp(result.model)), label
        checked += 1
        costly += result.stats.cost > 0
    # the rails' facing pin tips leave conflicts, so the gate is not idle
    assert (checked, costly) == (20, 14)
