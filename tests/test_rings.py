"""Differential gate on stitch rings: the reported cost and mask vector
of every ring layout equal those of an external MILP solve of the
exported model, fixed lexicographically."""

from corpora import runs
from helpers import milp_lex_witness, variable_indices

from trimdecomp.cli import decompose_document
from trimdecomp.ilp import SolveStatus, export_lp


def test_rings_match_the_external_lex_min_optimum():
    checked = stitched = cut = conflicted = 0
    for label, doc, metric in runs("rings"):
        result = decompose_document(doc, metric=metric)
        model = result.model
        cost, witness = milp_lex_witness(export_lp(model))
        x_of = variable_indices(model)[0]
        got = {model.names[i]: "AB".index(result.report.masks[v]) for v, i in x_of.items()}
        assert result.stats.status is SolveStatus.OPTIMAL, label
        assert result.stats.cost == cost, label
        assert got == witness, label
        checked += 1
        stitched += bool(result.report.stitches)
        cut += bool(result.report.cuts)
        conflicted += cost == 1
    # a stitch, a cut and a conflict each break some ring's odd cycle
    assert (checked, stitched, cut, conflicted) == (20, 12, 6, 2)
