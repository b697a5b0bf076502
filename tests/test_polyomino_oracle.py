"""Differential gate on random polyomino layouts: the reported cost and
mask vector of every layout, under both metrics, equal those of an
external MILP solve of the exported model, fixed lexicographically."""

from corpora import runs
from helpers import milp_lex_witness, variable_indices

from trimdecomp.cli import decompose_document
from trimdecomp.ilp import SolveStatus, export_lp


def test_polyomino_layouts_match_the_external_lex_min_optimum():
    # most layouts export the same model under both metrics; the external
    # answer is solved once per model text
    oracle = {}
    checked = costly = cut = 0
    for label, doc, metric in runs("polyomino oracle"):
        result = decompose_document(doc, metric=metric)
        model = result.model
        text = export_lp(model)
        if text not in oracle:
            # the witness's cost is the external optimum, milp_optimum's value
            oracle[text] = milp_lex_witness(text)
        cost, witness = oracle[text]
        masks = result.report.masks
        x_of = variable_indices(model)[0]
        got = {model.names[i]: "AB".index(masks[v]) for v, i in x_of.items()}
        where = f"{label} {metric.value}"
        assert result.stats.status is SolveStatus.OPTIMAL, where
        assert result.stats.cost == cost, where
        assert got == witness, where
        checked += 1
        costly += cost > 0
        cut += bool(result.report.cuts)
    # the family leaves conflicts and selects cuts, so the gate is not idle
    assert (checked, costly, cut) == (260, 36, 168)
