"""Differential gate against HiGHS: each run of every family below must
report `status optimal` at the optimum HiGHS proves for its exported LP,
and on the lexicographic rows the lexicographically least optimal mask
vector that HiGHS fixes variable by variable (helpers.highs_oracle and
helpers.assert_proven_optimum). A family joins the gate as one more row."""

from collections import Counter
from fractions import Fraction

import pytest
from corpora import runs
from helpers import assert_proven_optimum, highs_oracle

from trimdecomp.cli import decompose_document

# corpus: lexicographic, then its pin: the runs, the runs by optimal cost,
# the runs that select a cut and the runs that realise a stitch
GATE = {
    # a stitch, a cut and a conflict each break some ring's odd cycle
    "rings": (True, 20, {0: 6, Fraction(1, 10): 2, Fraction(1, 3): 5, Fraction(1, 2): 5, 1: 2}, 6, 12),
    "polyomino oracle": (True, 260, {0: 224, 1: 31, 2: 4, 3: 1}, 168, 0),
    # cost only: fixing the masks one by one would triple the row's time
    "cellrow": (False, 20, {0: 6, 1: 5, 2: 5, 3: 4}, 20, 0),
}


@pytest.mark.parametrize("corpus", GATE)
def test_family_matches_the_external_optimum(corpus):
    lex, *pin = GATE[corpus]
    oracle = highs_oracle(lex)
    done = cut = stitched = 0
    costs = Counter()
    for label, doc, metric in runs(corpus):
        result = decompose_document(doc, metric=metric)
        assert_proven_optimum(result, f"{label} {metric.value}", oracle)
        done += 1
        costs[result.stats.cost] += 1
        cut += bool(result.report.cuts)
        stitched += bool(result.report.stitches)
    assert [done, costs, cut, stitched] == pin


def test_dense_layouts_match_the_external_lex_min_optimum():
    # stacked bars and square grids, where HiGHS itself needs a second or
    # more; ROADMAP item 16 names each layout's optimum
    costs, oracle = {}, highs_oracle()
    for label, doc, metric in runs("dense"):
        result = decompose_document(doc, metric=metric)
        assert_proven_optimum(result, label, oracle)
        costs[label] = result.stats.cost
    assert costs == {"stack12": 6, "stack20": 12, "grid2x6": 3, "grid3x4": 5}
