"""Alpha monotonicity as an oracle: with stitching on, a layout's optimum
minimises conflicts + alpha * stitches, so as the stitch price alpha
rises, the optimal stitch count never rises and the optimal conflict
count never falls.

For alpha1 < alpha2 with optima (c1, s1) and (c2, s2), adding
c1 + alpha1 s1 <= c2 + alpha1 s2 to c2 + alpha2 s2 <= c1 + alpha2 s1
gives (alpha2 - alpha1)(s2 - s1) <= 0, so s2 <= s1, and then the first
gives c1 <= c2. This holds for any two optima, so it needs neither a
tie-break nor a reference solver."""

from fractions import Fraction

from corpora import runs

from trimdecomp.cli import decompose_document
from trimdecomp.ilp import SolveStatus

ALPHAS = tuple(map(Fraction, ("0", "1/10", "1/3", "1/2", "1", "2", "5")))


def test_stitches_never_rise_and_conflicts_never_fall_as_alpha_rises():
    checked = dropped = 0
    for label, doc, metric in runs("alpha monotonicity"):
        assert doc.params.stitch, label
        last = None
        for alpha in ALPHAS:
            stats = decompose_document(doc, alpha=alpha, metric=metric).stats
            where = f"{label} alpha {alpha}"
            assert stats.status is SolveStatus.OPTIMAL, where
            if last is not None:
                assert stats.stitches <= last.stitches, where
                assert stats.conflicts >= last.conflicts, where
                dropped += stats.stitches < last.stitches
            last = stats
            checked += 1
    assert checked == 980
    # some layouts give up stitches as they get dearer (48 steps today)
    assert dropped > 0, dropped
