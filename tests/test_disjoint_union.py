"""Disjoint union as an oracle: a layout beside a far-shifted copy of
itself is two independent problems, so it must cost exactly twice as
much, and each copy must keep the original's masks.

The copy is shifted right by the layout's width plus twice the largest of
dis_m, dis_c, h_high and w_high, so no rule relates a feature of the copy
to one of the original, and its ids follow the original's. Every block of
the copy has the structure of a block of the original, so this checks the
block split and the identical-block memo at any size, with no reference
solver. The block count and the node count are doubled too: they count
every block and its canonical search, memo hit or not."""

from corpora import runs, with_copy

from trimdecomp.cli import decompose_document
from trimdecomp.geometry import bounding_box


def test_a_layout_beside_a_copy_of_itself_costs_twice_as_much():
    checked = 0
    for label, doc, metric in runs("disjoint union"):
        p = doc.params
        (x1, _), (x2, _) = bounding_box([s.bbox for s in doc.shapes])
        union = with_copy(doc, x2 - x1 + 2 * max(p.dis_m, p.dis_c, p.h_high, p.w_high), 0)
        one = decompose_document(doc, metric=metric)
        two = decompose_document(union, metric=metric)
        where = f"{label} {metric.value}"
        a, b = one.stats, two.stats
        assert b.status is a.status, where
        assert (b.cost, b.components, b.nodes) == (2 * a.cost, 2 * a.components, 2 * a.nodes), where
        assert (b.conflicts, b.stitches) == (2 * a.conflicts, 2 * a.stitches), where
        offset = doc.shapes[-1].id
        copied = {(fid + offset, k): mask for (fid, k), mask in one.report.masks.items()}
        assert two.report.masks == {**one.report.masks, **copied}, where
        checked += 1
    assert checked == 307
