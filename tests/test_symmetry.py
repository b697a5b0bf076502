"""Symmetry as an oracle: a mirrored, half-turned or shifted layout is the
same problem, so its decomposition must be the image of the original's.
The rules read distances and facing edges only, so every map here keeps
the cost and the status, and the printed trim rectangles map onto each
other. A run that splits no feature keeps its masks and conflicts as
well; a mirror reverses the numbering of a split feature's segments, so
a run that splits one is checked on its cost and cuts only. Quarter turns
and transposition are left out: a corner box is sized by its width and
height as drawn, and a quarter turn changes the cost of poly42 under the
Chebyshev metric. No external solver is needed."""

import dataclasses

from corpora import runs

from trimdecomp.cli import decompose_document
from trimdecomp.geometry import Rect, RectilinearShape

MAPS = {
    "mirror x": lambda x, y: (-x, y),
    "mirror y": lambda x, y: (x, -y),
    "half turn": lambda x, y: (-x, -y),
    "shift": lambda x, y: (x + 1370, y - 590),
}


def mapped_rect(f, r: Rect) -> Rect:
    (x1, y1), (x2, y2) = f(*r.lo), f(*r.hi)
    return Rect.of(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


def mapped_doc(f, doc):
    """The document with every outline mapped by f, rebuilt from the
    mapped outline."""
    shapes = tuple(RectilinearShape.from_outline(s.id, [f(*p) for p in s.outline]) for s in doc.shapes)
    return dataclasses.replace(doc, shapes=shapes)


# the mapped runs of each corpus, 1,132 in all
MAPPED = {"symmetry polyominoes": 800, "symmetry random": 320, "symmetry grid": 4, "symmetry dense": 8}


def test_mirrors_half_turns_and_shifts_map_the_decomposition():
    split_runs = 0
    for corpus, pin in MAPPED.items():
        mapped = 0
        for label, doc, metric in runs(corpus):
            want = decompose_document(doc, metric=metric).report
            split = any(k for _, k in want.masks)
            split_runs += split
            for name, f in MAPS.items():
                got = decompose_document(mapped_doc(f, doc), metric=metric).report
                where = f"{label} {metric.value} {name}"
                assert (got.cost, got.status) == (want.cost, want.status), where
                assert sorted(got.cuts) == sorted(mapped_rect(f, r) for r in want.cuts), where
                if not split:
                    assert got.masks == want.masks, where
                    assert got.conflicts == want.conflicts, where
                mapped += 1
        assert mapped == pin, corpus
    assert split_runs > 0
