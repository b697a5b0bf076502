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

from helpers import polyomino_text

from trimdecomp.cli import decompose_document
from trimdecomp.geometry import Metric, Rect, RectilinearShape
from trimdecomp.layout_io import parse_layout
from trimdecomp.synth import grid_layout, random_layout

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


def runs():
    """(label, document, stitch, metric) for every run of the corpus."""
    for seed in range(100):
        doc = parse_layout(polyomino_text(seed))
        for metric in Metric:
            yield f"poly{seed} {metric.value}", doc, None, metric
    for seed in range(40):
        doc = random_layout(seed)
        for stitch in (False, True):
            yield f"random {seed} stitch {stitch}", doc, stitch, Metric.CHEBYSHEV
    yield "grid 2000", grid_layout(2000, 1), None, Metric.CHEBYSHEV


def test_mirrors_half_turns_and_shifts_map_the_decomposition():
    mapped = split_runs = 0
    for label, doc, stitch, metric in runs():
        want = decompose_document(doc, stitch=stitch, metric=metric).report
        split = any(k for _, k in want.masks)
        split_runs += split
        for name, f in MAPS.items():
            got = decompose_document(mapped_doc(f, doc), stitch=stitch, metric=metric).report
            where = f"{label} {name}"
            assert (got.cost, got.status) == (want.cost, want.status), where
            assert sorted(got.cuts) == sorted(mapped_rect(f, r) for r in want.cuts), where
            if not split:
                assert got.masks == want.masks, where
                assert got.conflicts == want.conflicts, where
            mapped += 1
    assert mapped == 1124
    assert split_runs > 0
