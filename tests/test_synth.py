from corpora import runs

from trimdecomp.geometry import rects_interior_intersect
from trimdecomp.layout_io import parse_layout, write_layout
from trimdecomp.synth import grid_layout, random_layout


def all_disjoint(doc):
    rects = [r for s in doc.shapes for r in s.rects]
    for i, a in enumerate(rects):
        for b in rects[i + 1 :]:
            if rects_interior_intersect(a, b):
                return False
    return True


def test_random_layout_is_deterministic():
    a, b = random_layout(seed=4), random_layout(seed=4)
    assert write_layout(a) == write_layout(b)
    assert write_layout(random_layout(seed=5)) != write_layout(a)


def test_random_layouts_survive_a_parse_round_trip():
    for _, doc, _ in runs("synth round trip"):
        again = parse_layout(write_layout(doc))
        assert again.shapes == doc.shapes
        assert again.params == doc.params
        assert all_disjoint(doc)


def test_grid_layout_budget_and_determinism():
    doc = grid_layout(shapes=500, seed=0)
    assert len(doc.shapes) == 500
    assert len({s.id for s in doc.shapes}) == 500
    assert write_layout(doc) == write_layout(grid_layout(shapes=500, seed=0))
    assert all_disjoint(doc)
