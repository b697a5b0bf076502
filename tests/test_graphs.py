from fractions import Fraction
from pathlib import Path

from helpers import _dummy_candidate

from trimdecomp.geometry import Metric, Rect, RectilinearShape, SpatialIndex
from trimdecomp.graphs import (
    LayoutGraph,
    build_end_cut_graph,
    build_layout_graph,
    conflict_pairs,
    end_cut_graph_dot,
    generate_stitch_candidates,
    layout_graph_dot,
)
from trimdecomp.endcut import generate_all_end_cuts
from trimdecomp.ilp import solve
from trimdecomp.layout_io import parse_layout

LAYOUTS = Path(__file__).resolve().parent.parent / "layouts"

CLUSTER7_EDGES = [
    (1, 2), (1, 3), (1, 4), (2, 4), (3, 4), (3, 5),
    (3, 6), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
]


def load(name):
    return parse_layout((LAYOUTS / name).read_text())


def graph_for(doc, metric=Metric.CHEBYSHEV):
    index = SpatialIndex.from_shapes(doc.shapes, max(doc.params.dis_m, doc.params.dis_c))
    pairs = conflict_pairs(doc, index, metric)
    cuts = generate_all_end_cuts(doc, pairs, index)
    g = build_layout_graph(doc, pairs, cuts)
    if doc.params.stitch:
        g = generate_stitch_candidates(doc, g, metric=metric)
    return g, build_end_cut_graph(cuts, doc.params, metric), cuts


def test_cluster7_conflict_pairs_chebyshev():
    doc = load("cluster7.lay")
    index = SpatialIndex.from_shapes(doc.shapes, doc.params.dis_m)
    assert conflict_pairs(doc, index) == CLUSTER7_EDGES
    # six of those pairs sit at exactly the spacing limit; the rule is
    # closed, so nudging the limit down by one removes all six
    import dataclasses

    tight = dataclasses.replace(doc, params=dataclasses.replace(doc.params, dis_m=119, dis_c=119))
    at_limit = [(1, 3), (1, 4), (3, 5), (3, 6), (4, 5), (4, 6)]
    assert conflict_pairs(tight, index) == sorted(set(CLUSTER7_EDGES) - set(at_limit))


def test_cluster7_conflict_pairs_euclidean():
    doc = load("cluster7.lay")
    index = SpatialIndex.from_shapes(doc.shapes, doc.params.dis_m)
    got = conflict_pairs(doc, index, Metric.EUCLIDEAN)
    # the two diagonal pairs fall outside the straight-line distance
    assert got == sorted(set(CLUSTER7_EDGES) - {(3, 6), (4, 5)})


def test_build_layout_graph_attaches_candidates():
    doc = load("endcut_demo.lay")
    g, ecg, cuts = graph_for(doc)
    assert g.vertices() == [(1, 0), (2, 0), (3, 0)]
    assert g.conflict_edges[((1, 0), (2, 0))] is None
    assert g.conflict_edges[((1, 0), (3, 0))] is None
    assert g.conflict_edges[((2, 0), (3, 0))].pair == (2, 3)
    assert not g.stitch_edges


def test_stitch_splits_double_ended_bar():
    doc = parse_layout(
        "layout t\nparam dis_m 120\n"
        "rect 1 0 0 1000 40\n"       # long bar
        "rect 2 0 160 300 200\n"     # neighbour over its left end
        "rect 3 700 160 1000 200\n"  # neighbour over its right end
    )
    g, _, _ = graph_for(doc)
    g2 = generate_stitch_candidates(doc, g)
    assert sorted(g2.segments) == [(1, 0), (1, 1), (2, 0), (3, 0)]
    assert list(g2.stitch_edges) == [((1, 0), (1, 1))]
    sp = g2.stitch_edges[((1, 0), (1, 1))]
    assert (sp.feature, sp.x, sp.y, sp.orient) == (1, 500, 20, "v")
    # each neighbour now conflicts only with the segment it sits over
    assert set(g2.conflict_edges) == {((1, 0), (2, 0)), ((1, 1), (3, 0))}


def test_stitch_leaves_lonely_features_alone():
    doc = parse_layout(
        "layout t\nparam dis_m 120\nparam stitch 1\n"
        "rect 1 0 0 2000 40\nrect 2 0 400 2000 440\n"
    )
    g, _, _ = graph_for(doc)
    assert sorted(g.segments) == [(1, 0), (2, 0)]
    assert not g.stitch_edges


def test_stitch_candidate_reattaches_to_nearest_segment():
    doc = parse_layout(
        "layout t\nparam dis_m 120\nparam hlow 20\nparam wlow 20\n"
        "rect 1 0 0 400 40\n"
        "rect 2 460 0 660 40\n"
        "rect 3 0 160 60 200\n"
    )
    g, _, cuts = graph_for(doc)
    assert (1, 2) in cuts
    g2 = generate_stitch_candidates(doc, g)
    # both long wires split: wire 1 between its two covered stretches,
    # wire 2 ahead of its free right end
    assert sorted(g2.segments) == [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]
    points = {sp.feature: sp for sp in g2.stitch_edges.values()}
    assert (points[1].x, points[1].orient) == (260, "v")
    assert (points[2].x, points[2].orient) == (590, "v")
    # each cut candidate lands on the segment pair flanking its gap
    assert g2.conflict_edges[((1, 1), (2, 0))] is cuts[(1, 2)]
    assert g2.conflict_edges[((1, 0), (3, 0))] is cuts[(1, 3)]
    assert ((1, 0), (2, 0)) not in g2.conflict_edges
    assert ((1, 1), (2, 1)) not in g2.conflict_edges


SPACING_PAIRS = (
    "layout t\nparam dis_m 120\nparam hlow 20\nparam wlow 20\nparam dis_c {dc}\n"
    "rect 1 0 0 200 40\nrect 2 260 0 460 40\n"
    "rect 3 0 -300 200 -260\nrect 4 260 -300 460 -260\n"
)


def test_components_split_and_ee_coupling():
    # two conflicting pairs, far apart; variant b pulls their cuts close
    # enough that selecting both is forbidden, coupling the two pairs
    g, ecg, cuts = graph_for(parse_layout(SPACING_PAIRS.format(dc=120)))
    assert sorted(cuts) == [(1, 2), (3, 4)]
    assert not ecg.ee_edges
    # spacing-free cuts link nothing: every segment is its own block
    sol = solve(g, ecg, Fraction(0))
    assert sol.blocks == 4
    assert sol.selected == frozenset({(1, 2), (3, 4)})

    g2, ecg2, _ = graph_for(parse_layout(SPACING_PAIRS.format(dc=300)))
    assert ecg2.ee_edges == frozenset({((1, 2), (3, 4))})
    assert solve(g2, ecg2, Fraction(0)).blocks == 1
    assert solve(g2, None, Fraction(0)).blocks == 4


def test_preselect_keeps_spacing_constrained_cuts():
    # cuts with a spacing edge stay in the search, so only one of the
    # two mutually spaced cuts is taken
    g, ecg, cuts = graph_for(parse_layout(SPACING_PAIRS.format(dc=300)))
    assert g.conflict_edges[((1, 0), (2, 0))] is cuts[(1, 2)]
    assert g.conflict_edges[((3, 0), (4, 0))] is cuts[(3, 4)]
    sol = solve(g, ecg, Fraction(0))
    assert sol.blocks == 1
    assert len(sol.selected) == 1 and sol.objective == 0


def abstract_graph(n, edges, cands=(), stitches=()):
    segs = {(i, 0): (Rect.of(i * 1000, 0, i * 1000 + 10, 10),) for i in range(1, n + 1)}
    ce = {}
    cmap = {}
    for a, b in edges:
        pair = (min(a, b), max(a, b))
        if pair in cands:
            cmap[pair] = _dummy_candidate(pair)
            ce[((pair[0], 0), (pair[1], 0))] = cmap[pair]
        else:
            ce[((pair[0], 0), (pair[1], 0))] = None
    return LayoutGraph(segments=segs, conflict_edges=ce, stitch_edges={}), cmap


def test_dot_outputs():
    doc = load("endcut_demo.lay")
    g, ecg, _ = graph_for(doc)
    dot = layout_graph_dot(g)
    assert dot.startswith("graph")
    assert '"1/0" -- "2/0"' in dot
    assert 'label="cut"' in dot  # the 2-3 edge is repairable
    ec = end_cut_graph_dot(ecg)
    assert '"2-3"' in ec
