from fractions import Fraction
from pathlib import Path

from helpers import _dummy_candidate, polyomino_text, ranked_graphs

from trimdecomp.cli import decompose_document

from trimdecomp.geometry import Metric, Rect, SpatialIndex
from trimdecomp.graphs import (
    EndCutGraph,
    _cut_middle,
    build_end_cut_graph,
    build_layout_graph,
    conflict_pairs,
    end_cut_graph_dot,
    generate_stitch_candidates,
    layout_graph_dot,
)
from trimdecomp.endcut import generate_all_end_cuts
from trimdecomp.ilp import build_model, solve
from trimdecomp.layout_io import parse_layout
from trimdecomp.synth import grid_layout, random_layout

LAYOUTS = Path(__file__).resolve().parent.parent / "layouts"

CLUSTER7_EDGES = [
    (1, 2), (1, 3), (1, 4), (2, 4), (3, 4), (3, 5),
    (3, 6), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
]


def load(name):
    return parse_layout((LAYOUTS / name).read_text())


def graph_for(doc, metric=Metric.CHEBYSHEV):
    reach = max(doc.params.dis_m, doc.params.h_high, doc.params.w_high)
    near_pairs = SpatialIndex.from_shapes(doc.shapes, reach).pairs(reach)
    pairs = conflict_pairs(doc, near_pairs, metric)
    cuts = generate_all_end_cuts(doc, pairs, near_pairs)
    if doc.params.stitch:
        g = generate_stitch_candidates(doc, pairs, cuts, metric=metric)
    else:
        g = build_layout_graph(doc, pairs, cuts)
    return g, build_end_cut_graph(cuts, doc.params, metric), cuts


def keyed_edges(g, cuts):
    """g's conflict edges on segment keys, each with its candidate or None."""
    segs = g.segments
    return {(segs[a], segs[b]): None if k < 0 else cuts[k] for a, b, k in g.conflict_edges}


def shape_pairs(g):
    """The shape rank pairs of an unsplit g, whose segment ranks are its
    shape ranks."""
    return [(a, b) for a, b, _ in g.conflict_edges]


def id_pairs(doc, pairs):
    return [(doc.shapes[a].id, doc.shapes[b].id) for a, b in pairs]


def test_cluster7_conflict_pairs_chebyshev():
    doc = load("cluster7.lay")
    near_pairs = SpatialIndex.from_shapes(doc.shapes, doc.params.dis_m).pairs(doc.params.dis_m)
    assert id_pairs(doc, conflict_pairs(doc, near_pairs)) == CLUSTER7_EDGES
    # six of those pairs sit at exactly the spacing limit; the rule is
    # closed, so nudging the limit down by one removes all six
    import dataclasses

    tight = dataclasses.replace(doc, params=dataclasses.replace(doc.params, dis_m=119, dis_c=119))
    at_limit = [(1, 3), (1, 4), (3, 5), (3, 6), (4, 5), (4, 6)]
    assert id_pairs(doc, conflict_pairs(tight, near_pairs)) == sorted(set(CLUSTER7_EDGES) - set(at_limit))


def test_cluster7_conflict_pairs_euclidean():
    doc = load("cluster7.lay")
    near_pairs = SpatialIndex.from_shapes(doc.shapes, doc.params.dis_m).pairs(doc.params.dis_m)
    got = id_pairs(doc, conflict_pairs(doc, near_pairs, Metric.EUCLIDEAN))
    # the two diagonal pairs fall outside the straight-line distance
    assert got == sorted(set(CLUSTER7_EDGES) - {(3, 6), (4, 5)})


def test_build_layout_graph_attaches_candidates():
    doc = load("endcut_demo.lay")
    g, ecg, cuts = graph_for(doc)
    assert g.segments == ((1, 0), (2, 0), (3, 0))
    edges = keyed_edges(g, cuts)
    assert edges[((1, 0), (2, 0))] is None
    assert edges[((1, 0), (3, 0))] is None
    assert edges[((2, 0), (3, 0))].pair == (2, 3)
    assert g.conflict_edges == ((0, 1, -1), (0, 2, -1), (1, 2, 0))
    assert not g.stitch_edges


def test_stitch_splits_double_ended_bar():
    doc = parse_layout(
        "layout t\nparam dis_m 120\n"
        "rect 1 0 0 1000 40\n"       # long bar
        "rect 2 0 160 300 200\n"     # neighbour over its left end
        "rect 3 700 160 1000 200\n"  # neighbour over its right end
    )
    g, _, cuts = graph_for(doc)
    g2 = generate_stitch_candidates(doc, shape_pairs(g), cuts)
    assert g2.segments == ((1, 0), (1, 1), (2, 0), (3, 0))
    assert g2.stitch_edges == ((0, 1),)
    (sp,) = g2.stitch_points
    assert (sp.feature, sp.x, sp.y, sp.orient) == (1, 500, 20, "v")
    # each neighbour now conflicts only with the segment it sits over
    assert set(keyed_edges(g2, cuts)) == {((1, 0), (2, 0)), ((1, 1), (3, 0))}


def test_stitch_leaves_lonely_features_alone():
    doc = parse_layout(
        "layout t\nparam dis_m 120\nparam stitch 1\n"
        "rect 1 0 0 2000 40\nrect 2 0 400 2000 440\n"
    )
    g, _, _ = graph_for(doc)
    assert g.segments == ((1, 0), (2, 0))
    assert not g.stitch_edges


def test_stitch_candidate_reattaches_to_nearest_segment():
    doc = parse_layout(
        "layout t\nparam dis_m 120\nparam hlow 20\nparam wlow 20\n"
        "rect 1 0 0 400 40\n"
        "rect 2 460 0 660 40\n"
        "rect 3 0 160 60 200\n"
    )
    g, _, cuts = graph_for(doc)
    assert [c.pair for c in cuts] == [(1, 2), (1, 3)]
    g2 = generate_stitch_candidates(doc, shape_pairs(g), cuts)
    # both long wires split: wire 1 between its two covered stretches,
    # wire 2 ahead of its free right end
    assert g2.segments == ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0))
    points = {sp.feature: sp for sp in g2.stitch_points}
    assert (points[1].x, points[1].orient) == (260, "v")
    assert (points[2].x, points[2].orient) == (590, "v")
    # each cut candidate lands on the segment pair flanking its gap
    edges = keyed_edges(g2, cuts)
    assert edges[((1, 1), (2, 0))] is cuts[0]
    assert edges[((1, 0), (3, 0))] is cuts[1]
    assert ((1, 0), (2, 0)) not in edges
    assert ((1, 1), (2, 1)) not in edges


def test_stitch_margin_keeps_the_cut_off_a_neighbours_reach():
    # at dis_m 2 the free stretch x 102..103 of wire 1 is one unit long: a
    # cut at its start, x 102, would lie exactly dis_m from feature 2 and
    # leave feature 2 in conflict with both of wire 1's segments
    doc = parse_layout(
        "param dis_m 2\nparam stitch 1\nparam hlow 1\nparam wlow 1\n"
        "rect 1 0 0 1000 10\nrect 2 0 12 100 22\nrect 3 105 12 1000 22\n"
    )
    g, _, cuts = graph_for(doc)
    assert g.segments == ((1, 0), (2, 0), (3, 0))
    assert not g.stitch_edges
    assert set(keyed_edges(g, cuts)) == {((1, 0), (2, 0)), ((1, 0), (3, 0))}


def test_stitch_does_not_cut_both_arms_of_a_u():
    # the free stretch x 220..400 crosses both arms of the U, so a cut at
    # its middle, x=310, would leave a segment of two separate arm tips
    doc = parse_layout(
        "param dis_m 120\nparam stitch 1\n"
        "poly 1 0 0 400 0 400 40 40 40 40 160 400 160 400 200 0 200\n"  # U open to the right
        "rect 2 0 260 100 300\n"  # neighbour over its top arm
    )
    g, _, _ = graph_for(doc)
    assert g.segments == ((1, 0), (2, 0))
    assert not g.stitch_edges


def test_cut_middle_needs_one_interval_on_each_side():
    # the U sliced into its base and two arms that start at x=40
    rects = [Rect.of(0, 0, 40, 200), Rect.of(40, 0, 400, 40), Rect.of(40, 160, 400, 200)]
    assert _cut_middle(rects, 20, 0) == 100
    # at x=40 the base ends on the left and the two arms begin on the right
    assert _cut_middle(rects, 40, 0) is None
    assert _cut_middle(rects, 310, 0) is None
    assert _cut_middle(rects, 20, 1) == 200
    assert _cut_middle(rects, 100, 1) == 20


def test_stitch_points_lie_inside_their_features():
    points = 0
    for seed in range(150):
        doc = random_layout(seed, stitch=True)
        g, _, _ = graph_for(doc)
        rects = {shape.id: shape.rects for shape in doc.shapes}
        for sp in g.stitch_points:
            points += 1
            assert any(
                r.lo.x <= sp.x <= r.hi.x and r.lo.y <= sp.y <= r.hi.y for r in rects[sp.feature]
            ), (seed, sp)
    assert points > 100


SPACING_PAIRS = (
    "layout t\nparam dis_m 120\nparam hlow 20\nparam wlow 20\nparam dis_c {dc}\n"
    "rect 1 0 0 200 40\nrect 2 260 0 460 40\n"
    "rect 3 0 -300 200 -260\nrect 4 260 -300 460 -260\n"
)


def test_components_split_and_ee_coupling():
    # two conflicting pairs, far apart; variant b pulls their cuts close
    # enough that selecting both is forbidden, coupling the two pairs
    g, ecg, cuts = graph_for(parse_layout(SPACING_PAIRS.format(dc=120)))
    assert [c.pair for c in cuts] == [(1, 2), (3, 4)]
    assert not ecg.ee_edges
    # spacing-free cuts link nothing: every segment is its own block
    sol = solve(build_model(g, ecg, Fraction(0)))
    assert sol.blocks == 4
    assert sol.selected == (0, 1)  # both cuts, by rank in pair order

    g2, ecg2, _ = graph_for(parse_layout(SPACING_PAIRS.format(dc=300)))
    assert [c.pair for c in ecg2.candidates] == [(1, 2), (3, 4)] and ecg2.ee_edges == ((0, 1),)
    assert solve(build_model(g2, ecg2, Fraction(0))).blocks == 1
    unspaced = EndCutGraph(ecg2.candidates, (), ())
    assert solve(build_model(g2, unspaced, Fraction(0))).blocks == 4


def test_preselect_keeps_spacing_constrained_cuts():
    # cuts with a spacing edge stay in the search, so only one of the
    # two mutually spaced cuts is taken
    g, ecg, cuts = graph_for(parse_layout(SPACING_PAIRS.format(dc=300)))
    edges = keyed_edges(g, cuts)
    assert edges[((1, 0), (2, 0))] is cuts[0] and cuts[0].pair == (1, 2)
    assert edges[((3, 0), (4, 0))] is cuts[1] and cuts[1].pair == (3, 4)
    sol = solve(build_model(g, ecg, Fraction(0)))
    assert sol.blocks == 1
    assert len(sol.selected) == 1 and sol.objective == 0


def abstract_graph(n, edges, cands=(), ee=()):
    """Features 1..n of one segment each and their conflict edges; the
    edge of each pair in cands carries a candidate, and ee holds pairs of
    those pairs too close to print both."""
    segs = {(i, 0): (Rect.of(i * 1000, 0, i * 1000 + 10, 10),) for i in range(1, n + 1)}
    ce = {}
    cmap = {}
    for a, b in edges:
        pair = (min(a, b), max(a, b))
        if pair in cands:
            cmap[pair] = _dummy_candidate(pair)
        ce[((pair[0], 0), (pair[1], 0))] = cmap.get(pair)
    return ranked_graphs(segs, ce, candidates=cmap, ee_edges=ee)


def test_dot_outputs():
    doc = load("endcut_demo.lay")
    g, ecg, _ = graph_for(doc)
    dot = layout_graph_dot(g)
    assert dot.startswith("graph")
    assert '"1/0" -- "2/0"' in dot
    assert 'label="cut"' in dot  # the 2-3 edge is repairable
    ec = end_cut_graph_dot(ecg)
    assert '"2-3"' in ec


def test_every_candidate_sits_on_exactly_one_conflict_edge():
    # the model takes every candidate as a variable, so a candidate that no
    # conflict edge carried would be a cut that nothing could ever select
    docs = [load(path.name) for path in sorted(LAYOUTS.glob("*.lay"))]
    docs += [grid_layout(2000, 1), *(parse_layout(polyomino_text(s)) for s in range(40))]
    docs += [random_layout(s, stitch=stitch) for s in range(60) for stitch in (False, True)]
    runs = carried = 0
    for doc in docs:
        for metric in Metric:
            result = decompose_document(doc, metric=metric)
            g, cands = result.graph, result.end_cuts.candidates
            ranks = sorted(k for _, _, k in g.conflict_edges if k >= 0)
            assert ranks == list(range(len(cands))), (doc.name, metric)
            for a, b, k in g.conflict_edges:
                if k >= 0:
                    assert cands[k].pair == (g.segments[a][0], g.segments[b][0]), (doc.name, k)
            runs += 1
            carried += len(ranks)
    assert runs == 328 and carried > 1000, carried
