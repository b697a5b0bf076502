from fractions import Fraction

from corpora import bundled_layout, runs
from helpers import _dummy_candidate, ranked_graphs

from trimdecomp.cli import decompose_document

from trimdecomp.geometry import Metric, Rect, RectilinearShape, SpatialIndex, rectset_within
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
from trimdecomp.endcut import generate_all_end_cuts, generate_end_cut
from trimdecomp.ilp import build_model, solve
from trimdecomp.layout_io import parse_layout

CLUSTER7_EDGES = [
    (1, 2), (1, 3), (1, 4), (2, 4), (3, 4), (3, 5),
    (3, 6), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
]


def graph_for(doc, metric=Metric.CHEBYSHEV):
    reach = max(doc.params.dis_m, doc.params.h_high, doc.params.w_high)
    near_pairs = SpatialIndex.from_shapes(doc.shapes).pairs(reach)
    pairs = conflict_pairs(doc, near_pairs, metric)
    cuts = generate_all_end_cuts(doc, pairs, near_pairs)
    if doc.params.stitch:
        g = generate_stitch_candidates(doc, pairs, cuts)
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
    doc = bundled_layout("cluster7.lay")
    near_pairs = SpatialIndex.from_shapes(doc.shapes).pairs(doc.params.dis_m)
    assert id_pairs(doc, conflict_pairs(doc, near_pairs)) == CLUSTER7_EDGES
    # six of those pairs sit at exactly the spacing limit; the rule is
    # closed, so nudging the limit down by one removes all six
    import dataclasses

    tight = dataclasses.replace(doc, params=dataclasses.replace(doc.params, dis_m=119, dis_c=119))
    at_limit = [(1, 3), (1, 4), (3, 5), (3, 6), (4, 5), (4, 6)]
    assert id_pairs(doc, conflict_pairs(tight, near_pairs)) == sorted(set(CLUSTER7_EDGES) - set(at_limit))


def test_cluster7_conflict_pairs_euclidean():
    doc = bundled_layout("cluster7.lay")
    near_pairs = SpatialIndex.from_shapes(doc.shapes).pairs(doc.params.dis_m)
    got = id_pairs(doc, conflict_pairs(doc, near_pairs, Metric.EUCLIDEAN))
    # the two diagonal pairs fall outside the straight-line distance
    assert got == sorted(set(CLUSTER7_EDGES) - {(3, 6), (4, 5)})


def test_build_layout_graph_attaches_candidates():
    doc = bundled_layout("endcut_demo.lay")
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


def test_the_stitch_stage_reads_each_box_once(monkeypatch):
    # the spatial index reads each box once and the stitch stage once more,
    # into its table by rank, though each shape of the ring has two neighbours
    bbox = RectilinearShape.bbox.fget
    reads = []
    monkeypatch.setattr(RectilinearShape, "bbox", property(lambda s: reads.append(s.id) or bbox(s)))
    g, _, _ = graph_for(bundled_layout("ring5.lay"))
    assert g.stitch_points and sorted(reads) == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


def test_stitch_points_lie_inside_their_features():
    points = 0
    for label, doc, _ in runs("graphs stitch points"):
        g, _, _ = graph_for(doc)
        rects = {shape.id: shape.rects for shape in doc.shapes}
        for sp in g.stitch_points:
            points += 1
            assert any(
                x1 <= sp.x <= x2 and y1 <= sp.y <= y2 for (x1, y1), (x2, y2) in rects[sp.feature]
            ), (label, sp)
    assert points > 100


def test_each_pair_meets_only_at_the_edge_the_stitch_stage_built():
    # the stitch stage places a pair's edge by position; measured piece by
    # piece, the segments of the pair that lie within dis_m of each other
    # must be exactly that edge's two
    done = split = total = 0
    for label, doc, metric in runs("graphs stitched"):
        p = doc.params
        near_pairs = SpatialIndex.from_shapes(doc.shapes).pairs(max(p.dis_m, p.h_high, p.w_high))
        pairs = id_pairs(doc, conflict_pairs(doc, near_pairs, metric))
        g, _, _ = graph_for(doc, metric)
        ranks = {}
        for rank, (fid, _) in enumerate(g.segments):
            ranks.setdefault(fid, []).append(rank)
        built = {(g.segments[a][0], g.segments[b][0]): (a, b) for a, b, _ in g.conflict_edges}
        assert sorted(built) == pairs, (label, metric)
        for f, h in pairs:
            hits = [
                (a, b)
                for a in ranks[f]
                for b in ranks[h]
                if rectset_within(g.pieces[a], g.pieces[b], p.dis_m, metric)
            ]
            assert hits == [built[f, h]], (label, metric, f, h)
            split += len(ranks[f]) + len(ranks[h]) > 2
        done += 1
        total += len(pairs)
    # 320 runs; 1,076 of their 3,833 pairs touch a split feature
    assert (done, split, total) == (320, 1076, 3833)


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
    doc = bundled_layout("endcut_demo.lay")
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
    # the runs of each corpus, 328 in all
    pins = {"graphs bundled": 6, "graphs grid": 2, "graphs polyominoes": 80, "graphs random": 240}
    carried = 0
    for corpus, pin in pins.items():
        done = 0
        for _, doc, metric in runs(corpus):
            result = decompose_document(doc, metric=metric)
            g, cands = result.graph, result.end_cuts.candidates
            ranks = sorted(k for _, _, k in g.conflict_edges if k >= 0)
            assert ranks == list(range(len(cands))), (doc.name, metric)
            for a, b, k in g.conflict_edges:
                if k >= 0:
                    assert cands[k].pair == (g.segments[a][0], g.segments[b][0]), (doc.name, k)
            done += 1
            carried += len(ranks)
        assert done == pin, corpus
    assert carried > 1000, carried


def test_pair_passes_match_the_general_rules_pair_by_pair():
    # conflict_pairs and generate_all_end_cuts decide a pair of two
    # rectangles in their own loop bodies; pair by pair, rectset_within
    # and generate_end_cut, with the material of the pair's first shape
    # and its neighbours, must give the same pairs and candidates
    pins = {
        "graphs bundled": 6,
        "graphs grid": 2,
        "graphs polyominoes": 80,
        "graphs random": 240,
        "dense": 4,
        "rings": 20,
        "cellrow": 20,
    }
    rect_pairs = polygon_pairs = 0
    for corpus, pin in pins.items():
        done = 0
        for label, doc, metric in runs(corpus):
            shapes, p = doc.shapes, doc.params
            near_pairs = SpatialIndex.from_shapes(shapes).pairs(max(p.dis_m, p.h_high, p.w_high))
            pairs = conflict_pairs(doc, near_pairs, metric)
            assert pairs == [
                (a, b)
                for a, b in near_pairs
                if rectset_within(shapes[a].rects, shapes[b].rects, p.dis_m, metric)
            ], (label, metric)
            near = [[] for _ in shapes]
            for a, b in near_pairs:
                near[a].append(b)
                near[b].append(a)
            want = []
            for a, b in pairs:
                material = [r for n in (a, *near[a]) for r in shapes[n].rects]
                cand = generate_end_cut(shapes[a], shapes[b], p, material)
                if cand is not None:
                    want.append(cand)
                if len(shapes[a].rects) == len(shapes[b].rects) == 1:
                    rect_pairs += 1
                else:
                    polygon_pairs += 1
            assert generate_all_end_cuts(doc, pairs, near_pairs) == tuple(want), (label, metric)
            done += 1
        assert done == pin, corpus
    assert rect_pairs >= 6000 and polygon_pairs >= 2000, (rect_pairs, polygon_pairs)
