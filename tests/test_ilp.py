import dataclasses
import random
import re
from fractions import Fraction

import pytest

from corpora import LAYOUTS, bundled_layout, chain_text, runs, square_grid_text
from helpers import (
    _dummy_candidate,
    enumerate_model,
    keyed,
    milp_optimum,
    parse_lp,
    random_model_graph,
    ranked_graphs,
    solution_values,
)
from test_graphs import abstract_graph, graph_for
from test_lp_rows import template_rows, template_weights

from trimdecomp import ilp
from trimdecomp.cli import build_full_model, decompose_document, main
from trimdecomp.geometry import Rect
from trimdecomp.graphs import EndCutGraph, LayoutGraph
from trimdecomp.ilp import ModelError, SolveStatus, _search, build_model, export_lp, solve
from trimdecomp.layout_io import StitchPoint, parse_layout, write_report
from trimdecomp.synth import grid_layout, random_layout



def test_model_shape_for_demo_layout():
    doc = bundled_layout("endcut_demo.lay")
    g, ecg, _ = graph_for(doc)
    m = build_model(g, ecg, Fraction(0))
    assert m.names == ("x_1", "x_2", "x_3", "ec_2_3", "c_1_2", "c_1_3", "c_2_3")
    # each edge once, on segment and cut ranks: the one cut sits on the
    # conflict between features 2 and 3, and no spacing edge binds it
    assert m.graph.segments == ((1, 0), (2, 0), (3, 0))
    assert [c.pair for c in m.end_cuts.candidates] == [(2, 3)]
    assert m.graph.conflict_edges == ((0, 1, -1), (0, 2, -1), (1, 2, 0))
    assert m.end_cuts.ee_edges == ()
    names, obj, rows, scale = parse_lp(export_lp(m))
    assert names == list(m.names)
    # two rows per plain conflict edge, four for the repairable one
    assert len(rows) == 8
    assert scale == m.scale == 1
    assert obj == {"c_1_2": 1, "c_1_3": 1, "c_2_3": 1}


def test_conflict_rows_force_indicator():
    g, ecg = abstract_graph(2, [(1, 2)])
    m = build_model(g, ecg, Fraction(0))
    _, _, rows, _ = parse_lp(export_lp(m))
    assert ({"x_1": 1, "x_2": 1, "c_1_2": -1}, 1) in rows
    assert ({"x_1": -1, "x_2": -1, "c_1_2": -1}, -1) in rows


def test_cut_rows_forbid_useless_cuts():
    g, ecg = abstract_graph(2, [(1, 2)], cands={(1, 2)})
    m = build_model(g, ecg, Fraction(0))
    _, _, rows, _ = parse_lp(export_lp(m))
    assert ({"ec_1_2": 1, "x_1": 1, "x_2": -1}, 1) in rows
    assert ({"ec_1_2": 1, "x_2": 1, "x_1": -1}, 1) in rows


def test_stitch_edges_get_stitch_variables():
    doc = parse_layout(
        "layout t\nparam dis_m 120\nparam stitch 1\n"
        "rect 1 0 0 1000 40\nrect 2 0 160 300 200\nrect 3 700 160 1000 200\n"
    )
    g, ecg, _ = graph_for(doc)
    assert g.stitch_edges
    m = build_model(g, ecg, Fraction(1, 10))
    _, obj, _, scale = parse_lp(export_lp(m))
    # a decimal alpha is written as it is, so nothing is scaled
    assert scale == 1 and m.scale == 10
    assert {n: c for n, c in obj.items() if n.startswith("s_")} == {"s_1_0_1": Fraction(1, 10)}


def test_negative_alpha_rejected():
    g, ecg = abstract_graph(2, [(1, 2)])
    with pytest.raises(ModelError):
        build_model(g, ecg, Fraction(-1, 10))


def test_a_spaced_cut_that_no_conflict_carries_is_a_model_error():
    # only a hand-built end-cut graph can hold such a cut: the pipeline puts
    # every candidate on exactly one conflict edge
    g, ecg = abstract_graph(2, [(1, 2)], cands={(1, 2)})
    cands = (*ecg.candidates, _dummy_candidate((7, 8)))
    m = build_model(g, EndCutGraph(cands, ((0, 1),), ()), Fraction(0))
    with pytest.raises(ModelError, match=r"^cut \(7, 8\) has a spacing edge but no conflict edge"):
        solve(m)


def test_stitch_weight_scaling():
    g, ecg = abstract_graph(3, [(1, 2), (2, 3)])
    m = build_model(g, ecg, Fraction(1, 3))
    _, obj, _, scale = parse_lp(export_lp(m))
    # alpha 1/3 has no decimal: conflicts weigh the denominator, stitches
    # the numerator
    assert scale == m.scale == 3
    assert obj == {"c_1_2": 3, "c_2_3": 3}


def test_solver_matches_enumeration_on_random_models():
    rng = random.Random(90125)
    for _ in range(150):
        g, ecg, alpha = random_model_graph(rng)
        m = build_model(g, ecg, alpha)
        want_value, want_x = enumerate_model(m)
        sol = solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == want_value
        values = solution_values(g, m, sol)
        assert {n: values[n] for n in want_x} == want_x


def test_solution_values_are_internally_consistent():
    rng = random.Random(77)
    for _ in range(60):
        g, ecg, alpha = random_model_graph(rng)
        m = build_model(g, ecg, alpha)
        sol = solve(m)
        # every exported row holds under the reported values
        values = solution_values(g, m, sol)
        _, obj, rows, scale = parse_lp(export_lp(m))
        for terms, rhs in rows:
            assert sum(coef * values[n] for n, coef in terms.items()) <= rhs
        # and the objective is the weighted sum of the indicator values
        assert sum((coef * values[n] for n, coef in obj.items()), Fraction(0)) / scale == sol.objective


def test_odd_ring_needs_one_conflict():
    g, ecg = abstract_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    sol = solve(build_model(g, ecg, Fraction(0)))
    assert sol.objective == 1


def test_cut_resolves_conflict():
    g, ecg = abstract_graph(3, [(1, 2), (2, 3), (1, 3)], cands={(1, 3)})
    sol = solve(build_model(g, ecg, Fraction(0)))
    assert sol.objective == 0
    assert sol.selected == (0,)  # the one cut, (1, 3)


def test_excluded_cuts_cannot_both_be_selected():
    # two triangles sharing no vertices, but their cuts exclude each other
    g, ecg = abstract_graph(
        6,
        [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)],
        cands={(1, 3), (4, 6)},
        ee={((1, 3), (4, 6))},
    )
    sol = solve(build_model(g, ecg, Fraction(0)))
    assert sol.objective == 1
    assert len(sol.selected) == 1
    assert sol.blocks == 1  # the spacing edge couples the two triangles


def test_lexicographic_tiebreak_is_smallest_vector():
    # a bare triangle has many one-conflict optima; the reported one is the
    # smallest mask vector read off in wire order
    g, ecg = abstract_graph(3, [(1, 2), (2, 3), (1, 3)])
    sol = solve(build_model(g, ecg, Fraction(0)))
    assert sol.objective == 1
    assert sol.colors == (0, 0, 1)  # features 1, 2 and 3, by segment rank


def test_independent_blocks_solved_separately():
    g, ecg = abstract_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    sol = solve(build_model(g, ecg, Fraction(0)))
    assert sol.objective == 2
    assert sol.blocks == 2


def test_each_block_gets_its_own_lex_budget():
    # every triangle is a block of its own, and each one has to come out
    # canonical, not only the first few searched
    edges = []
    for t in range(6):
        a, b, c = 3 * t + 1, 3 * t + 2, 3 * t + 3
        edges += [(a, b), (b, c), (a, c)]
    g, ecg = abstract_graph(18, edges)
    sol = solve(build_model(g, ecg, Fraction(0)))
    assert sol.blocks == 6
    for t in range(6):
        assert sol.colors[3 * t : 3 * t + 3] == (0, 0, 1), t


def test_spacing_free_cut_is_selected_only_on_a_shared_mask():
    # the cut on 1-2 has no spacing edge, so it joins no block
    g, ecg = abstract_graph(2, [(1, 2)], cands={(1, 2)})
    sol = solve(build_model(g, ecg, Fraction(0)))
    assert sol.blocks == 2
    assert sol.colors == (0, 0)
    assert sol.selected == (0,) and sol.objective == 0
    # the odd path 1-3-4-2 forces 1 and 2 apart, and the cut stays unused
    g, ecg = abstract_graph(4, [(1, 3), (3, 4), (2, 4), (1, 2)], cands={(1, 2)})
    sol = solve(build_model(g, ecg, Fraction(0)))
    assert sol.blocks == 1
    assert sol.colors[0] != sol.colors[1]
    assert sol.selected == () and sol.objective == 0


def test_timeout_returns_feasible_incumbent():
    rng = random.Random(7)
    n = 22
    edges = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if rng.random() < 0.5:
                edges.append((a, b))
    g, ecg = abstract_graph(n, edges)
    m = build_model(g, ecg, Fraction(0))
    sol = solve(m, time_limit=0.0)
    assert sol.status is SolveStatus.TIMEOUT
    full = solve(m)
    assert full.status is SolveStatus.OPTIMAL
    assert sol.objective >= full.objective
    assert_satisfies_every_row(g, m, sol)


def assert_satisfies_every_row(g, m, sol):
    """The reported incumbent satisfies every exported row."""
    values = solution_values(g, m, sol)
    for terms, rhs in parse_lp(export_lp(m))[2]:
        assert sum(coef * values[n] for n, coef in terms.items()) <= rhs


def shifted(g, ecg, offset):
    """The same graphs with every feature id raised by offset; the ranks
    stay as they are."""
    cands = tuple(_dummy_candidate((a + offset, b + offset)) for (a, b), _ in ecg.candidates)
    return (
        dataclasses.replace(
            g,
            segments=tuple((f + offset, k) for f, k in g.segments),
            stitch_points=tuple(sp._replace(feature=sp.feature + offset) for sp in g.stitch_points),
        ),
        dataclasses.replace(ecg, candidates=cands),
    )


def joined(parts):
    """One pair of graphs of parts whose feature ids ascend from part to
    part, so each part's ranks follow those of the parts before it."""
    segs, pieces, conflicts, stitches, points, cands, ee = [], [], [], [], [], [], []
    for g, ecg in parts:
        n, nk = len(segs), len(cands)
        segs += g.segments
        pieces += g.pieces
        conflicts += [(a + n, b + n, k + nk if k >= 0 else -1) for a, b, k in g.conflict_edges]
        stitches += [(a + n, b + n) for a, b in g.stitch_edges]
        points += g.stitch_points
        cands += ecg.candidates
        ee += [(ka + nk, kb + nk) for ka, kb in ecg.ee_edges]
    graph = LayoutGraph(*map(tuple, (segs, pieces, conflicts, stitches, points)))
    return graph, EndCutGraph(tuple(cands), tuple(ee), ())


def two_triangles(cuts, ee):
    # triangles 1-2-3 and 4-5-6: each colouring leaves exactly one edge of a
    # triangle on a shared mask, so which cuts exist and exclude each other
    # decides both the cost and the canonical colouring
    edges = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
    return abstract_graph(6, edges, cands=set(cuts), ee=ee)


def stitched_path(split):
    # segments 0..3 in vertex order, conflicts 0-2, 1-3 and 2-3; the feature
    # split in two puts its stitch edge at 0-1 (feature 1) or 1-2 (feature 2)
    v = sorted({(1, 0), (2, 0), (3, 0), (split, 1)})
    return ranked_graphs(
        {x: (Rect.of(0, 0, 10, 10),) for x in v},
        {(v[0], v[2]): None, (v[1], v[3]): None, (v[2], v[3]): None},
        {((split, 0), (split, 1)): StitchPoint(split, 0, 0, "v")},
    )


def free_cut_pair():
    # 1-2 conflict through a cut with no spacing edge, so the search
    # settles no edge and each segment is a block on its own
    return abstract_graph(2, [(1, 2)], cands={(1, 2)})


def answer(sol):
    """A solution's cost, colours in vertex order and selected cut ranks."""
    return sol.objective, sol.colors, sol.selected


def test_identical_blocks_solve_as_if_alone(monkeypatch):
    # pairs of blocks whose keys differ in one part only, with different
    # answers, so a key that ignores that part reuses a wrong answer
    specs = [
        # the same pending cuts, spaced differently
        two_triangles([(1, 2), (1, 3), (4, 5), (4, 6)], {((1, 2), (4, 5)), ((1, 3), (4, 6))}),
        two_triangles([(1, 2), (1, 3), (4, 5), (4, 6)], {((1, 2), (4, 6)), ((1, 3), (4, 5))}),
        # the same spacing edge between pending-cut indices 0 and 1, on a
        # different conflict edge
        two_triangles([(1, 2), (4, 5)], {((1, 2), (4, 5))}),
        two_triangles([(1, 3), (4, 5)], {((1, 3), (4, 5))}),
        # the same conflicts, stitched elsewhere
        stitched_path(1),
        stitched_path(2),
    ]
    for k in range(0, len(specs), 2):
        one, other = specs[k], specs[k + 1]
        assert answer(solve(build_model(*one, Fraction(1, 10)))) != answer(
            solve(build_model(*other, Fraction(1, 10)))
        )
    # segments that no searched edge reaches: bars with no conflict, and a
    # pair whose one conflict a spacing-free cut resolves
    # the canonical search of a block of one segment with no edge
    lone = _search((1, (), (), ()), None)
    assert (lone.cost, lone.colors, lone.selected, lone.timed_out) == (0, [0], set(), False)
    singles = [abstract_graph(3, []), free_cut_pair()]
    for (g, ecg), count in zip(singles, (3, 2)):
        sol = solve(build_model(g, ecg, Fraction(1, 10)))
        assert (sol.blocks, sol.nodes) == (count, count * lone.nodes)
        assert set(sol.colors) == {0}
    assert solve(build_model(*free_cut_pair(), Fraction(0))).selected == (0,)
    # no search is built for a block of one segment
    searches = watch_searches(monkeypatch)
    rng = random.Random(4242)
    for _ in range(25):
        models = specs + singles + [random_model_graph(rng)[:2] for _ in range(6)]
        order = [k for k in range(len(models)) for _ in range(3)]
        rng.shuffle(order)
        # features of a model are numbered 1..6 at most, so a stride of 10
        # keeps every copy's ids apart
        parts = [shifted(*models[k], 10 * i) for i, k in enumerate(order)]
        alpha = rng.choice([Fraction(0), Fraction(1, 10), Fraction(1, 3)])
        whole_model = build_model(*joined(parts), alpha)
        whole = solve(whole_model)
        part_models = [build_model(g, ecg, alpha) for g, ecg in parts]
        alone = [solve(m) for m in part_models]
        assert whole.status is SolveStatus.OPTIMAL
        assert whole.objective == sum(s.objective for s in alone)
        assert whole.nodes == sum(s.nodes for s in alone)
        assert whole.blocks == sum(s.blocks for s in alone)
        colors, selected = keyed(whole_model, whole)
        answers = [keyed(m, s) for m, s in zip(part_models, alone)]
        assert colors == {v: c for c_of, _ in answers for v, c in c_of.items()}
        assert selected == frozenset().union(*(cuts for _, cuts in answers))
    assert searches and all(block[0] > 1 for block, _ in searches)


def watch_searches(monkeypatch, spoil=lambda block, answer: answer):
    """Record each block that solve searches with the answer its search
    returned, and hand solve spoil(block, answer) in that answer's place."""
    searches = []
    search = ilp._search

    def watched(block, deadline):
        answer = search(block, deadline)
        searches.append((block, answer))
        return spoil(block, answer)

    monkeypatch.setattr(ilp, "_search", watched)
    return searches


def test_repeated_cells_are_searched_once(monkeypatch):
    searches = watch_searches(monkeypatch)
    stats = decompose_document(grid_layout(2000, 1)).stats
    assert 0 < len(searches) <= 4
    # nodes still counts the canonical search of every one of the blocks
    assert (stats.components, stats.nodes) == (1116, 6984)


def test_the_search_receives_the_prices_solve_wrote(monkeypatch):
    # at alpha 1/3 a conflict costs 3 on one mask, a stitch 1 across masks,
    # and a pending cut 3 when its segments share a mask and it is skipped
    searches = watch_searches(monkeypatch)
    for _, doc, _ in runs("ilp"):
        decompose_document(doc, alpha=Fraction(1, 3))
    blocks = [block for block, _ in searches]
    for m, pairs, cuts, spacing in blocks:
        for a, b, same, diff in pairs:
            assert a < b < m and (same, diff) in ((3, 0), (0, 1))
        for a, b, price in cuts:
            assert a < b < m and price == 3
        assert all(0 <= ka < kb < len(cuts) for ka, kb in spacing)
    kinds = [{(same, diff) for _, _, same, diff in pairs} for _, pairs, _, _ in blocks]
    assert any(k == {(3, 0), (0, 1)} for k in kinds)
    assert any(cuts for _, _, cuts, _ in blocks)


def masks(sol):
    return "".join("AB"[c] for c in sol.colors)


@pytest.mark.parametrize(
    "bars, nodes",
    [(4, 22), (8, 330), (12, 5_390), (14, 21_728), (15, 43_636), (16, 87_334)],
)
def test_search_tree_of_a_crowded_chain(bars, nodes):
    # every neighbour pair conflicts through a cut that excludes its
    # neighbours' cuts, so each leaf settles up to bars - 1 cuts; the node
    # count pins the whole tree: variable order, select before skip and
    # every prune
    g, ecg, _ = graph_for(parse_layout(chain_text(bars)))
    sol = solve(build_model(g, ecg, Fraction(0)))
    assert (sol.status, sol.objective, sol.blocks, sol.nodes) == (SolveStatus.OPTIMAL, 0, 1, nodes)
    assert masks(sol) == ("AAB" * bars)[:bars]
    assert [ecg.candidates[k].pair for k in sol.selected] == [(i, i + 1) for i in range(1, bars, 3)]


def test_timeout_inside_a_leaf_returns_feasible_incumbent():
    # on the 16-bar chain the deadline check of node 2048 falls inside a
    # leaf's cut selection, so the answer is the last leaf accepted
    # before it, with its cuts
    g, ecg, _ = graph_for(parse_layout(chain_text(16)))
    m = build_model(g, ecg, Fraction(0))
    sol = solve(m, time_limit=0.0)
    assert (sol.status, sol.objective, sol.nodes) == (SolveStatus.TIMEOUT, 6, 2048)
    assert masks(sol) == "AAAAAAAAAAAAAABA"
    assert [ecg.candidates[k].pair for k in sol.selected] == [(i, i + 1) for i in range(1, 15, 2)]
    assert_satisfies_every_row(g, m, sol)


def test_cut_masks_wider_than_a_machine_word(monkeypatch):
    # 40 triangles a-b-c: a-b a plain conflict, a-c and b-c carry cuts that
    # exclude each other, and each b-c cut excludes the next triangle's a-c
    # cut, so all 80 cuts form one block and the selected a-c cuts are
    # pending-cut indices 0, 2, .., 78
    edges, cands, ee = [], set(), set()
    for a in range(1, 121, 3):
        b, c = a + 1, a + 2
        edges += [(a, b), (a, c), (b, c)]
        cands |= {(a, c), (b, c)}
        ee.add(((a, c), (b, c)))
        if a > 1:
            ee.add(((a - 2, a - 1), (a, c)))
    g, ecg = abstract_graph(120, edges, cands=cands, ee=ee)
    searches = watch_searches(monkeypatch)
    sol = solve(build_model(g, ecg, Fraction(0)), time_limit=1.0)
    assert [sorted(answer.selected) for _, answer in searches] == [list(range(0, 80, 2))]
    assert (sol.status, sol.objective, sol.blocks, sol.nodes) == (SolveStatus.OPTIMAL, 0, 1, 320)
    assert masks(sol) == "ABA" * 40
    assert [ecg.candidates[k].pair for k in sol.selected] == sorted((a, a + 2) for a in range(1, 121, 3))


def lower_best(block, answer):
    return answer._replace(cost=answer.cost - 1) if answer.cost > 0 else answer


def select_both_spaced_cuts(block, answer):
    """Select both cuts of the block's first spacing edge, and lower the
    cost by the conflicts that this resolves, so the recount still agrees."""
    _, _, cuts, spacing = block
    cost, selected = answer.cost, set(answer.selected)
    for k in spacing[0] if spacing else ():
        a, b, price = cuts[k]
        if answer.colors[a] == answer.colors[b] and k not in selected:
            cost -= price
        selected.add(k)
    return answer._replace(cost=cost, selected=selected)


def test_solve_recounts_the_search_total(monkeypatch):
    g, ecg = abstract_graph(3, [(1, 2), (2, 3), (1, 3)])
    assert solve(build_model(g, ecg, Fraction(0))).objective == 1
    watch_searches(monkeypatch, lower_best)
    with pytest.raises(AssertionError) as err:
        solve(build_model(g, ecg, Fraction(0)))
    assert str(err.value) == "solution bookkeeping mismatch: recount 1 != search total 0"


def test_solve_checks_cut_spacing(monkeypatch):
    # the answer leaves 1-2 in conflict and cuts 4-6; selecting the spaced
    # cut 1-3 as well, on a pair of different masks, costs nothing more
    g, ecg = abstract_graph(
        6,
        [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)],
        cands={(1, 3), (4, 6)},
        ee={((1, 3), (4, 6))},
    )
    sol = solve(build_model(g, ecg, Fraction(0)))
    assert (sol.objective, sol.selected) == (1, (1,))  # the cut (4, 6)
    watch_searches(monkeypatch, select_both_spaced_cuts)
    with pytest.raises(AssertionError) as err:
        solve(build_model(g, ecg, Fraction(0)))
    assert str(err.value) == "cuts (1, 3) and (4, 6) are too close to both print"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lower_best, r"solution bookkeeping mismatch: recount \d+ != search total \d+"),
        (select_both_spaced_cuts, r"cuts \(\d+, \d+\) and \(\d+, \d+\) are too close to both print"),
    ],
)
def test_a_failed_check_is_an_internal_error_of_the_cli(monkeypatch, capsys, corrupt, message):
    # cluster7 has one block of positive cost and spacing edges between
    # its cuts, so either corruption reaches its check
    path = str(LAYOUTS / "cluster7.lay")
    assert main(["--input", path]) == 0
    capsys.readouterr()
    watch_searches(monkeypatch, corrupt)
    assert main(["--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: internal: AssertionError: {message}\n", captured.err)


def test_export_lp_demo_text():
    doc = bundled_layout("endcut_demo.lay")
    g, ecg, _ = graph_for(doc)
    text = export_lp(build_model(g, ecg, Fraction(0)))
    lines = text.splitlines()
    assert lines[0] == "Minimize"
    assert lines[1] == " obj: + c_1_2 + c_1_3 + c_2_3"
    assert lines[2] == "Subject To"
    assert " r1: + x_1 + x_2 - c_1_2 <= 1" in lines
    assert " r3: + x_1 + x_3 - c_1_3 <= 1" in lines
    assert " r5: + x_2 + x_3 - c_2_3 - ec_2_3 <= 1" in lines
    assert " r7: + ec_2_3 + x_2 - x_3 <= 1" in lines
    assert lines[-1] == "End"
    assert "Binaries" in lines


def test_export_lp_fractional_and_scaled_weights():
    doc = parse_layout(
        "layout t\nparam dis_m 120\nparam stitch 1\n"
        "rect 1 0 0 1000 40\nrect 2 0 160 300 200\nrect 3 700 160 1000 200\n"
    )
    g, ecg, _ = graph_for(doc)
    smooth = export_lp(build_model(g, ecg, Fraction(1, 10)))
    assert "+ 0.1 s_1_0_1" in smooth
    assert "scaled by" not in smooth
    scaled = export_lp(build_model(g, ecg, Fraction(1, 3)))
    assert scaled.splitlines()[0] == "\\ objective scaled by 3"
    assert "+ 3 c_" in scaled and "+ 1 s_1_0_1" in scaled


def test_export_lp_binaries_section_wraps():
    g, ecg = abstract_graph(9, [(a, b) for a in range(1, 10) for b in range(a + 1, 10)])
    text = export_lp(build_model(g, ecg, Fraction(0)))
    in_bin = False
    for line in text.splitlines():
        if line == "Binaries":
            in_bin = True
            continue
        if line == "End":
            break
        if in_bin:
            assert len(line) <= 73


def lp_round_trip_models():
    yield decompose_document(grid_layout(2000, 1)).model
    for _, doc, _ in runs("ilp"):
        result = decompose_document(doc)
        for alpha in (Fraction(1, 10), Fraction(1, 3)):
            yield build_model(result.graph, result.end_cuts, alpha)


def test_exported_lp_reads_back_as_the_model():
    # the reader in helpers checks the meaning of the text, where the
    # digests only check its bytes
    stitched = 0
    for m in lp_round_trip_models():
        names, obj, rows, scale = parse_lp(export_lp(m))
        assert names == list(m.names)
        assert {n: c / scale for n, c in obj.items()} == template_weights(m)
        assert rows == template_rows(m)
        stitched += bool(m.graph.stitch_edges)
    assert stitched == 24


def test_exported_lp_agrees_with_external_solver():
    rng = random.Random(31337)
    for _ in range(25):
        g, ecg, alpha = random_model_graph(rng)
        m = build_model(g, ecg, alpha)
        assert milp_optimum(export_lp(m)) == solve(m).objective


# item 3's ring: 1 and 2, 2 and 4, 4 and 5 (across a 60 nm gap), 5 and 3,
# 3 and 1 close an odd cycle, which either a stitch on 5 or a cut between
# 4 and 5 breaks; hlow, the least cut extent across a gap, decides
# whether that 60 nm gap takes a cut
CUT_OR_STITCH_RING = (
    "layout ring\nparam dis_m 120\nparam stitch 1\nparam hlow {hlow}\n"
    "rect 1 0 0 1500 40\nrect 2 0 90 300 130\nrect 3 1200 90 1500 130\n"
    "rect 4 0 180 700 220\nrect 5 760 180 1500 220\n"
)


@pytest.mark.parametrize(
    "hlow, chosen, other, cost",
    [
        (70, "stitch 5 950 200 v", "cut ", Fraction(1, 10)),
        (30, "cut 700 180 760 220", "stitch ", Fraction(0)),
    ],
)
def test_a_cut_competes_with_a_stitch(hlow, chosen, other, cost):
    result = decompose_document(parse_layout(CUT_OR_STITCH_RING.format(hlow=hlow)))
    lines = write_report(result.report).splitlines()
    assert chosen in lines
    assert not any(line.startswith(other) for line in lines)
    assert result.stats.status is SolveStatus.OPTIMAL
    assert result.stats.cost == cost
    assert milp_optimum(export_lp(result.model)) == cost


def test_the_model_shares_the_graphs_tuples():
    # the graphs decide every rank, so the model re-keys nothing: it is
    # the two graphs themselves
    result = decompose_document(random_layout(3, clusters=9, stitch=True))
    assert result.graph.stitch_edges and result.end_cuts.ee_edges
    assert result.model.graph is result.graph
    assert result.model.end_cuts is result.end_cuts


def test_the_solved_model_is_the_exported_model():
    result = decompose_document(bundled_layout("ring5.lay"))
    assert build_full_model(result) is result.model
    # a run cut short by its time limit still exports the whole model
    result = decompose_document(parse_layout(square_grid_text(4, 20)), time_limit=0.2)
    assert result.stats.status is SolveStatus.TIMEOUT
    rebuilt = build_model(result.graph, result.end_cuts, Fraction(0))
    assert export_lp(result.model) == export_lp(rebuilt)
