import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    enumerate_model,
    milp_optimum,
    random_model_graph,
    solution_values,
)
from test_graphs import abstract_graph, graph_for

from trimdecomp.graphs import EndCutGraph
from trimdecomp.ilp import (
    ModelError,
    SolveStatus,
    build_model_no_stitch,
    build_model_with_stitch,
    export_lp,
    solve,
)
from trimdecomp.layout_io import parse_layout

LAYOUTS = Path(__file__).resolve().parent.parent / "layouts"


def build_for(g, ecg, alpha):
    if g.stitch_edges:
        return build_model_with_stitch(g, ecg, alpha)
    return build_model_no_stitch(g, ecg)


def test_model_shape_for_demo_layout():
    doc = parse_layout((LAYOUTS / "endcut_demo.lay").read_text())
    g, ecg, _ = graph_for(doc)
    m = build_model_no_stitch(g, ecg)
    assert m.names == ("x_1", "x_2", "x_3", "ec_2_3", "c_1_2", "c_1_3", "c_2_3")
    assert m.kinds == ("x", "x", "x", "ec", "c", "c", "c")
    # two rows per plain conflict edge, four for the repairable one
    assert len(m.constraints) == 8
    assert m.scale == 1
    assert m.objective == (0, 0, 0, 0, 1, 1, 1)


def test_conflict_rows_force_indicator():
    g, _ = abstract_graph(2, [(1, 2)])
    m = build_model_no_stitch(g)
    (xi, xj, ci) = (m.x_of[(1, 0)], m.x_of[(2, 0)], m.c_of[((1, 0), (2, 0))])
    rows = set(m.constraints)
    assert (((xi, 1), (xj, 1), (ci, -1)), 1) in rows
    assert (((xi, -1), (xj, -1), (ci, -1)), -1) in rows


def test_cut_rows_forbid_useless_cuts():
    g, cmap = abstract_graph(2, [(1, 2)], cands={(1, 2)})
    m = build_model_no_stitch(g, EndCutGraph(cmap, frozenset(), frozenset()))
    ei = m.ec_of[(1, 2)]
    xi, xj = m.x_of[(1, 0)], m.x_of[(2, 0)]
    rows = set(m.constraints)
    assert (((ei, 1), (xi, 1), (xj, -1)), 1) in rows
    assert (((ei, 1), (xj, 1), (xi, -1)), 1) in rows


def test_stitch_edges_rejected_without_stitch_model():
    doc = parse_layout(
        "layout t\nparam dis_m 120\nparam stitch 1\n"
        "rect 1 0 0 1000 40\nrect 2 0 160 300 200\nrect 3 700 160 1000 200\n"
    )
    g, ecg, _ = graph_for(doc)
    assert g.stitch_edges
    with pytest.raises(ModelError):
        build_model_no_stitch(g, ecg)
    m = build_model_with_stitch(g, ecg, Fraction(1, 10))
    assert any(k == "s" for k in m.kinds)
    assert m.scale == 10


def test_negative_alpha_rejected():
    g, _ = abstract_graph(2, [(1, 2)])
    with pytest.raises(ModelError):
        build_model_with_stitch(g, None, Fraction(-1, 10))


def test_stitch_weight_scaling():
    g, cmap = abstract_graph(3, [(1, 2), (2, 3)])
    m = build_model_with_stitch(g, None, Fraction(1, 3))
    assert m.scale == 3
    # conflicts weigh the denominator, stitches the numerator
    assert all(m.objective[i] == 3 for i, k in enumerate(m.kinds) if k == "c")


def test_solver_matches_enumeration_on_random_models():
    rng = random.Random(90125)
    for _ in range(150):
        g, ecg, alpha = random_model_graph(rng)
        m = build_for(g, ecg, alpha)
        want_value, want_x = enumerate_model(m)
        sol = solve(g, ecg, alpha)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == want_value
        values = solution_values(g, m, sol)
        assert {n: values[n] for n in want_x} == want_x


def test_solution_values_are_internally_consistent():
    rng = random.Random(77)
    for _ in range(60):
        g, ecg, alpha = random_model_graph(rng)
        m = build_for(g, ecg, alpha)
        sol = solve(g, ecg, alpha)
        # every constraint of the model holds under the reported values
        values = solution_values(g, m, sol)
        vals = [values[n] for n in m.names]
        for terms, rhs in m.constraints:
            assert sum(coef * vals[vi] for vi, coef in terms) <= rhs
        # and the objective is the weighted sum of the indicator values
        total = sum(w * v for w, v in zip(m.objective, vals))
        assert Fraction(total, m.scale) == sol.objective


def test_odd_ring_needs_one_conflict():
    g, _ = abstract_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    sol = solve(g, None, Fraction(0))
    assert sol.objective == 1


def test_cut_resolves_conflict():
    g, cmap = abstract_graph(3, [(1, 2), (2, 3), (1, 3)], cands={(1, 3)})
    ecg = EndCutGraph(cmap, frozenset(), frozenset())
    sol = solve(g, ecg, Fraction(0))
    assert sol.objective == 0
    assert sol.selected == frozenset({(1, 3)})


def test_excluded_cuts_cannot_both_be_selected():
    # two triangles sharing no vertices, but their cuts exclude each other
    g, cmap = abstract_graph(
        6,
        [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)],
        cands={(1, 3), (4, 6)},
    )
    ecg = EndCutGraph(cmap, frozenset({((1, 3), (4, 6))}), frozenset())
    sol = solve(g, ecg, Fraction(0))
    assert sol.objective == 1
    assert len(sol.selected) == 1
    assert sol.blocks == 1  # the spacing edge couples the two triangles


def test_lexicographic_tiebreak_is_smallest_vector():
    # a bare triangle has many one-conflict optima; the reported one is the
    # smallest mask vector read off in wire order
    g, _ = abstract_graph(3, [(1, 2), (2, 3), (1, 3)])
    sol = solve(g, None, Fraction(0))
    assert sol.objective == 1
    assert [sol.colors[(f, 0)] for f in (1, 2, 3)] == [0, 0, 1]


def test_independent_blocks_solved_separately():
    g, _ = abstract_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    sol = solve(g, None, Fraction(0))
    assert sol.objective == 2
    assert sol.blocks == 2


def test_each_block_gets_its_own_lex_budget():
    # every triangle is a block of its own, and each one has to come out
    # canonical, not only the first few searched
    edges = []
    for t in range(6):
        a, b, c = 3 * t + 1, 3 * t + 2, 3 * t + 3
        edges += [(a, b), (b, c), (a, c)]
    g, _ = abstract_graph(18, edges)
    sol = solve(g, None, Fraction(0))
    assert sol.blocks == 6
    for t in range(6):
        assert [sol.colors[(3 * t + k, 0)] for k in (1, 2, 3)] == [0, 0, 1], t


def test_spacing_free_cut_is_selected_only_on_a_shared_mask():
    # the cut on 1-2 has no spacing edge, so it joins no block
    g, cmap = abstract_graph(2, [(1, 2)], cands={(1, 2)})
    sol = solve(g, EndCutGraph(cmap, frozenset(), frozenset()), Fraction(0))
    assert sol.blocks == 2
    assert sol.colors == {(1, 0): 0, (2, 0): 0}
    assert sol.selected == frozenset({(1, 2)}) and sol.objective == 0
    # the odd path 1-3-4-2 forces 1 and 2 apart, and the cut stays unused
    g, cmap = abstract_graph(4, [(1, 3), (3, 4), (2, 4), (1, 2)], cands={(1, 2)})
    sol = solve(g, EndCutGraph(cmap, frozenset(), frozenset()), Fraction(0))
    assert sol.blocks == 1
    assert sol.colors[(1, 0)] != sol.colors[(2, 0)]
    assert sol.selected == frozenset() and sol.objective == 0


def test_timeout_returns_feasible_incumbent():
    rng = random.Random(7)
    n = 22
    edges = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if rng.random() < 0.5:
                edges.append((a, b))
    g, _ = abstract_graph(n, edges)
    m = build_model_no_stitch(g)
    sol = solve(g, None, Fraction(0), time_limit=0.0)
    assert sol.status is SolveStatus.TIMEOUT
    full = solve(g, None, Fraction(0))
    assert full.status is SolveStatus.OPTIMAL
    assert sol.objective >= full.objective
    # the reported incumbent still satisfies the whole model
    values = solution_values(g, m, sol)
    vals = [values[nm] for nm in m.names]
    for terms, rhs in m.constraints:
        assert sum(coef * vals[vi] for vi, coef in terms) <= rhs


def test_export_lp_demo_text():
    doc = parse_layout((LAYOUTS / "endcut_demo.lay").read_text())
    g, ecg, _ = graph_for(doc)
    text = export_lp(build_model_no_stitch(g, ecg))
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
    smooth = export_lp(build_model_with_stitch(g, ecg, Fraction(1, 10)))
    assert "+ 0.1 s_1_0_1" in smooth
    assert "scaled by" not in smooth
    scaled = export_lp(build_model_with_stitch(g, ecg, Fraction(1, 3)))
    assert scaled.splitlines()[0] == "\\ objective scaled by 3"
    assert "+ 3 c_" in scaled and "+ 1 s_1_0_1" in scaled


def test_export_lp_binaries_section_wraps():
    g, _ = abstract_graph(9, [(a, b) for a in range(1, 10) for b in range(a + 1, 10)])
    text = export_lp(build_model_no_stitch(g))
    in_bin = False
    for line in text.splitlines():
        if line == "Binaries":
            in_bin = True
            continue
        if line == "End":
            break
        if in_bin:
            assert len(line) <= 73


def test_exported_lp_agrees_with_external_solver():
    rng = random.Random(31337)
    for _ in range(25):
        g, ecg, alpha = random_model_graph(rng)
        m = build_for(g, ecg, alpha)
        assert milp_optimum(export_lp(m)) == solve(g, ecg, alpha).objective
