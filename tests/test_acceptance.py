"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single verdict line so a full run reads as a checklist.
The random-instance checks pin their seeds; every numeric comparison is
exact (integers and fractions throughout, no float tolerances).
"""

import hashlib
import random
import time
from fractions import Fraction

from corpora import bundled_layout, runs
from helpers import (
    assert_proven_optimum,
    enumerate_model,
    highs_oracle,
    milp_optimum,
    parse_lp,
    random_model_graph,
    variable_indices,
)
from test_endcut import bar, cut_between, params

from trimdecomp.cli import RunStats, decompose_document, stats_line
from trimdecomp.endcut import BoxKind
from trimdecomp.geometry import Rect, RectilinearShape, SpatialIndex
from trimdecomp.graphs import conflict_pairs
from trimdecomp.ilp import SolveStatus, build_model, export_lp, solve
from trimdecomp.layout_io import fraction_to_decimal, write_report
from trimdecomp.synth import grid_layout



def verdict(n, label):
    print(f"criterion {n}/9 PASS: {label}")


def test_criterion_1_solver_matches_exhaustive_enumeration():
    rng = random.Random(2024)
    started = time.perf_counter()
    for _ in range(500):
        g, ecg, alpha = random_model_graph(rng)
        m = build_model(g, ecg, alpha)
        assert len(m.names) <= 12
        want, _ = enumerate_model(m)
        sol = solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == want
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    verdict(1, f"500 solver optima equal enumeration optima in {elapsed:.1f}s")


def test_criterion_2_reductions_preserve_optimal_cost():
    # the block split and the spacing-free cuts left out of the search must
    # not change the optimum of the full, unreduced model
    for label, doc, _ in runs("acceptance 2"):
        assert len(doc.shapes) <= 40
        result = decompose_document(doc)
        want = milp_optimum(export_lp(result.model))
        assert result.stats.cost == want, label
    verdict(2, "100 layouts, plain and stitched, cost-identical to an external MILP")


def test_criterion_3_stitching_never_costs_more():
    for label, doc, _ in runs("acceptance 3"):
        plain = decompose_document(doc, stitch=False).stats.cost
        stitched = decompose_document(doc, stitch=True).stats.cost
        assert stitched <= plain, label
    ring = bundled_layout("ring5.lay")
    plain = decompose_document(ring, stitch=False).stats
    stitched = decompose_document(ring, stitch=True).stats
    assert plain.cost == 1 and plain.conflicts == 1
    assert stitched.cost == Fraction(1, 10)
    assert stitched.conflicts == 0 and stitched.stitches == 1
    verdict(3, "stitching never worse on 154 layouts (random, polyomino, dense), strictly better on the ring")


def test_criterion_4_seven_feature_layout_conflict_edges():
    doc = bundled_layout("cluster7.lay")
    near_pairs = SpatialIndex.from_shapes(doc.shapes).pairs(doc.params.dis_m)
    ids = [s.id for s in doc.shapes]
    assert [(ids[a], ids[b]) for a, b in conflict_pairs(doc, near_pairs)] == [
        (1, 2), (1, 3), (1, 4), (2, 4), (3, 4), (3, 5),
        (3, 6), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
    ]
    verdict(4, "the 7-feature cluster yields exactly the 12 expected pair edges")


def test_criterion_5_cut_box_resolution_cases():
    # touching boxes around an L head both survive
    p = params(hlow=30, wlow=30)
    l = RectilinearShape.from_outline(
        1, [(0, 0), (200, 0), (200, 80), (80, 80), (80, 240), (0, 240)]
    )
    cand = cut_between(l, bar(2, 160, 140, 320, 200), p)
    assert sorted(b.rect for b in cand.boxes) == [
        Rect.of(80, 140, 160, 200),
        Rect.of(160, 80, 200, 140),
    ]
    # materially overlapping boxes collapse to the smallest one
    p = params(hlow=20, wlow=20)
    poly = RectilinearShape.from_outline(
        1, [(200, 80), (280, 80), (280, 300), (160, 300), (160, 160), (200, 160)]
    )
    cand = cut_between(poly, bar(2, 0, 0, 120, 40), p)
    assert [b.rect for b in cand.boxes] == [Rect.of(120, 40, 200, 80)]
    # a corner pocket in contact with a facing-edge box is removed
    p = params(dis_m=200, hhigh=200, hlow=20, wlow=20)
    l = RectilinearShape.from_outline(
        1, [(0, 0), (260, 0), (260, 120), (160, 120), (160, 40), (0, 40)]
    )
    cand = cut_between(l, bar(2, 100, 200, 140, 400), p)
    assert [(b.rect, b.kind) for b in cand.boxes] == [
        (Rect.of(100, 40, 140, 200), BoxKind.EDGE_EDGE)
    ]
    verdict(5, "multi-box, overlap-collapse and corner-drop cases all resolve")


def encoded_objective(lp, fixed):
    # derive each conflict/stitch indicator as the smallest value the
    # exported rows allow, then price the full vector by the exported
    # objective
    names, obj, rows, scale = lp
    vals = dict(fixed)
    for name in names:
        if not name.startswith(("c_", "s_")):
            continue
        need = 0
        for terms, rhs in rows:
            if terms.get(name) != -1:
                continue
            acc = sum(coef * vals[n] for n, coef in terms.items() if n != name)
            need = max(need, acc - rhs)
        assert need <= 1
        vals[name] = need
    return sum((coef * vals[n] for n, coef in obj.items()), Fraction(0)) / scale


def test_criterion_6_encoding_matches_direct_edge_counting():
    rng = random.Random(606)
    done = 0
    while done < 10_000:
        g, ecg, alpha = random_model_graph(rng)
        m = build_model(g, ecg, alpha)
        lp = parse_lp(export_lp(m))
        x_of, ec_of, _, _ = variable_indices(m)
        segs, pairs = g.segments, [c.pair for c in ecg.candidates]
        conflict_edges = {
            (segs[a], segs[b]): None if k < 0 else pairs[k] for a, b, k in g.conflict_edges
        }
        cand_edges = {}
        for e, pair in conflict_edges.items():
            if pair is not None and pair in ec_of:
                cand_edges.setdefault(pair, []).append(e)
        for _ in range(25):
            colors = {v: rng.randint(0, 1) for v in segs}
            applied = set()
            for pair in sorted(cand_edges):
                if all(colors[u] == colors[v] for u, v in cand_edges[pair]):
                    if rng.random() < 0.5:
                        applied.add(pair)
            for ka, kb in ecg.ee_edges:
                if pairs[ka] in applied and pairs[kb] in applied:
                    applied.discard(pairs[kb])
            conflicts = 0
            for (u, v), pair in conflict_edges.items():
                if colors[u] != colors[v]:
                    continue
                if pair is None or pair not in applied:
                    conflicts += 1
            splits = sum(1 for a, b in g.stitch_edges if colors[segs[a]] != colors[segs[b]])
            direct = conflicts + m.alpha * splits
            fixed = {m.names[x_of[v]]: c for v, c in colors.items()}
            for pair, idx in ec_of.items():
                fixed[m.names[idx]] = 1 if pair in applied else 0
            assert encoded_objective(lp, fixed) == direct
            done += 1
    verdict(6, "10000 sampled assignments price identically in model and layout")


def lex_min_checked(enumerable: bool, oracle) -> int:
    """How many criterion 7 runs, those whose full model has at most 16
    binaries or those with more, report oracle's cost and masks."""
    checked = 0
    for label, doc, _ in runs("acceptance 7"):
        result = decompose_document(doc)
        if (len(result.model.names) <= 16) == enumerable:
            assert_proven_optimum(result, label, oracle)
            checked += 1
    return checked


def test_criterion_7_pipeline_tie_break_matches_enumeration():
    checked = lex_min_checked(True, enumerate_model)
    assert checked == 294
    verdict(7, f"{checked} layouts report the lexicographically least optimal masks")


def test_criterion_7_tie_break_matches_highs_beyond_enumeration():
    # the layouts criterion 7 skips as too large to enumerate: the external
    # solver, fixing the masks to 0 in order while it still reaches the
    # optimum, gives the lexicographically least optimal mask vector
    checked = lex_min_checked(False, highs_oracle())
    assert checked == 106
    verdict(7, f"{checked} larger layouts report the masks HiGHS fixes lexicographically")


def test_criterion_8_cost_prints_as_exact_decimal():
    cost = 12 + Fraction(1, 10) * 12
    assert cost == Fraction(66, 5)
    assert fraction_to_decimal(cost) == "13.2"
    stats = RunStats(
        wires=23, components=4, conflicts=12, stitches=12,
        cost=cost, cpu_s=0.25, status=SolveStatus.OPTIMAL, nodes=100,
    )
    line = stats_line(stats)
    assert "conflict# 12 stitch# 12 cost 13.2 " in line
    verdict(8, "twelve conflicts plus twelve tenth-weight stitches print as 13.2")


def test_criterion_9_ten_thousand_shape_grid_solves_quickly():
    doc = grid_layout(shapes=10_000, seed=0)
    assert len(doc.shapes) == 10_000
    started = time.perf_counter()
    result = decompose_document(doc)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    assert result.stats.status is SolveStatus.OPTIMAL
    assert result.stats.conflicts == 660
    assert result.stats.stitches == 0
    assert result.stats.cost == 660
    assert result.stats.components == 5580
    # the canonical tie-break fixes every byte of the report
    report = write_report(result.report).encode()
    assert hashlib.sha256(report).hexdigest() == (
        "0871157a8cba074596b434c39f27de7f04d74ecfd28a2790897f987050317883"
    )
    verdict(9, f"10000-shape grid solved to optimality in {elapsed:.1f}s")
