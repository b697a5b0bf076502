"""The pipeline creates no reference cycle, and parse_layout,
decompose_document and the exports run with the cyclic collector paused,
leaving it on or off as they found it."""

import gc
import inspect
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from corpora import LAYOUTS, chain_text, runs, square_grid_text

import trimdecomp.cli
from trimdecomp.cli import build_full_model, decompose_document
from trimdecomp.graphs import end_cut_graph_dot, layout_graph_dot
from trimdecomp.ilp import SolveStatus, export_lp
from trimdecomp.layout_io import LayoutParseError, emit_svg, parse_layout, write_layout, write_report

CLUSTER7 = (LAYOUTS / "cluster7.lay").read_text()


def full_run(text: str, time_limit: float | None = None) -> SolveStatus:
    result = decompose_document(parse_layout(text), time_limit=time_limit)
    write_report(result.report)
    export_lp(result.model)
    emit_svg(result.document, result.report)
    layout_graph_dot(result.graph)
    end_cut_graph_dot(result.end_cuts)
    return result.stats.status


def test_pipeline_leaves_no_reference_cycle():
    texts = [write_layout(doc) for _, doc, _ in runs("collector")]
    timeout_grid = square_grid_text(4, 20)
    deep_chain = chain_text(1200)
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            full_run(text)
        timed_out = full_run(timeout_grid, time_limit=0.2) is SolveStatus.TIMEOUT
        try:
            full_run(deep_chain, time_limit=1.0)
        except RecursionError:
            recursed = True
        else:
            recursed = False
        unreachable = gc.collect()
    finally:
        gc.enable()
    # the search paths that end on the deadline and on the recursion limit ran
    assert timed_out and recursed
    assert unreachable == 0


def failing_solve(*args, **kwargs):
    raise AssertionError("solver defect")


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored(monkeypatch, enabled):
    calls = [
        (lambda: parse_layout(CLUSTER7), None),
        (lambda: parse_layout("layout b\nrect 1 100 0 0 40\n"), LayoutParseError),
        (lambda: decompose_document(parse_layout(CLUSTER7)), None),
    ]
    (gc.enable if enabled else gc.disable)()
    try:
        for call, error in calls:
            if error is None:
                call()
            else:
                with pytest.raises(error):
                    call()
            assert gc.isenabled() is enabled
        doc = parse_layout(CLUSTER7)
        monkeypatch.setattr(trimdecomp.cli, "solve", failing_solve)
        with pytest.raises(AssertionError, match="solver defect"):
            decompose_document(doc)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_nested_and_concurrent_calls_end_enabled(monkeypatch):
    real_solve = trimdecomp.cli.solve

    def solve_then_parse(*args, **kwargs):
        parse_layout(CLUSTER7)  # a pause inside a pause
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(trimdecomp.cli, "solve", solve_then_parse)
    doc = parse_layout(CLUSTER7)
    decompose_document(doc)
    assert gc.isenabled()
    with ThreadPoolExecutor(max_workers=4) as pool:
        costs = [r.stats.cost for r in pool.map(decompose_document, [doc] * 4, timeout=60)]
    assert costs == [1] * 4
    assert gc.isenabled()


def test_solve_and_overlap_check_run_paused(monkeypatch):
    seen = []
    real_solve = trimdecomp.cli.solve
    # conflict_pairs checks the overlaps as it checks the spacing
    real_check = trimdecomp.cli.conflict_pairs

    def solve(*args, **kwargs):
        seen.append(("solve", gc.isenabled()))
        return real_solve(*args, **kwargs)

    def conflict_pairs(*args, **kwargs):
        seen.append(("check", gc.isenabled()))
        return real_check(*args, **kwargs)

    monkeypatch.setattr(trimdecomp.cli, "solve", solve)
    monkeypatch.setattr(trimdecomp.cli, "conflict_pairs", conflict_pairs)
    assert gc.isenabled()
    decompose_document(parse_layout(CLUSTER7))
    assert seen == [("check", False), ("solve", False)]
    assert gc.isenabled()


def collections_inside(fn, call) -> int:
    """Run call, which calls fn, with the collector's threshold at 1, so
    that nearly every allocation starts a collection unless the collector
    is off, and count the collections that start while fn's own body runs."""
    body = inspect.unwrap(fn).__code__
    inside = 0

    def on_collect(phase, info):
        nonlocal inside
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code is body:
                inside += 1
                return
            frame = frame.f_back

    threshold = gc.get_threshold()
    gc.callbacks.append(on_collect)
    gc.set_threshold(1)
    try:
        call()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(on_collect)
    return inside


def allocate_unpaused():
    return [[k] for k in range(100)]


@pytest.mark.parametrize("enabled", [True, False])
def test_exports_run_paused_and_restore_the_collector(enabled):
    result = decompose_document(parse_layout(CLUSTER7))
    model = result.model
    exports = [
        (write_report, lambda: write_report(result.report)),
        (build_full_model, lambda: build_full_model(result)),
        (export_lp, lambda: export_lp(model)),
        (emit_svg, lambda: emit_svg(result.document, result.report)),
        (layout_graph_dot, lambda: layout_graph_dot(result.graph)),
        (end_cut_graph_dot, lambda: end_cut_graph_dot(result.end_cuts)),
    ]
    (gc.enable if enabled else gc.disable)()
    try:
        for fn, call in exports:
            assert collections_inside(fn, call) == 0, fn.__name__
            assert gc.isenabled() is enabled, fn.__name__
        # the probe sees collections in a body that runs unpaused
        control = collections_inside(allocate_unpaused, allocate_unpaused)
        assert (control > 0) is enabled
    finally:
        gc.enable()
