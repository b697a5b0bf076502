"""Decomposition pipeline and command line front end.

decompose_document runs the whole flow on a parsed layout: conflict
detection, cut generation, optional stitch insertion, the end-cut graph,
one exact solve of the layout graph, and reassembly into a report. main
wraps it with file handling, artifact export, and a benchmark mode over a
directory of layouts. Benchmark mode spreads the layouts over --jobs
worker processes, at most one per CPU and per layout; the work is
pure-Python CPU, so threads would queue on the interpreter lock.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys
import time
from collections.abc import Iterator
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from pathlib import Path

from .endcut import generate_all_end_cuts, merged_cut_rects
from .geometry import Metric, SpatialIndex
from .graphs import (
    EndCutGraph,
    LayoutGraph,
    build_end_cut_graph,
    build_layout_graph,
    conflict_pairs,
    end_cut_graph_dot,
    generate_stitch_candidates,
    layout_graph_dot,
)
from .ilp import (
    IlpModel,
    SolveStatus,
    build_model,
    export_lp,
    solve,
)
from .layout_io import (
    DecompositionReport,
    LayoutDocument,
    LayoutParseError,
    StitchPoint,
    emit_svg,
    fraction_to_decimal,
    parse_layout,
    write_report,
)


@dataclass(frozen=True)
class RunStats:
    wires: int
    components: int
    conflicts: int
    stitches: int
    cost: Fraction
    cpu_s: float
    status: SolveStatus
    nodes: int


@dataclass(frozen=True)
class DecompositionResult:
    document: LayoutDocument
    graph: LayoutGraph
    end_cuts: EndCutGraph
    report: DecompositionReport
    stats: RunStats
    stage_us: tuple[tuple[str, int], ...]


def build_full_model(result: DecompositionResult) -> IlpModel:
    """The single unreduced model for the decomposition that was run.

    Without stitching alpha weighs nothing, and 0 keeps the objective
    unscaled by alpha's denominator."""
    params = result.document.params
    alpha = params.alpha if params.stitch else Fraction(0)
    return build_model(result.graph, result.end_cuts, alpha)


def decompose_document(
    doc: LayoutDocument,
    *,
    stitch: bool | None = None,
    alpha: Fraction | None = None,
    metric: Metric = Metric.CHEBYSHEV,
    time_limit: float | None = None,
) -> DecompositionResult:
    """Decompose one layout exactly and package every output.

    The layout graph goes to a single solve call, which splits it into
    independent blocks; comp# in the stats is that block count.
    """
    t_start = time.perf_counter_ns()
    deadline = t_start + int(time_limit * 1e9) if time_limit is not None else None
    stages: list[tuple[str, int]] = []
    last = t_start

    def stage(name: str) -> None:
        nonlocal last
        now = time.perf_counter_ns()
        stages.append((name, (now - last) // 1000))
        last = now

    params = doc.params
    if stitch is not None or alpha is not None:
        params = dataclasses.replace(
            params,
            stitch=params.stitch if stitch is None else stitch,
            alpha=params.alpha if alpha is None else alpha,
        )
        doc = dataclasses.replace(doc, params=params)

    index = SpatialIndex.from_shapes(doc.shapes, max(params.dis_m, params.dis_c, 1))
    pairs = conflict_pairs(doc, index, metric)
    stage("pairs")
    cuts = generate_all_end_cuts(doc, pairs, index)
    del index  # free it before the solve, where memory use peaks
    stage("cuts")
    g = build_layout_graph(doc, pairs, cuts)
    if params.stitch:
        g = generate_stitch_candidates(doc, g, metric=metric)
    stage("graph")
    ecg = build_end_cut_graph(cuts, params, metric)
    stage("ecgraph")

    remaining = None
    if deadline is not None:
        remaining = max((deadline - time.perf_counter_ns()) / 1e9, 0.001)
    sol = solve(g, ecg, params.alpha, time_limit=remaining)
    colors, selected = sol.colors, sol.selected
    stage("solve")

    conflicts = []
    for (u, v), cand in sorted(g.conflict_edges.items()):
        if colors[u] != colors[v]:
            continue
        if cand is not None and cand.pair in selected:
            continue
        conflicts.append((u, v))
    stitches: list[StitchPoint] = []
    for (u, v), sp in sorted(g.stitch_edges.items()):
        if colors[u] != colors[v]:
            stitches.append(sp)
    cost = Fraction(len(conflicts)) + params.alpha * len(stitches)
    if cost != sol.objective:
        raise AssertionError(
            f"cost bookkeeping mismatch: recount {cost} != solved {sol.objective}"
        )
    for pa, pb in ecg.ee_edges:
        if pa in selected and pb in selected:
            raise AssertionError(f"cuts {pa} and {pb} are too close to both print")

    report = DecompositionReport(
        masks={v: "AB"[colors[v]] for v in sorted(colors)},
        cuts=merged_cut_rects([cuts[p] for p in sorted(selected)], params),
        conflicts=tuple(conflicts),
        stitches=tuple(sorted(stitches)),
        cost=cost,
    )
    stage("report")
    stats = RunStats(
        wires=len(doc.shapes),
        components=sol.blocks,
        conflicts=len(conflicts),
        stitches=len(stitches),
        cost=cost,
        cpu_s=(time.perf_counter_ns() - t_start) / 1e9,
        status=sol.status,
        nodes=sol.nodes,
    )
    return DecompositionResult(
        document=doc,
        graph=g,
        end_cuts=ecg,
        report=report,
        stats=stats,
        stage_us=tuple(stages),
    )


def stats_line(stats: RunStats) -> str:
    return (
        f"wire# {stats.wires} comp# {stats.components} "
        f"conflict# {stats.conflicts} stitch# {stats.stitches} "
        f"cost {fraction_to_decimal(stats.cost)} CPU(s) {stats.cpu_s:.2f} "
        f"status {stats.status.value}"
    )


def _parse_alpha(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad weight {text!r}: {exc}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("stitch weight must be non-negative")
    return value


def _parse_jobs(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad job count {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("job count must be at least 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="trimdecomp",
        description="Assign layout features to two masks plus a trim mask of end-cuts.",
    )
    ap.add_argument("--input", required=True, help="layout file, or a directory of .lay files")
    ap.add_argument("--out", help="write the decomposition report here")
    ap.add_argument("--svg", help="render the decomposition to an SVG file")
    ap.add_argument("--lp-export", help="write the full 0-1 model in LP format")
    ap.add_argument(
        "--stitch",
        action="store_true",
        default=None,
        help="allow stitches even when the layout file does not ask for them",
    )
    ap.add_argument("--alpha", type=_parse_alpha, help="stitch weight, e.g. 1/10 or 0.1")
    ap.add_argument("--time-limit", type=float, help="overall solve budget in seconds")
    ap.add_argument(
        "--jobs",
        type=_parse_jobs,
        default=1,
        help="worker processes in directory mode, at most one per CPU and per layout",
    )
    ap.add_argument(
        "--metric",
        choices=["chebyshev", "euclidean"],
        default="chebyshev",
        help="distance rule for spacing checks",
    )
    ap.add_argument("--dot", help="write conflict and cut graphs in DOT format")
    return ap


def _run_one(path: Path, args: argparse.Namespace) -> DecompositionResult:
    doc = parse_layout(path.read_text())
    return decompose_document(
        doc,
        stitch=args.stitch,
        alpha=args.alpha,
        metric=Metric(args.metric),
        time_limit=args.time_limit,
    )


def _ec_dot_path(path: Path) -> Path:
    return path.with_name(path.stem + ".ec" + (path.suffix or ".dot"))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    root = Path(args.input)
    if not root.exists():
        print(f"error: no such input: {root}", file=sys.stderr)
        return 1
    try:
        if root.is_dir():
            return _bench(root, args)
        result = _run_one(root, args)
    except (LayoutParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, RecursionError, BrokenExecutor) as exc:
        # a failed bookkeeping check, an exhausted stack or a dead worker
        # process is a defect of this program, not of the input
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for name, us in result.stage_us:
        print(f"stage={name} us={us}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(write_report(result.report))
    if args.svg:
        Path(args.svg).write_text(emit_svg(result.document, result.report))
    if args.lp_export:
        Path(args.lp_export).write_text(export_lp(build_full_model(result)))
    if args.dot:
        dot = Path(args.dot)
        dot.write_text(layout_graph_dot(result.graph))
        _ec_dot_path(dot).write_text(end_cut_graph_dot(result.end_cuts))
    print(stats_line(result.stats))
    return 0


def _stats_row(path: Path, args: argparse.Namespace) -> tuple[str, RunStats]:
    """One directory-mode row; module level so a worker process can run it."""
    return path.stem, _run_one(path, args).stats


def _bench(root: Path, args: argparse.Namespace) -> int:
    paths = sorted(root.glob("*.lay"))
    if not paths:
        print(f"error: no .lay files under {root}", file=sys.stderr)
        return 1
    # the pool forks all of max_workers on its first submit
    workers = min(args.jobs, len(paths), os.cpu_count() or 1)
    if workers == 1:
        return _write_rows(paths, map(_stats_row, paths, repeat(args)))
    # imported here: multiprocessing would lengthen every start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _write_rows(paths, pool.map(_stats_row, paths, repeat(args)))


def _write_rows(paths: list[Path], results: Iterator[tuple[str, RunStats]]) -> int:
    """Print the CSV of results, which come in the order of paths.

    The first failing layout in that order is the one reported; the
    exception ends either kind of map, which cancels the layouts not yet
    started.
    """
    rows = []
    for path in paths:
        try:
            rows.append(next(results))
        except (LayoutParseError, OSError, ValueError) as exc:
            print(f"error: {path.name}: {exc}", file=sys.stderr)
            return 1
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["circuit", "wire", "comp", "conflict", "stitch", "cost", "cpu_s", "status"]
    )
    for name, st in rows:
        writer.writerow(
            [name, st.wires, st.components, st.conflicts, st.stitches,
             fraction_to_decimal(st.cost), f"{st.cpu_s:.2f}", st.status.value]
        )
    sys.stdout.write(buf.getvalue())
    return 0
