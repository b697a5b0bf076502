"""Decomposition pipeline and command line front end.

decompose_document runs the whole flow on a parsed layout: conflict
detection, cut generation, optional stitch insertion, the end-cut graph,
one exact solve of the layout graph, and reassembly into a report. main
wraps it with file handling, artifact export, and a benchmark mode over a
directory of layouts. Benchmark mode maps the layouts over --jobs worker
processes, at most one per CPU and per layout, in runs of consecutive
layouts (the pool map's chunksize); the work is pure-Python CPU, so
threads would queue on the interpreter lock.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import os
import sys
import time
from collections.abc import Iterable
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
from .ilp import IlpModel, SolveStatus, build_model, export_lp, solve
from .layout_io import (
    DecompositionReport,
    LayoutDocument,
    LayoutParseError,
    _collector_paused,
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
    # the one 0-1 model of the run: what solve optimised and LP export prints
    model: IlpModel
    report: DecompositionReport
    stats: RunStats
    stage_us: tuple[tuple[str, int], ...]


def build_full_model(result: DecompositionResult) -> IlpModel:
    """The single unreduced model of the run, the one its solve optimised."""
    return result.model


@_collector_paused
def decompose_document(
    doc: LayoutDocument,
    *,
    stitch: bool | None = None,
    alpha: Fraction | None = None,
    metric: Metric = Metric.CHEBYSHEV,
    time_limit: float | None = None,
) -> DecompositionResult:
    """Decompose one layout exactly and package every output.

    Before any cut is made, conflict_pairs checks on the shape rank pairs
    of the one sweep that the shapes do not overlap (else
    OverlappingInputShapes). The graphs
    become one 0-1 model, kept in the result; without stitching alpha is
    0, which leaves costs unscaled by its denominator and the search the
    same. A single solve of the model splits it into independent blocks;
    comp# in the stats is that block count. solve answers on ranks (the
    masks by segment, and the selected cuts, conflict and stitch edges),
    prices that answer and checks it; the report maps each rank to its
    key, candidate or stitch point once.
    """
    t_start = time.perf_counter_ns()
    deadline = t_start + _time_limit_ns(time_limit) if time_limit is not None else None
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

    # one sweep finds the conflict candidates and every feature that can reach
    # into a cut box; conflict_pairs rejects the lowest overlapping pair
    reach = max(params.dis_m, params.h_high, params.w_high)
    near_pairs = SpatialIndex.from_shapes(doc.shapes).pairs(reach)
    pairs = conflict_pairs(doc, near_pairs, metric)
    stage("pairs")
    cuts = generate_all_end_cuts(doc, pairs, near_pairs)
    del near_pairs  # free them before the solve, where memory use peaks
    stage("cuts")
    if params.stitch:
        g = generate_stitch_candidates(doc, pairs, cuts, metric=metric)
    else:
        g = build_layout_graph(doc, pairs, cuts)
    stage("graph")
    ecg = build_end_cut_graph(cuts, params, metric)
    stage("ecgraph")

    model = build_model(g, ecg, params.alpha if params.stitch else Fraction(0))
    remaining = None
    if deadline is not None:
        remaining = max((deadline - time.perf_counter_ns()) / 1e9, 0.001)
    sol = solve(model, time_limit=remaining)
    stage("solve")

    segs, ends = g.segments, g.conflict_edges
    # the merge edges between selected cuts, on their positions in the selection
    at = {k: i for i, k in enumerate(sol.selected)}
    links = [(at[ka], at[kb]) for ka, kb in ecg.merge_edges if ka in at and kb in at]
    report = DecompositionReport(
        masks=dict(zip(segs, map("AB".__getitem__, sol.colors))),
        cuts=merged_cut_rects([ecg.candidates[k] for k in sol.selected], params, links),
        conflicts=tuple([(segs[ends[i][0]], segs[ends[i][1]]) for i in sol.conflicts]),
        stitches=tuple(sorted([g.stitch_points[i] for i in sol.stitches])),
        cost=sol.objective,
        status=sol.status,
    )
    stage("report")
    stats = RunStats(
        wires=len(doc.shapes),
        components=sol.blocks,
        conflicts=len(sol.conflicts),
        stitches=len(sol.stitches),
        cost=sol.objective,
        cpu_s=(time.perf_counter_ns() - t_start) / 1e9,
        status=sol.status,
        nodes=sol.nodes,
    )
    return DecompositionResult(
        document=doc,
        graph=g,
        end_cuts=ecg,
        model=model,
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


def _time_limit_ns(seconds: float) -> int:
    """The time limit in nanoseconds, in which the deadline is counted.

    ValueError unless it is finite and non-negative, in seconds and in
    nanoseconds; NaN fails the comparison."""
    if not (seconds >= 0 and math.isfinite(seconds * 1e9)):
        raise ValueError("time limit must be a finite, non-negative number of seconds")
    return int(seconds * 1e9)


def _parse_time_limit(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad time limit {text!r}") from None
    try:
        _time_limit_ns(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
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
    ap.add_argument("--time-limit", type=_parse_time_limit, help="overall solve budget in seconds")
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


def _decompose(doc: LayoutDocument, args: argparse.Namespace) -> DecompositionResult:
    return decompose_document(
        doc,
        stitch=args.stitch,
        alpha=args.alpha,
        metric=Metric(args.metric),
        time_limit=args.time_limit,
    )


def _run_one(path: Path, args: argparse.Namespace) -> DecompositionResult:
    return _decompose(parse_layout(path.read_text()), args)


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
        text = root.read_text()
        t_parse = time.perf_counter_ns()
        doc = parse_layout(text)
        parse_us = (time.perf_counter_ns() - t_parse) // 1000
        result = _decompose(doc, args)
        for name, us in (("parse", parse_us), *result.stage_us):
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
    except (LayoutParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, RecursionError) as exc:
        # a failed bookkeeping check or an exhausted stack is a defect of
        # this program, not of the input
        return _internal_error(exc)
    print(stats_line(result.stats))
    return 0


def _internal_error(exc: BaseException) -> int:
    print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


class _InputError(Exception):
    """A bad layout of a directory run, as "<file name>: <reason>"; a text
    argument alone, so it crosses from a worker process as it is."""


def _stats_row(path: Path, args: argparse.Namespace) -> tuple[str, RunStats]:
    """One directory-mode row; module level so a worker process can run it."""
    try:
        return path.stem, _run_one(path, args).stats
    except (LayoutParseError, OSError, ValueError) as exc:
        raise _InputError(f"{path.name}: {exc}") from None


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the system
    has one, which a CPU mask such as taskset's narrows, else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bench(root: Path, args: argparse.Namespace) -> int:
    # every export is of one layout's decomposition
    exports = [
        "--" + name.replace("_", "-")
        for name in ("out", "svg", "lp_export", "dot")
        if getattr(args, name)
    ]
    if exports:
        print(f"error: {', '.join(exports)} cannot be used with a directory input", file=sys.stderr)
        return 1
    paths = sorted(root.glob("*.lay"))
    if not paths:
        print(f"error: no .lay files under {root}", file=sys.stderr)
        return 1
    # the pool forks all of max_workers on its first submit
    workers = min(args.jobs, len(paths), _usable_cpus())
    if workers == 1:
        return _write_rows(map(_stats_row, paths, repeat(args)))
    # imported here: multiprocessing would lengthen every start-up
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    # runs of consecutive layouts, about eight per worker, so that a
    # worker's round trip serves several layouts and a slow run still
    # leaves the others work to share
    size = max(1, len(paths) // (8 * workers))
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _write_rows(pool.map(_stats_row, paths, repeat(args), chunksize=size))
    except BrokenExecutor as exc:
        # a dead worker process is a defect of this program, not of the input
        return _internal_error(exc)


def _write_rows(rows: Iterable[tuple[str, RunStats]]) -> int:
    """Print the CSV of rows, which come in sorted file-name order.

    The first failing layout in that order is the one reported: a run of
    layouts stops at its failing one, and leaving the pool's map early
    cancels the runs not yet started.
    """
    try:
        table = list(rows)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["circuit", "wire", "comp", "conflict", "stitch", "cost", "cpu_s", "status"]
    )
    for name, st in table:
        writer.writerow(
            [name, st.wires, st.components, st.conflicts, st.stitches,
             fraction_to_decimal(st.cost), f"{st.cpu_s:.2f}", st.status.value]
        )
    sys.stdout.write(buf.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
