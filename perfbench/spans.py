"""Spans around the calls into each layer, and the per-layer figures.

The tracer replaces the public names that the pipeline looks up in
trimdecomp.cli's namespace (plus SpatialIndex.from_shapes) with wrappers,
so the real pipeline runs unchanged and every call into a layer records a
span: name, start and end in ns, parent span, op key and pass number.
Counts are read from the wrapped call's arguments and return value.
Spans stay in memory until the run ends.

Self time is a span's duration minus the part its child spans cover, so
the self times of a decompose_document span and all its descendants add
up to its duration exactly.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable

Counts = Callable[[tuple, Any], dict[str, int]]


def _cut_edges(g) -> int:
    return sum(1 for c in g.conflict_edges.values() if c is not None)


def _model_counts(args: tuple, model) -> dict[str, int]:
    return {"ilp.model_vars": len(model.names), "ilp.model_rows": len(model.constraints)}


def _rects_in(args: tuple) -> int:
    selected = args[0]
    if not isinstance(selected, (list, tuple)):
        return 0  # an iterator would be consumed by counting it
    return len({b.rect for c in selected for b in c.boxes})


# (name in trimdecomp.cli, metric prefix, counts read from args and result)
TARGETS: tuple[tuple[str, str, Counts | None], ...] = (
    ("parse_layout", "layout_io.parse_layout", lambda a, r: {"layout_io.shapes": len(r.shapes)}),
    ("write_report", "layout_io.write_report", None),
    ("emit_svg", "layout_io.emit_svg", None),
    ("conflict_pairs", "graphs.conflict_pairs", lambda a, r: {"graphs.pairs": len(r)}),
    ("build_layout_graph", "graphs.build_layout_graph", None),
    (
        "generate_stitch_candidates",
        "graphs.generate_stitch_candidates",
        lambda a, r: {"graphs.segments": len(r.segments), "graphs.stitch_edges": len(r.stitch_edges)},
    ),
    (
        "build_end_cut_graph",
        "graphs.build_end_cut_graph",
        lambda a, r: {"graphs.ee_edges": len(r.ee_edges), "graphs.merge_edges": len(r.merge_edges)},
    ),
    (
        "preselect_end_cuts",
        "graphs.preselect_end_cuts",
        lambda a, r: {"graphs.cut_edges": _cut_edges(a[0]), "graphs.preselected": len(r[1])},
    ),
    (
        "connected_components",
        "graphs.connected_components",
        lambda a, r: {
            "graphs.pieces": len(r),
            "graphs.largest_piece": max((len(p.segments) for p in r), default=0),
        },
    ),
    (
        "split_all_bridges",
        "graphs.split_all_bridges",
        lambda a, r: {"graphs.blocks": len(r[0]), "graphs.bridge_joints": len(r[1])},
    ),
    ("apply_joint", "graphs.apply_joint", None),
    ("layout_graph_dot", "graphs.layout_graph_dot", None),
    ("end_cut_graph_dot", "graphs.end_cut_graph_dot", None),
    ("generate_all_end_cuts", "endcut.generate_all_end_cuts", lambda a, r: {"endcut.candidates": len(r)}),
    (
        "merged_cut_rects",
        "endcut.merged_cut_rects",
        lambda a, r: {"endcut.cut_rects_in": _rects_in(a), "endcut.cut_rects_out": len(r)},
    ),
    ("build_model_no_stitch", "ilp.build_model", _model_counts),
    ("build_model_with_stitch", "ilp.build_model", _model_counts),
    (
        "solve",
        "ilp.solve",
        lambda a, r: {"ilp.nodes": r.nodes, "ilp.solve_timeouts": int(r.status.value == "timeout")},
    ),
    ("export_lp", "ilp.export_lp", lambda a, r: {"ilp.lp_bytes": len(r.encode())}),
    ("build_full_model", "cli.build_full_model", None),
    ("decompose_document", "cli.decompose_document", None),
    ("main", "cli.main", None),
)
FROM_SHAPES = "geometry.SpatialIndex.from_shapes"
DECOMPOSE = "cli.decompose_document"

SPAN_NAMES = tuple(dict.fromkeys([FROM_SHAPES] + [prefix for _, prefix, _ in TARGETS]))
COUNT_NAMES = (
    "layout_io.shapes",
    "graphs.pairs",
    "graphs.segments",
    "graphs.stitch_edges",
    "graphs.ee_edges",
    "graphs.merge_edges",
    "graphs.cut_edges",
    "graphs.preselected",
    "graphs.pieces",
    "graphs.largest_piece",
    "graphs.blocks",
    "graphs.bridge_joints",
    "endcut.candidates",
    "endcut.cut_rects_in",
    "endcut.cut_rects_out",
    "ilp.model_vars",
    "ilp.model_rows",
    "ilp.nodes",
    "ilp.solve_timeouts",
    "ilp.lp_bytes",
)
MAX_COUNTS = frozenset({"graphs.largest_piece"})
# Counts that depend on the solver's search repeat exactly only on proven
# ops; all the others must repeat for every op.
SEARCH_COUNTS = ("ilp.nodes", "ilp.solve_timeouts", "endcut.cut_rects_in", "endcut.cut_rects_out")
STRUCTURAL_COUNTS = tuple(n for n in COUNT_NAMES if n not in SEARCH_COUNTS)
# ratio name -> (numerator, denominator); each is printed beside its base
RATIOS = {
    "graphs.preselect_ratio": ("graphs.preselected", "graphs.cut_edges"),
    "endcut.cut_merge_ratio": ("endcut.cut_rects_out", "endcut.cut_rects_in"),
    "ilp.nodes_per_solve": ("ilp.nodes", "ilp.solve.calls"),
    "ilp.timeout_ratio": ("ilp.solve_timeouts", "ilp.solve.calls"),
}
TRACE_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.spans")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        if name == DECOMPOSE:
            units[f"{name}.total_s"] = "s"
            units["cli.self_s"] = "s"
        else:
            units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in COUNT_NAMES:
        units[name] = "bytes" if name == "ilp.lp_bytes" else "count"
    for name in RATIOS:
        units[name] = "ratio"
    for name in TRACE_METRICS:
        units[name] = "count" if name == "trace.spans" else "s"
    return units


class Tracer:
    """Records spans while installed; install() returns the names it could
    not find, which a later version of the package may have removed."""

    def __init__(self) -> None:
        # each span: [name, start_ns, end_ns, parent index, op key, pass, counts]
        self.spans: list[list] = []
        self.op: str | None = None
        self.pass_no = 0
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def _wrap(self, name: str, fn: Callable, counts: Counts | None) -> Callable:
        tracer = self
        is_decompose = name == DECOMPOSE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_op = tracer.op
            if is_decompose and args:
                tracer.op = getattr(args[0], "name", outer_op)
            span = [name, time.perf_counter_ns(), 0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.op, tracer.pass_no, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.op = outer_op
            if counts is not None:
                try:
                    span[6] = counts(args, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # a changed return shape loses the counts, not the run
            return result

        return traced

    def install(self, cli_module) -> list[str]:
        absent = []
        for attr, prefix, counts in TARGETS:
            original = getattr(cli_module, attr, None)
            if original is None:
                absent.append(prefix)
                continue
            setattr(cli_module, attr, self._wrap(prefix, original, counts))
            self._undo.append(functools.partial(setattr, cli_module, attr, original))
        index_cls = getattr(cli_module, "SpatialIndex", None)
        method = vars(index_cls).get("from_shapes") if index_cls is not None else None
        if isinstance(method, classmethod):
            index_cls.from_shapes = classmethod(self._wrap(FROM_SHAPES, method.__func__, None))
            self._undo.append(functools.partial(setattr, index_cls, "from_shapes", method))
        else:
            absent.append(FROM_SHAPES)
        return absent

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def self_times(spans: list) -> list[int]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s[1]
        for lo, hi in sorted(children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[2] - s[1] - covered)
    return out


def unaccounted_ns(spans: list, selfs: list[int]) -> int:
    """Largest gap, over all decompose_document spans, between the span's
    duration and the self times of the span and all its descendants."""
    kids: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids[s[3]].append(i)
    worst = 0
    for i, s in enumerate(spans):
        if s[0] != DECOMPOSE:
            continue
        total, work = 0, [i]
        while work:
            j = work.pop()
            total += selfs[j]
            work.extend(kids[j])
        worst = max(worst, abs((s[2] - s[1]) - total))
    return worst


def _add(total: Counter, counts: dict[str, int]) -> None:
    for k, v in counts.items():
        total[k] = max(total[k], v) if k in MAX_COUNTS else total[k] + v


def op_counts(spans: list) -> dict[tuple[int, str], Counter]:
    """Counts per (pass, op key), summed, or maximised for MAX_COUNTS."""
    out: dict[tuple[int, str], Counter] = defaultdict(Counter)
    for s in spans:
        if s[6]:
            _add(out[(s[5], s[4])], s[6])
    return out


def per_layer(spans: list, passes: int) -> dict[str, float]:
    """Per-layer figures for one pass: self time and calls per wrapped
    name averaged over the traced passes, and the first pass's counts."""
    selfs = self_times(spans)
    time_ns: Counter = Counter()
    calls: Counter = Counter()
    for s, own in zip(spans, selfs):
        time_ns[s[0]] += own
        calls[s[0]] += 1
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        key = f"{name}.total_s" if name == DECOMPOSE else f"{name}.s"
        if name == DECOMPOSE:
            total = sum(s[2] - s[1] for s in spans if s[0] == DECOMPOSE)
            out[key] = total / passes / 1e9
            out["cli.self_s"] = time_ns[name] / passes / 1e9
        else:
            out[key] = time_ns[name] / passes / 1e9
        out[f"{name}.calls"] = calls[name] / passes
    first: Counter = Counter()
    for (pass_no, _), counts in op_counts(spans).items():
        if pass_no == 0:
            _add(first, counts)
    for name in COUNT_NAMES:
        out[name] = first[name]
    for name, (num, den) in RATIOS.items():
        base = out[den]
        out[name] = out[num] / base if base else 0.0
    return out
