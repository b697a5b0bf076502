"""The process under measurement, started fresh by run.py.

It imports trimdecomp, reads the workload's layout files, prints "ready"
on stdout (run.py times the start-up up to that line), then runs the
measured phase as a closed loop with one client and writes raw timings
and outputs as JSON to --out. It judges nothing: run.py compares every
output with the references.

A pass is the workload's fixed op set. The per-layout pass takes each
layout's text through parse_layout, decompose_document and write_report
(timed as the decompose part of the op) and then through
build_full_model, export_lp, emit_svg and both DOT writers (the export
part). The directory pass is one trimdecomp.cli.main call over the
layout directory; on random_batch it alternates with a per-layout pass.
While the end-to-end passes run, a timer signal makes the worker time a
fixed calibration workload every 0.1 s, also in the middle of an op;
run.py converts every interval to reference seconds with those samples.
Passes repeat until --seconds have elapsed, at least once (twice on the
full-size grid without tracing). Round-trip checks run after each pass,
outside its wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import trimdecomp
from spans import Tracer
from trimdecomp import cli
from trimdecomp.layout_io import parse_report, write_report


CALIBRATE_EVERY_S = 0.1


def calibration_work() -> int:
    """Fixed pure-Python work: integer arithmetic, dict and list churn and
    small tuples, about 2 ms. It never changes, so its duration measures
    how fast the machine runs Python at that moment."""
    table = {}
    acc = 0
    for i in range(8000):
        acc = (acc * 31 + i) % 1_000_003
        table[i % 997] = (i, acc)
    return acc + len(sorted(table.values()))


class Calibration:
    """While entered, a SIGALRM handler runs calibration_work every
    CALIBRATE_EVERY_S, also in the middle of an op, and records (start ns,
    duration ns). spent_ns is the total time the handler took, which the
    ops subtract from their own intervals."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []
        self.spent_ns = 0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        calibration_work()
        took = time.perf_counter_ns() - t0
        self.samples.append((t0, took))
        self.spent_ns += took

    def __enter__(self) -> "Calibration":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_op(key: str, text: str, time_limit: float | None, cal: Calibration):
    """One per-layout op; returns the raw record, the result and the report
    text, or a record with an error when any call raised. Each part's time
    excludes what the calibration handler took inside it."""
    rec: dict = {"key": key}
    t0 = rec["t0"] = time.perf_counter_ns()
    spent = cal.spent_ns
    try:
        doc = cli.parse_layout(text)
        result = cli.decompose_document(doc, time_limit=time_limit)
        report = cli.write_report(result.report)
    except Exception as exc:  # RecursionError included: a failed op, not a crash
        rec["t1"] = time.perf_counter_ns()
        rec["decompose_ns"] = rec["t1"] - t0 - (cal.spent_ns - spent)
        rec["error"] = f"{type(exc).__name__}: {exc}"[:300]
        return rec, None, None
    t1 = time.perf_counter_ns()
    rec["decompose_ns"] = t1 - t0 - (cal.spent_ns - spent)
    spent = cal.spent_ns
    try:
        lp = cli.export_lp(cli.build_full_model(result))
        cli.emit_svg(result.document, result.report)
        cli.layout_graph_dot(result.graph)
        cli.end_cut_graph_dot(result.end_cuts)
    except Exception as exc:
        rec["t1"] = time.perf_counter_ns()
        rec["error"] = f"export: {type(exc).__name__}: {exc}"[:300]
        return rec, None, None
    rec["t1"] = time.perf_counter_ns()
    rec["export_ns"] = rec["t1"] - t1 - (cal.spent_ns - spent)
    rec["lp_bytes"] = len(lp.encode())
    return rec, result, report


def check_op(rec: dict, result, report: str | None) -> dict:
    """Fill in what run.py judges: status, the report's cost and conflicts,
    its digest, and whether it round-trips with one mask line per segment."""
    if result is None:
        return rec
    parsed = parse_report(report)
    mask_lines = sum(1 for line in report.splitlines() if line.startswith("mask "))
    rec.update(
        status=result.stats.status.value,
        cost=str(parsed.cost),
        conflicts=len(parsed.conflicts),
        nodes=getattr(result.stats, "nodes", None),
        report_sha=hashlib.sha256(report.encode()).hexdigest(),
        round_trip=(
            write_report(parsed) == report
            and parsed.cost == result.report.cost
            and mask_lines == len(result.graph.segments)
        ),
    )
    return rec


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    src = Path(spec["src"]).resolve()
    if src not in Path(trimdecomp.__file__).resolve().parents:
        print(f"error: trimdecomp imported from {trimdecomp.__file__}, not {src}", file=sys.stderr)
        return 3
    ops = spec["ops"]
    texts = {op["key"]: Path(op["file"]).read_text() for op in ops}
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    calibration = Calibration()

    def layout_pass() -> dict:
        outs = []
        for op in ops:
            if tracer is not None:
                tracer.op = op["key"]
            outs.append(run_op(op["key"], texts[op["key"]], spec["time_limit"], calibration))
        return {"ops": [check_op(*out) for out in outs]}

    def dir_pass(jobs: int) -> dict:
        if tracer is not None:
            tracer.op = "main"
        out = io.StringIO()
        rec: dict = {"rc": None}
        spent = calibration.spent_ns
        rec["t0"] = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out):
                rec["rc"] = cli.main(["--input", spec["layout_dir"], "--jobs", str(jobs)])
        except Exception as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"[:300]
        rec["t1"] = time.perf_counter_ns()
        rec["own_ns"] = rec["t1"] - rec["t0"] - (calibration.spent_ns - spent)
        rec["rows"] = {row["circuit"]: row["cost"] for row in csv.DictReader(io.StringIO(out.getvalue()))}
        return rec

    def passes(run_pass, seconds: float, least: int = 1) -> list[dict]:
        done: list[dict] = []
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.pass_no = len(done)
            done.append(run_pass())
            if len(done) >= least and time.perf_counter() - start >= seconds:
                return done

    batch = spec["workload"] == "random_batch"
    result: dict = {}
    if not args.trace:
        with calibration:
            if batch:
                # alternate so both kinds of pass sample the whole run
                rounds = passes(lambda: (dir_pass(spec["jobs"]), layout_pass()), args.seconds)
                result["dir"] = [d for d, _ in rounds]
                result["serial"] = [s for _, s in rounds]
            else:
                result["layout"] = passes(layout_pass, args.seconds, spec["min_passes"])
        rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        result["peak_rss_mb"] = rss_kb / 1024
    else:
        # the traced shape of random_batch is serial: directory-mode
        # workers would hide the per-layout calls from the spans
        shaped = (lambda: dir_pass(1)) if batch else layout_pass
        kind = "dir" if batch else "layout"
        # the two phases share the run's --seconds
        result["untraced"] = {kind: passes(shaped, args.seconds / 2)}
        tracer = Tracer()
        result["absent"] = tracer.install(cli)
        try:
            result["traced"] = {kind: passes(shaped, args.seconds / 2)}
        finally:
            tracer.uninstall()
        result["spans"] = tracer.spans
    result["calibration"] = calibration.samples
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
