#!/usr/bin/env python3
"""Benchmark for trimdecomp, end to end and per layer.

Run from the repository root; nothing needs installing, the sources are
imported from src/ and the standard library is enough, plus scipy for the
random_batch oracle:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

The run makes its inputs from --seed, computes the reference optima,
times the start-up of several fresh worker processes, then lets one
worker run the measured phase for --seconds (see worker.py). With
--trace 0 it prints every end-to-end metric; with --trace 1 it runs the
same passes untraced and then traced, half of --seconds each, and prints
the per-layer metrics and the tracing overhead. --smoke shrinks every workload to run in
seconds. The last stdout line is the JSON result; the line before it
records provenance and each metric's median and quartiles within the run.

Timings come from perf_counter_ns taken outside the package and are
reported in reference seconds (see CAL_REF_NS below). The
package's own RunStats.cpu_s and stage_ms are not used: stage_ms truncates
every stage to whole milliseconds, and cpu_s is wall time inside
decompose_document, which under --jobs threads includes waiting for the
interpreter lock.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans as sp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = {False: 9, True: 2}
DEADLINE_S = 170  # a run must end within 180 s
# Times are reported in reference seconds: seconds on a machine on which
# worker.calibration_work takes CAL_REF_NS. The worker samples that work
# every 0.1 s, also inside ops; each interval is scaled by CAL_REF_NS over
# the median sample taken during it, widened to at least CAL_SPAN_NS
# around its middle. This cancels the drift of a shared machine's speed.
CAL_REF_NS = 2_000_000
CAL_SPAN_NS = 1_000_000_000
# timed end-to-end metrics; ok_share, peak_rss_mb and ops are added apart
UNITS = {
    "setup_s": "s", "wall_s": "ref_s", "decompose_s": "ref_s", "export_s": "ref_s",
    "layouts_per_s": "1/ref_s",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def source_digest() -> str:
    """Digest of the package and benchmark sources, so determinism is only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(WORKER.parent.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def remaining(start: float) -> float:
    left = DEADLINE_S - (time.monotonic() - start)
    if left <= 0:
        raise BenchError("out of time before the measured phase ended")
    return left


def start_worker(args: list[str], env: dict, start: float) -> tuple[subprocess.Popen, int]:
    """Start a worker and wait for its ready line; returns the process and
    the start-up time in ns."""
    t0 = time.perf_counter_ns()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, env=env, text=True
    )
    line = proc.stdout.readline()
    ready_ns = time.perf_counter_ns() - t0
    if line.strip() != "ready":
        finish(proc, start)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready_ns


def finish(proc: subprocess.Popen, start: float) -> None:
    try:
        proc.communicate(timeout=remaining(start))
    except (subprocess.TimeoutExpired, BenchError):
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


class Judge:
    """Compares outputs with the references and collects what failed."""

    def __init__(self, spec: dict) -> None:
        self.ops = {op["key"]: op for op in spec["ops"]}
        self.unlimited = spec["time_limit"] is None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reports: dict[str, str] = {}
        self.nodes: dict[str, int] = {}
        self.lp_bytes: dict[str, int] = {}
        self.counts: dict[str, dict[str, int]] = {}
        self.errored: set[str] = set()

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            print(f"check failed: {text}", file=sys.stderr)
        self.problems.append(text)

    def _same(self, table: dict, key: str, value, what: str) -> None:
        if table.setdefault(key, value) != value:
            self.problem(f"{what} of {key} differs between passes")

    def layout_op(self, rec: dict) -> bool:
        """A failed op is a timeout, an exception or a wrong cost."""
        self.attempted += 1
        key = rec["key"]
        op = self.ops[key]
        ok = "error" not in rec
        if not ok:
            self.errored.add(key)
        else:
            if not rec["round_trip"]:
                self.problem(f"report of {key} does not round-trip with one mask line per segment")
            self._same(self.lp_bytes, key, rec["lp_bytes"], "LP size")
            optimal = rec["status"] == "optimal"
            right = Fraction(rec["cost"]) == Fraction(op["optimum"])
            if "conflicts" in op and rec["conflicts"] != op["conflicts"]:
                right = False
            if optimal:
                self._same(self.reports, key, rec["report_sha"], "report bytes")
                self._same(self.nodes, key, rec["nodes"], "B&B node count")
                if not right:
                    self.problem(f"{key} claims optimal cost {rec['cost']}, reference {op['optimum']}")
            ok = optimal and right and rec["round_trip"]
        self.failed += not ok
        return ok

    def dir_pass(self, rec: dict) -> int:
        """Correct layouts in one directory-mode pass; rows missing after a
        crash or a non-zero exit count as failed."""
        good = 0
        for key, op in self.ops.items():
            self.attempted += 1
            cost = rec["rows"].get(key)
            if rec["rc"] == 0 and cost is not None and Fraction(cost) == Fraction(op["optimum"]):
                good += 1
            else:
                self.failed += 1
                if cost is not None and rec["rc"] == 0 and self.unlimited:
                    self.problem(f"{key} reports cost {cost} without a time limit, reference {op['optimum']}")
        return good


class Speed:
    """Converts measured intervals to reference seconds; without samples
    (traced runs) it leaves them in seconds."""

    def __init__(self, samples: list[list[int]]) -> None:
        self.samples = sorted(samples)
        self.starts = [t for t, _ in self.samples]

    def seconds(self, ns: int, t0: int, t1: int) -> float:
        if not self.samples:
            return ns / 1e9
        mid = (t0 + t1) // 2
        lo = bisect.bisect_left(self.starts, min(t0, mid - CAL_SPAN_NS // 2))
        hi = bisect.bisect_right(self.starts, max(t1, mid + CAL_SPAN_NS // 2))
        near = [d for _, d in self.samples[lo:hi]] or [d for _, d in self.samples]
        return ns / 1e9 * CAL_REF_NS / statistics.median(near)


def layout_samples(judge: Judge, speed: Speed, passes: list[dict]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {
        "decompose_s": [], "export_s": [], "wall_s": [], "layouts_per_s": [], "raw_wall_s": [],
    }
    for p in passes:
        good = 0
        wall = raw = 0.0
        for rec in p["ops"]:
            good += judge.layout_op(rec)
            if rec.get("status") == "timeout":
                # the deadline, not the machine's speed, set this duration
                decompose = rec["decompose_ns"] / 1e9
            else:
                decompose = speed.seconds(rec["decompose_ns"], rec["t0"], rec["t1"])
            out["decompose_s"].append(decompose)
            wall += decompose
            raw += rec["decompose_ns"] / 1e9
            if "export_ns" in rec:
                export = speed.seconds(rec["export_ns"], rec["t0"], rec["t1"])
                out["export_s"].append(export)
                wall += export
                raw += rec["export_ns"] / 1e9
        out["wall_s"].append(wall)
        out["raw_wall_s"].append(raw)
        out["layouts_per_s"].append(good / wall)
    return out


def dir_samples(judge: Judge, speed: Speed, passes: list[dict]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {"wall_s": [], "layouts_per_s": [], "raw_wall_s": []}
    for p in passes:
        good = judge.dir_pass(p)
        wall = speed.seconds(p["own_ns"], p["t0"], p["t1"])
        out["wall_s"].append(wall)
        out["raw_wall_s"].append(p["own_ns"] / 1e9)
        out["layouts_per_s"].append(good / wall)
    return out


def end_to_end(judge: Judge, raw: dict, setup: list[float], spec: dict) -> tuple[dict, dict]:
    speed = Speed(raw["calibration"])
    if "dir" in raw:
        # decompose_s and export_s from the serial passes; wall_s and
        # layouts_per_s from the directory-mode passes
        samples = layout_samples(judge, speed, raw["serial"])
        samples.update(dir_samples(judge, speed, raw["dir"]))
    else:
        samples = layout_samples(judge, speed, raw["layout"])
    samples["setup_s"] = setup
    samples["calibration_ms"] = [d / 1e6 for _, d in raw["calibration"]]
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in UNITS.items()
        if samples[name]
    }
    metrics["ok_share"] = {"value": (judge.attempted - judge.failed) / judge.attempted, "unit": "ratio"}
    metrics["peak_rss_mb"] = {"value": raw["peak_rss_mb"], "unit": "MB"}
    metrics["ops"] = {"value": len(spec["ops"]), "unit": "count"}
    return metrics, {name: quartiles(v) for name, v in samples.items() if v}


def traced_metrics(judge: Judge, raw: dict) -> tuple[dict, dict]:
    speed = Speed(raw["calibration"])
    walls = {}
    for phase in ("untraced", "traced"):
        kind, passes = next(iter(raw[phase].items()))
        samples = (dir_samples if kind == "dir" else layout_samples)(judge, speed, passes)
        walls[phase] = samples["wall_s"]
    for name in raw["absent"]:
        print(f"note: {name} is absent from this version; reported as 0", file=sys.stderr)
    spans = raw["spans"]
    selfs = sp.self_times(spans)
    gap = sp.unaccounted_ns(spans, selfs)
    if gap:
        judge.problem(f"self times miss {gap} ns of a decompose_document span")
    check_counts(judge, sp.op_counts(spans))
    values = sp.per_layer(spans, len(walls["traced"]))
    values["trace.wall_s"] = statistics.median(walls["traced"])
    values["trace.untraced_wall_s"] = statistics.median(walls["untraced"])
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.spans"] = len(spans) / len(walls["traced"])
    units = sp.metric_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    samples = {"trace.wall_s": quartiles(walls["traced"]), "trace.untraced_wall_s": quartiles(walls["untraced"])}
    return metrics, samples


def check_counts(judge: Judge, by_op: dict) -> None:
    """Counts of one op must repeat exactly in every traced pass: the
    structural ones on every op that ran to the end, the search-dependent
    ones on proven ops. An op that raised stops wherever it raised."""
    first: dict[str, dict] = {}
    for (pass_no, key), counts in sorted(by_op.items()):
        if key not in judge.ops or key in judge.errored:
            continue
        names = sp.STRUCTURAL_COUNTS
        if judge.unlimited or judge.nodes.get(key) is not None:
            names = names + sp.SEARCH_COUNTS
        mine = {n: counts[n] for n in names}
        if key in first:
            for n, v in first[key].items():
                if n in mine and mine[n] != v:
                    judge.problem(f"count {n} of {key} differs between traced passes")
        else:
            first[key] = mine
    judge.counts.update(first)


def compare_fingerprint(judge: Judge, path: Path) -> None:
    """Two runs of one seed on the same sources must agree exactly on
    report bytes, node counts of proven ops, LP sizes and layer counts.
    The first run of a seed records them; later runs compare and add."""
    mine = {"reports": judge.reports, "nodes": judge.nodes, "lp_bytes": judge.lp_bytes,
            "counts": judge.counts}
    old = json.loads(path.read_text()) if path.exists() else {}
    before = len(judge.problems)
    compared = 0
    merged = {}
    for section, table in mine.items():
        seen = merged[section] = dict(old.get(section, {}))
        for key, value in table.items():
            if key not in seen:
                seen[key] = value
                continue
            compared += 1
            if section == "counts":
                differs = any(n in seen[key] and seen[key][n] != v for n, v in value.items())
                seen[key] = {**value, **seen[key]}
            else:
                differs = seen[key] != value
            if differs:
                judge.problem(f"{section} of {key} differ from an earlier run of this seed")
    if compared and len(judge.problems) == before:
        print(f"note: {compared} outputs agree with an earlier run of this seed", file=sys.stderr)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(merged, sort_keys=True))
    os.replace(tmp, path)


def run(args: argparse.Namespace, workdir: Path, start: float) -> int:
    import workloads

    spec = workloads.build(args.workload, args.seed, args.smoke, workdir)
    if args.workload == "random_batch":
        import oracle

        optima = oracle.reference_optima({op["key"]: Path(op["file"]).read_text() for op in spec["ops"]})
        for op in spec["ops"]:
            op["optimum"] = str(optima[op["key"]])
    spec["src"] = str(SRC)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    setup = []
    for _ in range(SETUP_PROBES[args.smoke]):
        proc, ready_ns = start_worker(["--spec", str(spec_path), "--setup-only"], env, start)
        finish(proc, start)
        setup.append(ready_ns / 1e9)

    out_path = workdir / "worker.json"
    proc, _ = start_worker(
        ["--spec", str(spec_path), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(out_path)],
        env, start,
    )
    finish(proc, start)
    raw = json.loads(out_path.read_text())

    judge = Judge(spec)
    if args.trace:
        metrics, samples = traced_metrics(judge, raw)
    else:
        metrics, samples = end_to_end(judge, raw, setup, spec)
    size = "smoke" if args.smoke else "full"
    digest = source_digest()
    compare_fingerprint(judge, WORK / "fingerprints" / f"{args.workload}-{size}-{args.seed}-{digest[:16]}.json")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": digest,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "check_problems": len(judge.problems),
    }
    print(json.dumps({"provenance": provenance, "samples": samples}))
    print(json.dumps({
        "correct": not judge.problems,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="trimdecomp benchmark")
    ap.add_argument("--workload", required=True, choices=("grid", "random_batch", "chain"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs that run in seconds")
    args = ap.parse_args(argv)
    start = time.monotonic()
    if not (SRC / "trimdecomp" / "__init__.py").is_file():
        print(f"error: no trimdecomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return run(args, workdir, start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
