"""Smoke tests of the benchmark: tiny inputs, one pass per run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"], proc.stderr
    return doc


@pytest.mark.parametrize("workload", ["grid", "random_batch", "chain"])
def test_end_to_end_metrics_are_all_printed(workload):
    doc = result(bench(workload, 0))
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    share = doc["metrics"]["ok_share"]["value"]
    assert share == (doc["attempted"] - doc["failed"]) / doc["attempted"]
    if workload == "chain":
        # the 24-bar chain times out and the 1200-bar one raises RecursionError
        assert doc["failed"] == 2 and share == 0.5
    else:
        assert doc["failed"] == 0 and share == 1.0


@pytest.mark.parametrize("workload", ["grid", "random_batch", "chain"])
def test_traced_run_covers_every_layer(workload):
    doc = result(bench(workload, 1))
    metrics = doc["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for module in ("layout_io", "geometry", "graphs", "endcut", "ilp", "cli"):
        assert any(k.startswith(module + ".") and k.endswith(".calls") and v["value"] > 0
                   for k, v in metrics.items()), module
    assert metrics["graphs.pairs"]["value"] > 0
    assert metrics["ilp.solve.calls"]["value"] > 0
    if workload == "random_batch":
        assert metrics["cli.main.calls"]["value"] == 1
        assert metrics["graphs.generate_stitch_candidates.calls"]["value"] == 3
    else:
        assert metrics["ilp.lp_bytes"]["value"] > 0


def test_same_seed_twice_gives_identical_outputs():
    seed = 424242
    fingerprints = ROOT / ".perfbench_work" / "fingerprints"
    for stale in fingerprints.glob(f"chain-smoke-{seed}-*.json"):
        stale.unlink()
    try:
        result(bench("chain", 1, seed))
        second = bench("chain", 1, seed)
        result(second)
        assert "agree with an earlier run" in second.stderr, second.stderr
    finally:
        for made in fingerprints.glob(f"chain-smoke-{seed}-*.json"):
            made.unlink()


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_self_time_subtracts_the_union_of_children():
    # name, start, end, parent, op, pass, counts
    s = [
        [spans.DECOMPOSE, 0, 100, -1, "a", 0, None],
        ["graphs.conflict_pairs", 10, 30, 0, "a", 0, {"graphs.pairs": 4}],
        ["ilp.solve", 40, 90, 0, "a", 0, {"ilp.nodes": 9}],
        ["ilp.build_model", 50, 60, 2, "a", 0, None],
    ]
    selfs = spans.self_times(s)
    assert selfs == [30, 20, 40, 10]
    assert spans.unaccounted_ns(s, selfs) == 0
    layer = spans.per_layer(s, passes=1)
    assert layer["cli.self_s"] == 30e-9
    assert layer["cli.decompose_document.total_s"] == 100e-9
    assert layer["ilp.nodes_per_solve"] == 9
