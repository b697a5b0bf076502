import concurrent.futures
import multiprocessing
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

import trimdecomp
import trimdecomp.cli
from trimdecomp.cli import decompose_document, main
from trimdecomp.geometry import Rect
from trimdecomp.layout_io import LayoutParseError, parse_report, write_layout, write_report
from trimdecomp.synth import random_layout

ROOT = Path(__file__).resolve().parent.parent
LAYOUTS = ROOT / "layouts"

STATS_ROW = re.compile(
    r"^wire# \d+ comp# \d+ conflict# \d+ stitch# \d+ cost \S+ CPU\(s\) \d+\.\d\d "
    r"status (optimal|timeout)$"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_demo_layout_run(capsys):
    code, out, err = run(capsys, "--input", str(LAYOUTS / "endcut_demo.lay"))
    assert code == 0
    assert STATS_ROW.match(out.strip())
    assert "conflict# 0" in out and "stitch# 0" in out and "cost 0.0" in out
    assert out.strip().endswith("status optimal")
    assert re.search(r"^stage=solve us=\d+$", err, re.M)


def test_report_file_round_trip(tmp_path, capsys):
    out_file = tmp_path / "demo.rpt"
    code, _, _ = run(
        capsys, "--input", str(LAYOUTS / "endcut_demo.lay"), "--out", str(out_file)
    )
    assert code == 0
    rpt = parse_report(out_file.read_text())
    assert rpt.masks == {(1, 0): "A", (2, 0): "B", (3, 0): "B"}
    assert rpt.cuts == (Rect.of(200, 0, 240, 40),)
    assert rpt.conflicts == ()
    assert rpt.cost == Fraction(0)


def test_svg_written(tmp_path, capsys):
    svg = tmp_path / "demo.svg"
    code, _, _ = run(
        capsys, "--input", str(LAYOUTS / "endcut_demo.lay"), "--svg", str(svg)
    )
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and 'class="maskA"' in text and 'class="trim"' in text


def test_lp_export_written(tmp_path, capsys):
    lp = tmp_path / "demo.lp"
    code, _, _ = run(
        capsys, "--input", str(LAYOUTS / "endcut_demo.lay"), "--lp-export", str(lp)
    )
    assert code == 0
    text = lp.read_text()
    assert text.splitlines()[0] == "Minimize"
    assert text.rstrip().endswith("End")


def test_dot_files_written(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, _, _ = run(
        capsys, "--input", str(LAYOUTS / "endcut_demo.lay"), "--dot", str(dot)
    )
    assert code == 0
    assert "graph" in dot.read_text()
    assert (tmp_path / "g.ec.dot").exists()


def test_alpha_override_changes_cost(tmp_path, capsys):
    code, out, _ = run(
        capsys, "--input", str(LAYOUTS / "ring5.lay"), "--alpha", "1/3"
    )
    assert code == 0
    # one stitch at weight 1/3; not expressible as a decimal, printed as-is
    assert "cost 1/3" in out


def test_stitch_flag_enables_splitting(tmp_path, capsys):
    # same geometry as the ring demo but with stitching off in the file
    text = (LAYOUTS / "ring5.lay").read_text().replace("param stitch 1", "")
    plain = tmp_path / "ring_plain.lay"
    plain.write_text(text)
    code, out, _ = run(capsys, "--input", str(plain))
    assert code == 0
    assert "conflict# 1" in out and "cost 1.0" in out
    code, out, _ = run(capsys, "--input", str(plain), "--stitch")
    assert code == 0
    assert "conflict# 0" in out and "stitch# 1" in out and "cost 0.1" in out


def test_euclidean_metric_runs(capsys):
    code, out, _ = run(
        capsys, "--input", str(LAYOUTS / "cluster7.lay"), "--metric", "euclidean"
    )
    assert code == 0
    assert STATS_ROW.match(out.strip())


def test_time_limit_smoke(capsys):
    code, out, _ = run(
        capsys, "--input", str(LAYOUTS / "cluster7.lay"), "--time-limit", "60"
    )
    assert code == 0
    assert "cost 1.0" in out


def test_timeout_is_reported_in_stats_and_csv(tmp_path, capsys):
    # a crowded chain: every neighbour pair conflicts and every cut excludes
    # its neighbours' cuts, so the solver cannot prove the optimum 0 in time
    lines = ["layout chain30", "param dis_m 120", "param hlow 60"]
    for i in range(30):
        lines.append(f"rect {i + 1} {200 * i} 0 {200 * i + 100} {40 + i % 9}")
    (tmp_path / "chain30.lay").write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "--input", str(tmp_path / "chain30.lay"), "--time-limit", "0.2")
    assert code == 0
    assert STATS_ROW.match(out.strip())
    assert out.strip().endswith("status timeout")
    code, out, _ = run(capsys, "--input", str(tmp_path), "--time-limit", "0.2")
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",timeout")


def test_directory_benchmark_mode(tmp_path, capsys):
    for name in ("endcut_demo.lay", "cluster7.lay"):
        (tmp_path / name).write_text((LAYOUTS / name).read_text())
    code, out, _ = run(capsys, "--input", str(tmp_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "circuit,wire,comp,conflict,stitch,cost,cpu_s,status"
    assert len(lines) == 3
    assert lines[1].startswith("cluster7,7,") and ",1,0,1.0," in lines[1]
    assert lines[2].startswith("endcut_demo,3,") and ",0,0,0.0," in lines[2]
    assert all(r.endswith(",optimal") for r in lines[1:])
    code, out2, _ = run(capsys, "--input", str(tmp_path), "--jobs", "2")
    assert code == 0

    def without_cpu(row):
        cells = row.split(",")
        return cells[:6] + cells[7:]

    assert [without_cpu(r) for r in out2.strip().splitlines()] == [without_cpu(r) for r in lines]


def test_parallel_csv_equals_serial_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for seed in range(20):
        for stitch in (False, True):
            doc = random_layout(seed, stitch=stitch)
            (tmp_path / f"s{seed:02d}_{int(stitch)}.lay").write_text(write_layout(doc))
    code, serial, _ = run(capsys, "--input", str(tmp_path), "--jobs", "1")
    assert code == 0
    code, parallel, _ = run(capsys, "--input", str(tmp_path), "--jobs", "2")
    assert code == 0

    def without_cpu(text):
        return [row[:6] + row[7:] for row in (line.split(",") for line in text.splitlines())]

    assert len(serial.splitlines()) == 41
    assert without_cpu(parallel) == without_cpu(serial)


def test_worker_count_is_capped(tmp_path, capsys, monkeypatch):
    for name in ("a", "b", "c"):
        (tmp_path / f"{name}.lay").write_text((LAYOUTS / "endcut_demo.lay").read_text())
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # (jobs, CPUs) -> pool size for 3 layouts; None runs serially in-process
    cases = [(8, 16, 3), (2, 16, 2), (8, 2, 2), (8, 1, None), (8, None, None), (1, 16, None)]
    for jobs, cpus, expected in cases:
        started.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, out, _ = run(capsys, "--input", str(tmp_path), "--jobs", str(jobs))
        assert code == 0 and len(out.splitlines()) == 4
        assert started == ([] if expected is None else [expected]), (jobs, cpus)


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_jobs_below_one_is_rejected(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["--input", str(LAYOUTS), "--jobs", jobs])
    assert exc.value.code == 2
    assert "argument --jobs" in capsys.readouterr().err


def test_directory_error_names_the_first_bad_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for name in ("a", "c"):
        (tmp_path / f"{name}.lay").write_text((LAYOUTS / "cluster7.lay").read_text())
    (tmp_path / "b.lay").write_text("layout b\nrect 1 100 0 0 40\n")
    expected = "error: b.lay: line 2: rect corners must be lower-left then upper-right\n"
    for jobs in ("1", "2"):
        assert run(capsys, "--input", str(tmp_path), "--jobs", jobs) == (1, "", expected)
    # a later bad layout does not displace the first one in sorted order
    (tmp_path / "c.lay").write_text("layout c\nfoo\n")
    for jobs in ("1", "2"):
        assert run(capsys, "--input", str(tmp_path), "--jobs", jobs) == (1, "", expected)


def test_directory_error_cancels_pending_layouts(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    log = tmp_path / "started.txt"
    layouts = tmp_path / "in"
    layouts.mkdir()
    for i in range(20):
        (layouts / f"l{i:02d}.lay").write_text((LAYOUTS / "endcut_demo.lay").read_text())

    def slow_or_bad(path, args):
        with log.open("a") as f:
            f.write(path.stem + "\n")
        if path.stem == "l00":
            raise LayoutParseError(1, "bad")
        time.sleep(0.1)
        return decompose_document(trimdecomp.parse_layout(path.read_text()))

    monkeypatch.setattr(trimdecomp.cli, "_run_one", slow_or_bad)
    code, out, err = run(capsys, "--input", str(layouts), "--jobs", "1")
    assert (code, out, err) == (1, "", "error: l00.lay: line 1: bad\n")
    assert log.read_text().split() == ["l00"]
    log.unlink()
    code, out, err = run(capsys, "--input", str(layouts), "--jobs", "2")
    assert (code, out, err) == (1, "", "error: l00.lay: line 1: bad\n")
    assert len(log.read_text().split()) < 10


@pytest.mark.skipif(
    multiprocessing.get_all_start_methods()[0] != "fork",
    reason="the patched _run_one reaches the workers only when they are forked",
)
def test_dead_worker_is_an_internal_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for name in ("a", "b"):
        (tmp_path / f"{name}.lay").write_text((LAYOUTS / "endcut_demo.lay").read_text())
    monkeypatch.setattr(trimdecomp.cli, "_run_one", lambda path, args: os._exit(1))
    code, out, err = run(capsys, "--input", str(tmp_path), "--jobs", "2")
    assert code == 2
    assert not out
    assert err.startswith("error: internal: BrokenProcessPool: ")
    assert "Traceback" not in err


def test_python_dash_m_runs_the_command_line():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "trimdecomp", "--input", str(LAYOUTS / "cluster7.lay")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert STATS_ROW.match(proc.stdout.strip())
    assert "wire# 7 " in proc.stdout and "cost 1.0 " in proc.stdout


def test_missing_input_fails(capsys):
    code, _, err = run(capsys, "--input", "/nonexistent/nope.lay")
    assert code == 1
    assert err.startswith("error:")


def test_malformed_layout_fails(tmp_path, capsys):
    bad = tmp_path / "bad.lay"
    bad.write_text("layout b\nrect 1 100 0 0 40\n")
    code, _, err = run(capsys, "--input", str(bad))
    assert code == 1
    assert "error:" in err and "lower-left" in err


@pytest.mark.parametrize("error", [AssertionError, RecursionError])
def test_internal_error_is_reported_not_raised(monkeypatch, capsys, error):
    def broken(*args, **kwargs):
        raise error("solver defect")

    monkeypatch.setattr(trimdecomp.cli, "solve", broken)
    code, out, err = run(capsys, "--input", str(LAYOUTS / "cluster7.lay"))
    assert code == 2
    assert not out
    assert err == f"error: internal: {error.__name__}: solver defect\n"


def test_report_bytes_repeat_across_serial_and_threaded_runs():
    docs = [random_layout(seed, stitch=stitch) for seed in range(40) for stitch in (False, True)]

    def reports():
        return [write_report(decompose_document(doc).report) for doc in docs]

    first = reports()
    assert reports() == first
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(reports) for _ in range(2)]
        assert [f.result() for f in futures] == [first, first]


def test_every_exported_name_resolves():
    missing = [name for name in trimdecomp.__all__ if not hasattr(trimdecomp, name)]
    assert missing == []
