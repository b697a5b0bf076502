import concurrent.futures
import multiprocessing
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corpora import LAYOUTS, bundled_layout, chain_text, runs, square_grid_text, with_copy
from test_ilp import watch_searches

import trimdecomp
import trimdecomp.cli
import trimdecomp.endcut
from trimdecomp.cli import decompose_document, main
from trimdecomp.geometry import Rect, SpatialIndex
from trimdecomp.graphs import end_cut_graph_dot, layout_graph_dot
from trimdecomp.ilp import export_lp
from trimdecomp.layout_io import (
    PARAM_KEYS,
    LayoutParseError,
    emit_svg,
    parse_layout,
    parse_report,
    write_layout,
    write_report,
)
from trimdecomp.synth import grid_layout

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
    # every stage once, in pipeline order, the parse first
    stages = re.findall(r"^stage=(\w+) us=\d+$", err, re.M)
    assert stages == ["parse", "pairs", "cuts", "graph", "ecgraph", "solve", "report"]


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
    (tmp_path / "grid4x20.lay").write_text(square_grid_text(4, 20))
    report = tmp_path / "grid4x20.rpt"
    code, out, _ = run(
        capsys, "--input", str(tmp_path / "grid4x20.lay"), "--time-limit", "0.2",
        "--out", str(report),
    )
    assert code == 0
    assert STATS_ROW.match(out.strip())
    assert out.strip().endswith("status timeout")
    text = report.read_text()
    assert text.endswith("\nstatus timeout\n")
    assert write_report(parse_report(text)) == text
    code, out, _ = run(capsys, "--input", str(tmp_path), "--time-limit", "0.2")
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",timeout")


def test_rect_only_pipeline_reads_no_outline(monkeypatch):
    # generate_all_end_cuts decides two rectangles from their corners;
    # only a pair with a polygon reads the runs of the two outlines
    def refuse(*args):
        raise AssertionError("outline read")

    texts = [write_layout(grid_layout(2000, 1)), chain_text(10)]
    monkeypatch.setattr(trimdecomp.endcut, "_outline_runs", refuse)
    for text in texts:
        result = decompose_document(parse_layout(text))
        assert result.end_cuts.candidates
        write_report(result.report)
        export_lp(result.model)
        emit_svg(result.document, result.report)
        layout_graph_dot(result.graph)
        end_cut_graph_dot(result.end_cuts)
    doc = parse_layout(
        "param hlow 20\nrect 1 0 0 200 40\n"
        "poly 2 260 0 460 0 460 200 420 200 420 40 260 40\n"
    )
    with pytest.raises(AssertionError, match="outline read"):
        decompose_document(doc)


def test_timed_out_block_is_searched_again(monkeypatch):
    # two identical square grids 10,000 nm apart are two blocks of one
    # structure; the first search runs out of time, so the second may not
    # reuse it
    doc = with_copy(parse_layout(square_grid_text(4, 20)), 0, 10_000)
    searches = watch_searches(monkeypatch)
    # decompose_document recounts the cost of the reported colouring
    result = decompose_document(doc, time_limit=0.2)
    assert result.stats.status.value == "timeout"
    assert result.stats.components == 2
    assert [(block[0], answer.timed_out) for block, answer in searches] == [(80, True), (80, True)]


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


@pytest.mark.parametrize("flag", ["--out", "--svg", "--lp-export", "--dot"])
def test_directory_mode_rejects_export_flags(tmp_path, capsys, flag):
    layouts = tmp_path / "in"
    layouts.mkdir()
    (layouts / "cluster7.lay").write_text((LAYOUTS / "cluster7.lay").read_text())
    target = tmp_path / "export"
    code, out, err = run(capsys, "--input", str(layouts), flag, str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and flag in err
    assert not target.exists() and sorted(p.name for p in tmp_path.iterdir()) == ["in"]


def test_parallel_csv_equals_serial_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(trimdecomp.cli, "_usable_cpus", lambda: 2)
    for label, doc, _ in runs("cli directory"):
        (tmp_path / f"{label}.lay").write_text(write_layout(doc))
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

        map = staticmethod(lambda fn, *iterables, chunksize=1: map(fn, *iterables))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # (jobs, usable CPUs) -> pool size for 3 layouts; None runs serially
    # in-process. The usable CPUs are the affinity set where the system has
    # one, even when os.cpu_count() says more (as under taskset -c 0), else
    # os.cpu_count(), which may not know (None).
    cases = [(8, 16, 3), (2, 16, 2), (8, 2, 2), (8, 1, None), (1, 16, None)]
    runs = [(True, *c) for c in cases] + [(False, *c) for c in cases + [(8, None, None)]]
    for has_affinity, jobs, cpus, expected in runs:
        started.clear()
        if has_affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 16)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, out, _ = run(capsys, "--input", str(tmp_path), "--jobs", str(jobs))
        assert code == 0 and len(out.splitlines()) == 4
        assert started == ([] if expected is None else [expected]), (has_affinity, jobs, cpus)


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_jobs_below_one_is_rejected(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["--input", str(LAYOUTS), "--jobs", jobs])
    assert exc.value.code == 2
    assert "argument --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["inf", "nan", "-1", "1e300", "soon"])
def test_time_limit_must_be_finite_and_non_negative(capsys, limit):
    with pytest.raises(SystemExit) as exc:
        main(["--input", str(LAYOUTS / "cluster7.lay"), "--time-limit", limit])
    assert exc.value.code == 2
    assert "argument --time-limit" in capsys.readouterr().err


@pytest.mark.parametrize("limit", [float("inf"), float("nan"), -1.0, 1e300])
def test_library_time_limit_must_be_finite_and_non_negative(limit):
    doc = bundled_layout("cluster7.lay")
    message = "time limit must be a finite, non-negative number of seconds"
    with pytest.raises(ValueError, match=f"^{message}$"):
        decompose_document(doc, time_limit=limit)


def test_zero_alpha_den_is_an_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(trimdecomp.cli, "_usable_cpus", lambda: 2)
    text = (LAYOUTS / "cluster7.lay").read_text() + "param alpha_den 0\n"
    (tmp_path / "a.lay").write_text(text)
    # the appended param line is line 13 of the file
    message = "line 13: parameter alpha_den must be non-zero\n"
    assert run(capsys, "--input", str(tmp_path / "a.lay")) == (1, "", "error: " + message)
    (tmp_path / "b.lay").write_text((LAYOUTS / "endcut_demo.lay").read_text())
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "--input", str(tmp_path), "--jobs", jobs)
        assert (code, out, err) == (1, "", "error: a.lay: " + message)


# the bundled layouts without their param lines, to take generated ones
BODIES = {
    path.stem: "".join(
        line for line in path.read_text().splitlines(True) if not line.startswith("param")
    )
    for path in sorted(LAYOUTS.glob("*.lay"))
}


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    body=st.sampled_from(sorted(BODIES)),
    params=st.dictionaries(
        st.sampled_from(PARAM_KEYS), st.sampled_from([-1, 0, 1, 2, 10**12]), max_size=6
    ),
)
def test_param_edge_values_end_in_a_result_or_an_error_line(tmp_path, capsys, body, params):
    path = tmp_path / "fuzz.lay"
    path.write_text("".join(f"param {k} {v}\n" for k, v in params.items()) + BODIES[body])
    code, out, err = run(capsys, "--input", str(path))
    if code == 0:
        assert STATS_ROW.match(out.strip())
    else:
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1


# corners near 10**12, extents that are empty, inverted, unit, 50,000,000
# nm or wider than any corner; a line's feature id is its place in the file
EDGE_COORDS = st.sampled_from([-(10**12), -50_000_000, -1, 0, 1, 30, 10**12 - 1, 10**12])
POSITIVE_EXTENTS = [1, 20, 50_000_000, 2 * 10**12]
EDGE_EXTENTS = st.sampled_from(POSITIVE_EXTENTS) | st.sampled_from([-10, -1, 0, *POSITIVE_EXTENTS])


def _rect_line(x, y, w, h):
    return f"rect {{fid}} {x} {y} {x + w} {y + h}\n"


def _l_poly_line(x, y, s, t):
    # an L of arm width t in a 2s square; it degenerates unless 0 < t < 2s
    pts = [(x, y), (x + 2 * s, y), (x + 2 * s, y + t), (x + t, y + t), (x + t, y + 2 * s), (x, y + 2 * s)]
    return "poly {fid} " + " ".join(f"{px} {py}" for px, py in pts) + "\n"


def _raw_poly_line(coords):
    return "poly {fid} " + " ".join(map(str, coords)) + "\n"


RECT_LINES = st.builds(_rect_line, EDGE_COORDS, EDGE_COORDS, EDGE_EXTENTS, EDGE_EXTENTS)
SHAPE_LINES = st.one_of(
    RECT_LINES,
    RECT_LINES,
    st.builds(_l_poly_line, EDGE_COORDS, EDGE_COORDS, EDGE_EXTENTS, EDGE_EXTENTS),
    st.builds(_raw_poly_line, st.lists(EDGE_COORDS, max_size=10)),
)
LOW = "param hlow 1\nparam wlow 1\n"


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    shapes=st.lists(SHAPE_LINES, min_size=1, max_size=4),
    params=st.sampled_from(
        ["", LOW, "param dis_m 1\n" + LOW, "param stitch 1\n" + LOW, "param dis_m 1\nparam stitch 1\n" + LOW]
    ),
)
def test_edge_geometry_ends_in_a_result_or_an_error_line(tmp_path, capsys, shapes, params):
    # degenerate and huge rect and poly lines, parsed and decomposed whole
    path = tmp_path / "fuzz.lay"
    body = "".join(line.format(fid=i) for i, line in enumerate(shapes))
    path.write_text("layout fuzz\n" + params + body)
    code, out, err = run(capsys, "--input", str(path))
    if code == 0:
        assert STATS_ROW.match(out.strip())
    else:
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1


def test_directory_error_names_the_first_bad_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(trimdecomp.cli, "_usable_cpus", lambda: 2)
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


def test_overlap_is_an_input_error_in_both_modes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(trimdecomp.cli, "_usable_cpus", lambda: 2)
    bad = tmp_path / "b.lay"
    bad.write_text("layout b\nrect 1 0 0 1000 100\nrect 50 10 10 60 60\nrect 9 500 10 560 60\n")
    assert run(capsys, "--input", str(bad)) == (1, "", "error: features 1 and 9 overlap\n")
    (tmp_path / "a.lay").write_text((LAYOUTS / "cluster7.lay").read_text())
    expected = "error: b.lay: features 1 and 9 overlap\n"
    for jobs in ("1", "2"):
        assert run(capsys, "--input", str(tmp_path), "--jobs", jobs) == (1, "", expected)


def test_one_sweep_per_parse_and_decompose(monkeypatch):
    # the overlap check reads the pairs of decompose_document's sweep
    calls = []
    from_shapes = SpatialIndex.from_shapes.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return from_shapes(cls, *args, **kwargs)

    monkeypatch.setattr(SpatialIndex, "from_shapes", classmethod(counted))
    decompose_document(bundled_layout("cluster7.lay"))
    assert len(calls) == 1


def test_directory_error_cancels_pending_layouts(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(trimdecomp.cli, "_usable_cpus", lambda: 2)
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
def test_directory_chunks_name_the_first_bad_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(trimdecomp.cli, "_usable_cpus", lambda: 2)
    log = tmp_path / "started.txt"
    layouts = tmp_path / "in"
    layouts.mkdir()
    for i in range(48):
        (layouts / f"l{i:02d}.lay").write_text((LAYOUTS / "endcut_demo.lay").read_text())

    def logged(path, args):
        with log.open("a") as f:
            f.write(path.stem + "\n")
        time.sleep(0.05)
        return decompose_document(parse_layout(path.read_text()))

    monkeypatch.setattr(trimdecomp.cli, "_run_one", logged)
    # 48 layouts over 2 workers go in 16 chunks of 3; l04 is second in l03-l05
    (layouts / "l04.lay").write_text("layout b\nrect 1 100 0 0 40\n")
    expected = "error: l04.lay: line 2: rect corners must be lower-left then upper-right\n"
    assert run(capsys, "--input", str(layouts), "--jobs", "2") == (1, "", expected)
    started = log.read_text().split()
    assert "l04" in started and "l05" not in started
    assert len(started) < 24
    # later bad layouts, in the same chunk and in a later one, do not displace it
    for name in ("l05", "l07"):
        (layouts / f"{name}.lay").write_text("layout c\nfoo\n")
    log.unlink()
    assert run(capsys, "--input", str(layouts), "--jobs", "2") == (1, "", expected)
    assert len(log.read_text().split()) < 24


@pytest.mark.skipif(
    multiprocessing.get_all_start_methods()[0] != "fork",
    reason="the patched _run_one reaches the workers only when they are forked",
)
def test_dead_worker_is_an_internal_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(trimdecomp.cli, "_usable_cpus", lambda: 2)
    for name in ("a", "b"):
        (tmp_path / f"{name}.lay").write_text((LAYOUTS / "endcut_demo.lay").read_text())
    monkeypatch.setattr(trimdecomp.cli, "_run_one", lambda path, args: os._exit(1))
    code, out, err = run(capsys, "--input", str(tmp_path), "--jobs", "2")
    assert code == 2
    assert not out
    assert err.startswith("error: internal: BrokenProcessPool: ")
    assert "Traceback" not in err


def run_module(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(LAYOUTS.parent / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, "--input", str(LAYOUTS / "cluster7.lay")],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_python_dash_m_runs_the_command_line():
    proc = run_module("trimdecomp")
    assert proc.returncode == 0, proc.stderr
    assert STATS_ROW.match(proc.stdout.strip())
    assert "wire# 7 " in proc.stdout and "cost 1.0 " in proc.stdout


def test_python_dash_m_cli_module_runs_the_command_line():
    # runpy's RuntimeWarning about the already imported module may stay on stderr
    proc = run_module("trimdecomp.cli")
    assert proc.returncode == 0, proc.stderr
    assert STATS_ROW.match(proc.stdout.strip())
    assert "wire# 7 " in proc.stdout and "cost 1.0 " in proc.stdout


def test_missing_input_fails(capsys):
    code, _, err = run(capsys, "--input", "/nonexistent/nope.lay")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("flag", ["--out", "--svg", "--lp-export", "--dot"])
def test_unwritable_export_path_fails(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "r.rep"
    code, out, err = run(capsys, "--input", str(LAYOUTS / "endcut_demo.lay"), flag, str(target))
    assert (code, out) == (1, "")
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in err


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
    docs = [doc for _, doc, _ in runs("cli threads")]

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
