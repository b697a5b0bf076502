import re
from fractions import Fraction
from pathlib import Path

import pytest

import trimdecomp.cli
from trimdecomp.cli import main
from trimdecomp.geometry import Rect
from trimdecomp.layout_io import parse_report

LAYOUTS = Path(__file__).resolve().parent.parent / "layouts"

STATS_ROW = re.compile(
    r"^wire# \d+ comp# \d+ conflict# \d+ stitch# \d+ cost \S+ CPU\(s\) \d+\.\d\d$"
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
    assert "stage=solve" in err


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


def test_directory_benchmark_mode(tmp_path, capsys):
    for name in ("endcut_demo.lay", "cluster7.lay"):
        (tmp_path / name).write_text((LAYOUTS / name).read_text())
    code, out, _ = run(capsys, "--input", str(tmp_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "circuit,wire,comp,conflict,stitch,cost,cpu_s"
    assert len(lines) == 3
    assert lines[1].startswith("cluster7,7,") and ",1,0,1.0," in lines[1]
    assert lines[2].startswith("endcut_demo,3,") and ",0,0,0.0," in lines[2]
    code, out2, _ = run(capsys, "--input", str(tmp_path), "--jobs", "2")
    assert code == 0
    rows = [",".join(r.split(",")[:-1]) for r in out2.strip().splitlines()]
    assert rows == [",".join(r.split(",")[:-1]) for r in lines]


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
