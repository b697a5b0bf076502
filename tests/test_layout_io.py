import hashlib
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from trimdecomp.cli import decompose_document
from trimdecomp.geometry import OverlappingInputShapes, Rect
from trimdecomp.layout_io import (
    DecompositionParams,
    DecompositionReport,
    LayoutParseError,
    StitchPoint,
    emit_svg,
    fraction_to_decimal,
    parse_layout,
    parse_report,
    split_feature_rects,
    write_layout,
    write_report,
)
from trimdecomp.synth import random_layout

LAYOUTS = Path(__file__).resolve().parent.parent / "layouts"


def test_parse_minimal_layout():
    doc = parse_layout("layout t\nunits nm\nrect 1 0 0 10 10\n")
    assert doc.name == "t"
    assert doc.units == "nm"
    assert [s.id for s in doc.shapes] == [1]
    assert doc.shapes[0].bbox == Rect.of(0, 0, 10, 10)


def test_parse_cluster7_defaults():
    doc = parse_layout((LAYOUTS / "cluster7.lay").read_text())
    p = doc.params
    assert p.dis_m == 120
    assert p.dis_c == 120  # cut spacing follows the mask spacing
    assert p.w_th == 120
    assert p.h_high == 120
    assert p.w_high == 120
    # narrowest feature is the 16 tall wire 7, so the low bounds are 8
    assert p.h_low == 8 and p.w_low == 8
    assert p.alpha == Fraction(1, 10)
    assert p.stitch is False
    assert len(doc.shapes) == 7


def test_parse_comments_blank_lines_and_order():
    text = """
# leading comment
layout x

param dis_m 100
rect 2 0 0 10 10   # trailing comment
rect 1 40 0 50 10
"""
    doc = parse_layout(text)
    assert [s.id for s in doc.shapes] == [1, 2]
    assert doc.params.dis_m == 100


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("frob 1 2", "unknown directive"),
        ("rect 1 0 0 10", "rect takes"),
        ("rect 1 10 0 0 10", "lower-left"),
        ("rect z 0 0 10 10", "must be an integer"),
        ("param nope 5", "unknown param"),
        ("param dis_m 120\nparam dis_m 130", "duplicate param"),
        ("poly 1 0 0 10 0 10", "poly takes"),
        ("rect 1 0 0 10 10\nrect 1 40 0 50 10", "duplicate feature id"),
        ("rect -4 0 0 10 10", "feature id must be non-negative"),
    ],
)
def test_parse_errors(line, fragment):
    with pytest.raises(LayoutParseError) as err:
        parse_layout(f"layout t\n{line}\n")
    assert fragment in str(err.value)
    assert str(err.value).startswith("line ")


def test_parse_rejects_overlapping_features():
    with pytest.raises(OverlappingInputShapes):
        parse_layout("layout t\nrect 1 0 0 100 100\nrect 2 50 50 200 200\n")
    # touching features are fine
    parse_layout("layout t\nrect 1 0 0 100 100\nrect 2 100 0 200 100\n")


def test_param_validation():
    with pytest.raises(ValueError):
        DecompositionParams.from_raw({"dis_m": 0})
    with pytest.raises(ValueError):
        DecompositionParams.from_raw({"hlow": 90, "hhigh": 80})
    with pytest.raises(ValueError):
        DecompositionParams.from_raw({"alpha_num": -1})
    with pytest.raises(ValueError):
        DecompositionParams.from_raw({"stitch": 2})


def test_layout_roundtrip_random():
    rng = random.Random(5)
    for _ in range(10):
        doc = random_layout(rng.randrange(1000), clusters=rng.randint(1, 4))
        back = parse_layout(write_layout(doc))
        assert back.name == doc.name
        assert back.params == doc.params
        assert len(back.shapes) == len(doc.shapes)
        for a, b in zip(back.shapes, doc.shapes):
            assert a.id == b.id and a.outline == b.outline


def test_write_layout_uses_poly_only_when_needed():
    doc = parse_layout(
        "layout t\nrect 1 0 0 10 10\npoly 2 40 0 80 0 80 40 60 40 60 20 40 20\n"
    )
    text = write_layout(doc)
    assert "rect 1 0 0 10 10" in text
    assert text.count("poly") == 1


@pytest.mark.parametrize(
    "value,text",
    [
        (Fraction(0), "0.0"),
        (Fraction(1), "1.0"),
        (Fraction(66, 5), "13.2"),
        (Fraction(1, 4), "0.25"),
        (Fraction(13, 10), "1.3"),
        (Fraction(1, 8), "0.125"),
        (Fraction(7, 3), "7/3"),
        (Fraction(5, 6), "5/6"),
    ],
)
def test_fraction_to_decimal(value, text):
    assert fraction_to_decimal(value) == text


def test_report_roundtrip():
    rep = DecompositionReport(
        masks={(1, 0): "A", (2, 0): "B", (3, 0): "A", (3, 1): "B"},
        cuts=(Rect.of(0, 0, 40, 40), Rect.of(100, 0, 140, 40)),
        conflicts=(((1, 0), (2, 0)),),
        stitches=(StitchPoint(3, 70, 20, "v"),),
        cost=Fraction(11, 10),
    )
    text = write_report(rep)
    assert text.splitlines()[-1] == "cost 1.1"
    assert "mask 3/0 A" in text and "mask 3/1 B" in text
    assert "mask 1 A" in text  # unsplit features use the bare id
    back = parse_report(text)
    assert back == rep


def test_parse_report_requires_cost():
    with pytest.raises(LayoutParseError):
        parse_report("mask 1 A\n")


def test_split_feature_rects_on_l_shape():
    from trimdecomp.geometry import RectilinearShape

    l = RectilinearShape.from_outline(
        9, [(0, 0), (300, 0), (300, 40), (40, 40), (40, 200), (0, 200)]
    )
    pieces = split_feature_rects(l, [150], "x")
    assert len(pieces) == 2
    left_area = sum(r.area for r in pieces[0])
    right_area = sum(r.area for r in pieces[1])
    assert left_area + right_area == sum(r.area for r in l.rects)
    assert all(r.hi.x <= 150 for r in pieces[0])
    assert all(r.lo.x >= 150 for r in pieces[1])


def test_emit_svg_structure():
    doc = parse_layout((LAYOUTS / "endcut_demo.lay").read_text())
    rep = DecompositionReport(
        masks={(1, 0): "A", (2, 0): "B", (3, 0): "B"},
        cuts=(Rect.of(200, 0, 240, 40),),
        conflicts=(((2, 0), (3, 0)),),
        stitches=(),
        cost=Fraction(1),
    )
    svg = emit_svg(doc, rep)
    assert svg.startswith("<svg")
    assert svg.count('class="maskA"') == 1
    assert svg.count('class="maskB"') == 2
    assert svg.count('class="trim"') == 1
    assert 'class="conflict"' in svg
    # y grows upward in layouts, downward in svg: wire 1 (y 160..200 of a
    # 0..200 extent) must be drawn at the top of the viewport
    assert 'd="M0 0H440V40H0Z"' in svg


def test_emit_svg_empty_document():
    doc = parse_layout("layout empty\n")
    rep = DecompositionReport(masks={}, cuts=(), conflicts=(), stitches=(), cost=Fraction(0))
    svg = emit_svg(doc, rep)
    assert 'viewBox="0 0 1 1"' in svg


def test_emit_svg_draws_a_conflict_from_the_run_of_its_segment():
    # segments 0 and 1 share mask A and form one piece left of the stitch at
    # x=400; the conflict of segment 1 starts inside that piece, not in the
    # B piece that comes second along the bar
    doc = parse_layout("layout t\nrect 1 0 0 600 40\nrect 2 100 160 300 200\n")
    rep = DecompositionReport(
        masks={(1, 0): "A", (1, 1): "A", (1, 2): "B", (2, 0): "A"},
        cuts=(),
        conflicts=(((1, 1), (2, 0)),),
        stitches=(StitchPoint(1, 400, 20, "v"),),
        cost=Fraction(11, 10),
    )
    svg = emit_svg(doc, rep)
    assert svg.count('class="maskA"') == 2 and svg.count('class="maskB"') == 1
    lines = re.findall(r'<line class="conflict" x1="(-?\d+)"', svg)
    assert len(lines) == 1
    assert 0 <= int(lines[0]) <= 400


# sha256 of emit_svg output, which must stay byte for byte; the random seeds
# have features split into two or more segments with no realized stitch,
# so every segment of such a feature takes the box of its one run, the
# whole feature
SVG_SHA256 = {
    "cluster7.lay": "b111b12dc2bd50b61b51fd1738d1a3a960b4988c463c38918301c898e66342a8",
    "endcut_demo.lay": "e2087b95d36b6af4d91048bf23e05076a37e94ab03e13e6a8def4e7ac03c64bf",
    "ring5.lay": "69d0adc6bc8a8a607c2a73e4c200cee3641470511828bce3f9e5a6d47995cd79",
    0: "957331f9f7459f96f7895a75389dcec2b1480a37c7f7306e7d8a9807dc689e86",
    5: "b8705b20857864fbe7bfdb259f48632da840b1ffc842da5dcc9987d177d9d7e2",
    30: "ff0534800da5b7c82565e32a219305a864e96e6f32fa8bbc328b1f694ccbc2ff",
    116: "05cecfd9aabb59a31c1f05da3ea94debd5265dc8c1e1263c62692509c32c3334",
}


@pytest.mark.parametrize("key", list(SVG_SHA256))
def test_emit_svg_bytes_are_unchanged(key):
    if isinstance(key, str):
        doc = parse_layout((LAYOUTS / key).read_text())
    else:
        doc = random_layout(key, clusters=9, stitch=True)
    result = decompose_document(doc)
    assert isinstance(key, str) or any(seg > 0 for _, seg in result.report.masks)
    svg = emit_svg(result.document, result.report)
    assert hashlib.sha256(svg.encode()).hexdigest() == SVG_SHA256[key]
