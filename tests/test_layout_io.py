import dataclasses
import hashlib
import random
import re
from fractions import Fraction

import pytest

from corpora import bundled_layout, runs

import trimdecomp.geometry
from trimdecomp.cli import decompose_document
from trimdecomp.geometry import GeometryError, OverlappingInputShapes, Rect, RectilinearShape
from trimdecomp.layout_io import (
    DecompositionParams,
    DecompositionReport,
    LayoutDocument,
    LayoutParseError,
    SolveStatus,
    StitchPoint,
    emit_svg,
    fraction_to_decimal,
    parse_layout,
    parse_report,
    split_feature_rects,
    write_layout,
    write_report,
)
from trimdecomp.synth import _document, random_layout



def test_parse_minimal_layout():
    doc = parse_layout("layout t\nunits nm\nrect 1 0 0 10 10\n")
    assert doc.name == "t"
    assert doc == parse_layout("layout t\nrect 1 0 0 10 10\n")  # nm is the only unit
    assert [s.id for s in doc.shapes] == [1]
    assert doc.shapes[0].bbox == Rect.of(0, 0, 10, 10)


def test_rect_lines_skip_the_outline_path(monkeypatch):
    # a plain rect is built directly; only poly lines need the outline
    # read for its corners, checked and cut into rectangles
    def refuse(points):
        raise AssertionError("outline path taken")

    monkeypatch.setattr(trimdecomp.geometry, "_corners", refuse)
    doc = bundled_layout("cluster7.lay")
    assert len(doc.shapes) == 7
    with pytest.raises(AssertionError, match="outline path taken"):
        parse_layout("poly 1 0 0 10 0 10 10 0 10\n")


def test_parse_cluster7_defaults():
    doc = bundled_layout("cluster7.lay")
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


@pytest.mark.parametrize("kind", ["rect", "cut"])
@pytest.mark.parametrize("pos", range(4))
def test_box_coordinate_errors_name_the_first_bad_token(kind, pos):
    # a bad token in any of a box's four places is named, with its line;
    # a later bad token on the same line is not the one reported
    coords = ["0", "0", "40", "40"]
    coords[pos] = "4o"
    if pos < 3:
        coords[3] = "1.5"
    if kind == "rect":
        text = "layout t\n# a comment\nrect 1 100 0 140 40\n\nrect 2 " + " ".join(coords) + "\n"
        parse = parse_layout
    else:
        text = "mask 1 A\n# a comment\ncut 100 0 140 40\n\ncut " + " ".join(coords) + "\ncost 0.0\n"
        parse = parse_report
    with pytest.raises(LayoutParseError) as err:
        parse(text)
    assert str(err.value) == "line 5: coordinate must be an integer, got '4o'"
    assert (err.value.line, err.value.message) == (5, "coordinate must be an integer, got '4o'")
    # tokens int() reads are still read as before
    good = text.replace("4o", "+1_0").replace("1.5", "40")
    parse(good)


def test_parse_rejects_overlapping_features():
    with pytest.raises(OverlappingInputShapes):
        decompose_document(parse_layout("layout t\nrect 1 0 0 100 100\nrect 2 50 50 200 200\n"))
    # with several overlaps the error names the lowest pair, not a hash-order one
    with pytest.raises(OverlappingInputShapes, match="features 1 and 9 overlap"):
        decompose_document(parse_layout(
            "layout t\nrect 1 0 0 1000 100\nrect 50 10 10 60 60\nrect 9 500 10 560 60\n"
        ))
    # touching features are fine
    decompose_document(parse_layout("layout t\nrect 1 0 0 100 100\nrect 2 100 0 200 100\n"))


def bars_document(*bars):
    """A document built in code, as a library caller would, not parsed."""
    return _document("t", [RectilinearShape.from_rect(i, Rect.of(*box)) for i, *box in bars], {})


def test_code_built_documents_are_checked_for_overlaps_and_repeated_ids():
    # no parser has seen these shapes: decompose_document checks for an
    # overlap, and the document itself for a repeated id as it is built
    overlapping = bars_document((1, 0, 0, 100, 40), (2, 50, 20, 150, 60))
    with pytest.raises(OverlappingInputShapes) as err:
        decompose_document(overlapping)
    assert str(err.value) == "features 1 and 2 overlap"
    with pytest.raises(ValueError) as err:
        bars_document(
            (3, 0, 200, 100, 240), (1, 0, 0, 100, 40), (1, 0, 100, 100, 140), (3, 0, 300, 100, 340)
        )
    assert str(err.value) == "duplicate feature id 1"


def test_a_document_keeps_its_shapes_in_id_order_as_a_tuple():
    rng = random.Random(61)
    ids = rng.sample(range(10_000), 40)
    shapes = [RectilinearShape.from_rect(i, Rect.of(50 * k, 0, 50 * k + 40, 40)) for k, i in enumerate(ids)]
    params = DecompositionParams.from_raw({}, shapes)
    doc = LayoutDocument("t", shapes, params)
    assert isinstance(doc.shapes, tuple)
    assert [s.id for s in doc.shapes] == sorted(ids)
    assert sorted(doc.shapes) == sorted(shapes)
    # a tuple already in id order is kept as it is
    assert LayoutDocument("t", doc.shapes, params).shapes is doc.shapes
    assert dataclasses.replace(doc, name="u").shapes is doc.shapes
    # a parsed layout in any line order is the same document
    lines = [f"rect {s.id} {x1} {y1} {x2} {y2}" for s in shapes for (x1, y1), (x2, y2) in s.rects]
    assert parse_layout("layout t\n" + "\n".join(lines)) == doc


def test_a_document_rejects_a_repeated_id_wherever_it_is_built():
    params = DecompositionParams.from_raw({})
    bars = [
        RectilinearShape.from_rect(i, Rect.of(100 * k, 0, 100 * k + 40, 40))
        for k, i in enumerate((9, 4, 7, 2))
    ]
    doc = LayoutDocument("t", bars, params)
    sevens = [*bars, RectilinearShape.from_rect(7, Rect.of(0, 500, 40, 540))]
    fours = [RectilinearShape.from_rect(4, Rect.of(0, 600, 40, 640)), *sevens]
    # the lowest repeated id is named, whatever the order of the shapes
    for shapes, lowest in ((sevens, 7), (sevens[::-1], 7), (fours, 4)):
        message = f"^duplicate feature id {lowest}$"
        with pytest.raises(ValueError, match=message):
            LayoutDocument("t", shapes, params)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(doc, shapes=tuple(shapes))


def test_param_validation():
    with pytest.raises(ValueError):
        DecompositionParams.from_raw({"dis_m": 0})
    with pytest.raises(ValueError):
        DecompositionParams.from_raw({"hlow": 90, "hhigh": 80})
    # an unset low bound clamped to a bad high bound leaves the high bound
    # as the one reported
    with pytest.raises(ValueError, match="h_high must be a positive integer"):
        DecompositionParams.from_raw({"hhigh": 0})
    with pytest.raises(ValueError, match="w_high must be a positive integer"):
        DecompositionParams.from_raw({"whigh": 0})
    with pytest.raises(ValueError):
        DecompositionParams.from_raw({"alpha_num": -1})
    with pytest.raises(ValueError):
        DecompositionParams.from_raw({"stitch": 2})


@pytest.mark.parametrize(
    "text, lows",
    [
        ("layout sq\nparam dis_m 30\nrect 1 0 0 100 100\nrect 2 120 0 220 100\n", (30, 30)),
        ("layout sq\nparam dis_m 30\nparam hlow 10\nrect 1 0 0 100 100\nrect 2 120 0 220 100\n", (10, 30)),
        ("layout sq\nparam dis_m 1\nrect 1 0 0 10 10\nrect 2 20 0 30 10\n", (1, 1)),
    ],
)
def test_an_unset_low_bound_never_exceeds_its_high_bound(text, lows):
    # half the narrowest feature lies above the high bounds' default,
    # dis_m, so each unset low bound takes its high bound instead
    doc = parse_layout(text)
    assert (doc.params.h_low, doc.params.w_low) == lows
    assert decompose_document(doc).stats.status is SolveStatus.OPTIMAL


def test_a_low_bound_stated_above_its_high_bound_still_raises():
    with pytest.raises(LayoutParseError, match="hlow exceeds hhigh"):
        parse_layout("layout sq\nparam hlow 50\nparam hhigh 10\nrect 1 0 0 100 100\n")
    with pytest.raises(ValueError, match="wlow exceeds whigh"):
        DecompositionParams.from_raw({"wlow": 50, "whigh": 10})


@pytest.mark.parametrize(
    "params, line, message",
    [
        # two contradicting keys: the later line
        ("param hlow 50\nparam hhigh 10\n", 3, "hlow exceeds hhigh"),
        ("param hhigh 10\nparam hlow 50\n", 3, "hlow exceeds hhigh"),
        # an unset key: the line of the key it defaults to, whigh from wth
        ("param wth 0\n", 2, "parameter w_high must be a positive integer, got 0"),
        ("param dis_m 40\nparam stitch 1\nparam hlow 50\n", 4, "hlow exceeds hhigh"),
        ("param hlow 50\nparam stitch 1\nparam dis_m 40\n", 4, "hlow exceeds hhigh"),
        ("param alpha_num -1\nparam dis_m 40\n", 2, "alpha must be non-negative"),
        ("param stitch 2\n", 2, "stitch must be 0 or 1, got 2"),
    ],
)
def test_a_parameter_error_names_the_line_of_the_value_it_read(params, line, message):
    text = "layout sq\n" + params + "rect 1 0 0 100 100\n"
    with pytest.raises(LayoutParseError) as exc:
        parse_layout(text)
    assert str(exc.value) == f"line {line}: {message}"


def test_bool_is_not_an_integer_where_a_layout_enters():
    # write_layout would write True and False, which parse_layout rejects
    with pytest.raises(GeometryError, match="must be integers: \\(True, 0\\)"):
        RectilinearShape.from_outline(1, [(0, 0), (True, 0), (True, True), (0, True)])
    with pytest.raises(GeometryError, match="must be integers: \\(False, False\\)"):
        RectilinearShape.from_rect(2, Rect.of(False, False, 5, 5))
    for key in ("dis_m", "hlow", "wth"):
        with pytest.raises(ValueError, match="must be a positive integer, got True"):
            DecompositionParams.from_raw({key: True})
    with pytest.raises(ValueError, match="parameter dis_m must be a positive integer, got True"):
        dataclasses.replace(DecompositionParams.from_raw({}), dis_m=True)
    # the same values as integers are written as digits and read back
    shapes = [
        RectilinearShape.from_outline(1, [(0, 0), (1, 0), (1, 1), (0, 1)]),
        RectilinearShape.from_rect(2, Rect.of(5, 0, 10, 5)),
    ]
    doc = _document("ints", shapes, {"dis_m": 1, "hlow": 1, "wth": 1})
    text = write_layout(doc)
    assert "True" not in text and "param dis_m 1\n" in text
    assert parse_layout(text) == doc


def test_low_defaults_scan_the_shapes_only_when_needed():
    shapes = parse_layout("rect 1 0 0 40 100\nrect 2 200 0 300 60\n").shapes
    p = DecompositionParams.from_raw({"wlow": 30}, shapes)
    assert (p.h_low, p.w_low) == (20, 30)

    class Unscanned(tuple):
        """The same shapes, as a sequence that refuses to be iterated."""

        def __iter__(self):
            raise AssertionError("shapes scanned")

    shapes = Unscanned(shapes)
    p = DecompositionParams.from_raw({"hlow": 25, "wlow": 30}, shapes)
    assert (p.h_low, p.w_low) == (25, 30)
    with pytest.raises(AssertionError, match="shapes scanned"):
        DecompositionParams.from_raw({"hlow": 25}, shapes)


def test_layout_roundtrip_random():
    for _, doc, _ in runs("layout_io round trip"):
        back = parse_layout(write_layout(doc))
        assert back.name == doc.name
        assert back.params == doc.params
        assert len(back.shapes) == len(doc.shapes)
        for a, b in zip(back.shapes, doc.shapes):
            assert a.id == b.id and a.outline == b.outline


@pytest.mark.parametrize("name", ["my chip", "", "chip#2", "a\nrect 9 0 0 5 5"])
def test_write_layout_rejects_a_name_its_parser_cannot_read_back(name):
    # two tokens or none, a comment that would cut the name short, and a
    # line break that would add a rect line
    doc = dataclasses.replace(random_layout(1), name=name)
    with pytest.raises(ValueError, match="^layout name .* must be one token without whitespace or '#'$"):
        write_layout(doc)


def test_write_layout_round_trips_a_one_token_name():
    doc = dataclasses.replace(random_layout(1), name="chip_2-v1.0")
    assert parse_layout(write_layout(doc)) == doc


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
    timed_out = dataclasses.replace(rep, status=SolveStatus.TIMEOUT)
    text = write_report(timed_out)
    assert text.splitlines()[-2:] == ["cost 1.1", "status timeout"]
    assert parse_report(text) == timed_out
    with pytest.raises(LayoutParseError, match="bad status"):
        parse_report("cost 0.0\nstatus lost\n")
    for value in ("x", "1/0"):
        with pytest.raises(LayoutParseError, match=f"line 1: bad cost value '{value}'"):
            parse_report(f"cost {value}\n")


def test_parse_report_rejects_repeated_lines():
    # a second line for the same vertex, cost or status names its line, and
    # so does a negative id or segment index, which write_report could not
    # write back: (1, -1) would be written as 1 and read back as (1, 0)
    for text, message in (
        ("mask 1 A\nmask 1 B\ncost 0\n", "line 2: duplicate mask for 1"),
        ("mask 1 A\nmask 1/0 A\ncost 0\n", "line 2: duplicate mask for 1/0"),
        ("cost 0\nmask 1 A\ncost 1\n", "line 3: duplicate cost line"),
        ("cost 0\nstatus timeout\nstatus optimal\n", "line 3: duplicate status line"),
        ("mask 1/-1 A\ncost 0\n", "line 1: segment index must be non-negative, got -1"),
        ("mask 2 A\nmask -3 A\ncost 0\n", "line 2: feature id must be non-negative, got -3"),
        ("mask 1 A\nconflict 1 -3/1\ncost 0\n", "line 2: feature id must be non-negative, got -3"),
        ("stitch -3 0 0 v\ncost 0\n", "line 1: feature id must be non-negative, got -3"),
    ):
        with pytest.raises(LayoutParseError, match=message):
            parse_report(text)
    # split segments of one feature are distinct vertices
    assert parse_report("mask 1/0 A\nmask 1/1 B\ncost 0\n").masks == {(1, 0): "A", (1, 1): "B"}


def test_parse_report_requires_cost():
    with pytest.raises(LayoutParseError):
        parse_report("mask 1 A\n")


def test_split_feature_rects_on_l_shape():
    from trimdecomp.geometry import RectilinearShape

    l = RectilinearShape.from_outline(
        9, [(0, 0), (300, 0), (300, 40), (40, 40), (40, 200), (0, 200)]
    )
    pieces = split_feature_rects(l.rects, [0, 150, 300], 0)
    assert len(pieces) == 2
    left_area = sum(r.area for r in pieces[0])
    right_area = sum(r.area for r in pieces[1])
    assert left_area + right_area == sum(r.area for r in l.rects)
    assert all(r.hi[0] <= 150 for r in pieces[0])
    assert all(r.lo[0] >= 150 for r in pieces[1])


def test_emit_svg_structure():
    doc = bundled_layout("endcut_demo.lay")
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


@pytest.mark.parametrize(
    "masks, runs, pieces",
    [
        # two segments on one mask with a stitch between them: one run, two pieces
        ("mask 1/0 A\nmask 1/1 A\n", 1, 2),
        # three runs, but only the one stitch between them
        ("mask 1/0 A\nmask 1/1 B\nmask 1/2 A\n", 3, 2),
    ],
)
def test_emit_svg_rejects_runs_that_do_not_match_the_stitch_pieces(masks, runs, pieces):
    doc = parse_layout("layout t\nrect 1 0 0 600 40\n")
    rep = parse_report(masks + "stitch 1 300 20 v\ncost 0.1\n")
    with pytest.raises(ValueError) as err:
        emit_svg(doc, rep)
    assert str(err.value) == (
        f"feature 1: {runs} same-mask runs but {pieces} pieces between its stitches"
    )


def test_emit_svg_rejects_a_mask_change_with_no_stitch():
    doc = parse_layout("layout t\nrect 1 0 0 600 40\n")
    rep = parse_report("mask 1/0 A\nmask 1/1 B\ncost 0\n")
    with pytest.raises(ValueError, match="^feature 1: 2 same-mask runs but 1 pieces"):
        emit_svg(doc, rep)


@pytest.mark.parametrize(
    "stitches",
    [
        "stitch 1 70 100 h\nstitch 1 30 300 h\n",
        # x order, as sorting the points would put them, is not y order
        "stitch 1 30 300 h\nstitch 1 70 100 h\n",
    ],
)
def test_emit_svg_splits_at_stitches_in_order_along_the_feature(stitches):
    # a staircase split twice across y: the stitch at y=300 has the lower
    # x, so the pieces come out right only when the stitches are put in y
    # order
    doc = parse_layout("layout t\npoly 1 40 0 100 0 100 200 60 200 60 400 0 400 0 200 40 200\n")
    rep = parse_report(f"mask 1/0 A\nmask 1/1 B\nmask 1/2 A\n{stitches}cost 0.2\n")
    svg = emit_svg(doc, rep)
    assert re.findall(r'class="maskA" d="([^"]*)"', svg) == ["M40 300H100V400H40Z", "M0 0H60V100H0Z"]
    assert svg.count('class="maskB"') == 1


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
        doc = bundled_layout(key)
    else:
        doc = random_layout(key, clusters=9, stitch=True)
    result = decompose_document(doc)
    assert isinstance(key, str) or any(seg > 0 for _, seg in result.report.masks)
    svg = emit_svg(result.document, result.report)
    assert hashlib.sha256(svg.encode()).hexdigest() == SVG_SHA256[key]
