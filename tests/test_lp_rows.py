"""export_lp's rows, formatted from one compiled template per edge kind,
against a renderer that spells every row out term by term."""

from fractions import Fraction

from helpers import objective_weights, parse_lp
from test_graphs import abstract_graph

from trimdecomp.cli import build_full_model, decompose_document
from trimdecomp.ilp import (
    CONFLICT_ROWS,
    CUT_CONFLICT_ROWS,
    SPACING_ROWS,
    STITCH_ROWS,
    IlpModel,
    build_model,
    export_lp,
)
from trimdecomp.synth import grid_layout, random_layout


def render_rows(model: IlpModel) -> list[str]:
    """The lines of the "Subject To" section, one per row of
    model.constraints, each term written as its sign and its variable's
    name."""
    lines = []
    for ri, (terms, rhs) in enumerate(model.constraints, start=1):
        body = " ".join(("+ " if coef > 0 else "- ") + model.names[vi] for vi, coef in terms)
        lines.append(f" r{ri}: {body} <= {rhs}")
    return lines


def rows_section(text: str) -> list[str]:
    # lists of lines: pytest would diff two long strings character by
    # character when they differ
    lines = text.splitlines()
    return lines[lines.index("Subject To") + 1 : lines.index("Binaries")]


def models():
    yield build_full_model(decompose_document(grid_layout(2000, 1)))
    for seed in range(8):
        for stitch in (False, True):
            result = decompose_document(random_layout(seed, clusters=9, stitch=stitch))
            # alpha 0 leaves the objective with no s terms
            for alpha in (Fraction(0), Fraction(1, 10), Fraction(1, 3)):
                yield build_model(result.graph, result.end_cuts, alpha)


def test_rows_match_the_term_by_term_renderer():
    used = set()
    for m in models():
        assert len(m.constraints) == sum(len(t) for t, _ in m.groups())
        text = export_lp(m)
        assert rows_section(text) == render_rows(m)
        _, obj, _, scale = parse_lp(text)
        weights = {n: Fraction(w, m.scale) for n, w in zip(m.names, objective_weights(m)) if w}
        assert {n: c / scale for n, c in obj.items()} == weights
        used.update(t for t, _ in m.groups())
    assert used == {CONFLICT_ROWS, CUT_CONFLICT_ROWS, STITCH_ROWS, SPACING_ROWS}


def test_export_lp_reads_the_edges_not_the_groups(monkeypatch):
    # export_lp makes one pass over the model's edge tuples; groups()
    # serves the constraints property only
    expected = [(m, render_rows(m)) for m in models()]

    def no_groups(self):
        raise AssertionError("export_lp read IlpModel.groups()")

    monkeypatch.setattr(IlpModel, "groups", no_groups)
    for m, rows in expected:
        assert rows_section(export_lp(m)) == rows


def test_model_without_rows():
    g, ecg = abstract_graph(1, [])
    m = build_model(g, ecg, Fraction(0))
    assert list(m.groups()) == [] and m.constraints == ()
    assert rows_section(export_lp(m)) == render_rows(m) == []
    assert export_lp(m) == "Minimize\n obj: 0 x_1\nSubject To\nBinaries\n x_1\nEnd\n"
