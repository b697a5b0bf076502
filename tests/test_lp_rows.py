"""export_lp's rows, formatted from one compiled template per edge kind,
against a renderer that spells every row out term by term, and the
meaning of each row template, with the cost table that solve and the
test eliminator read from it."""

import itertools
from fractions import Fraction

from helpers import parse_lp
from test_graphs import abstract_graph

from trimdecomp.cli import decompose_document
from trimdecomp.ilp import (
    CONFLICT_ROWS,
    CUT_CONFLICT_ROWS,
    SPACING_ROWS,
    STITCH_ROWS,
    IlpModel,
    build_model,
    cost_table,
    export_lp,
)
from trimdecomp.synth import grid_layout, random_layout


def template_edges(model: IlpModel):
    """Each edge's row template with its variables' indices, in export
    order: the conflicts, then the stitches, then the spacing edges."""
    g = model.graph
    nx = len(g.segments)
    c0 = nx + len(model.end_cuts.candidates)
    s0 = c0 + len(g.conflict_edges)
    for ci, (a, b, k) in enumerate(g.conflict_edges, c0):
        yield (CONFLICT_ROWS, (a, b, ci)) if k < 0 else (CUT_CONFLICT_ROWS, (a, b, ci, nx + k))
    for si, (a, b) in enumerate(g.stitch_edges, s0):
        yield STITCH_ROWS, (a, b, si)
    for ka, kb in model.end_cuts.ee_edges:
        yield SPACING_ROWS, (nx + ka, nx + kb)


def template_rows(model: IlpModel) -> list[tuple[dict[str, int], int]]:
    """Every row of the model in export order, built from the four
    templates and the graphs' edge tuples: each row as its terms, a
    variable name to its coefficient, and its right-hand side."""
    return [
        ({model.names[vs[slot]]: sign for slot, sign in terms}, rhs)
        for template, vs in template_edges(model)
        for terms, rhs in template
    ]


def template_weights(model: IlpModel) -> dict[str, Fraction]:
    """Each weighted variable's objective weight: one per conflict
    indicator, alpha per stitch indicator, none when alpha is 0."""
    c0 = len(model.graph.segments) + len(model.end_cuts.candidates)
    s0 = c0 + len(model.graph.conflict_edges)
    weights = {n: Fraction(1) for n in model.names[c0:s0]}
    if model.alpha:
        weights.update((n, model.alpha) for n in model.names[s0:])
    return weights


def render_rows(model: IlpModel) -> list[str]:
    """The lines of the "Subject To" section, one per template row, each
    term written as its sign and its variable's name."""
    return [
        f" r{ri}: " + " ".join(("+ " if c > 0 else "- ") + n for n, c in terms.items()) + f" <= {rhs}"
        for ri, (terms, rhs) in enumerate(template_rows(model), start=1)
    ]


def rows_section(text: str) -> list[str]:
    # lists of lines: pytest would diff two long strings character by
    # character when they differ
    lines = text.splitlines()
    return lines[lines.index("Subject To") + 1 : lines.index("Binaries")]


def models():
    yield decompose_document(grid_layout(2000, 1)).model
    for seed in range(8):
        for stitch in (False, True):
            result = decompose_document(random_layout(seed, clusters=9, stitch=stitch))
            # alpha 0 leaves the objective with no s terms
            for alpha in (Fraction(0), Fraction(1, 10), Fraction(1, 3)):
                yield build_model(result.graph, result.end_cuts, alpha)


def test_rows_match_the_term_by_term_renderer():
    used = set()
    for m in models():
        text = export_lp(m)
        assert rows_section(text) == render_rows(m)
        _, obj, _, scale = parse_lp(text)
        assert {n: c / scale for n, c in obj.items()} == template_weights(m)
        used.update(t for t, _ in template_edges(m))
    assert used == {CONFLICT_ROWS, CUT_CONFLICT_ROWS, STITCH_ROWS, SPACING_ROWS}


def test_model_without_rows():
    g, ecg = abstract_graph(1, [])
    m = build_model(g, ecg, Fraction(0))
    assert m.graph is g and m.end_cuts is ecg
    assert rows_section(export_lp(m)) == render_rows(m) == []
    assert export_lp(m) == "Minimize\n obj: 0 x_1\nSubject To\nBinaries\n x_1\nEnd\n"


def satisfying(template) -> set[tuple[int, ...]]:
    """The 0/1 vectors over the template's slots that satisfy all of its
    rows."""
    slots = 1 + max(slot for terms, _ in template for slot, _ in terms)
    return {
        v
        for v in itertools.product((0, 1), repeat=slots)
        if all(sum(sign * v[slot] for slot, sign in terms) <= rhs for terms, rhs in template)
    }


def test_each_template_means_what_the_formulation_says():
    # the renderer above reads the same templates, so a wrong sign would
    # pass it: this pins each template's meaning on its own slots
    vectors = list(itertools.product((0, 1), repeat=4))
    assert satisfying(CONFLICT_ROWS) == {
        (xi, xj, c) for xi, xj, c, _ in vectors if xi != xj or c == 1
    }
    assert satisfying(CUT_CONFLICT_ROWS) == {
        (xi, xj, c, ec)
        for xi, xj, c, ec in vectors
        if (ec == 0 or xi == xj) and (xi != xj or c == 1 or ec == 1)
    }
    assert satisfying(STITCH_ROWS) == {(xi, xj, s) for xi, xj, s, _ in vectors if xi == xj or s == 1}
    assert satisfying(SPACING_ROWS) == {(a, b) for a, b, _, _ in vectors if not (a and b)}
    # each kind's least indicator by its other slots, None where no value holds
    assert cost_table(CONFLICT_ROWS) == {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    assert cost_table(STITCH_ROWS) == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    assert cost_table(CUT_CONFLICT_ROWS) == {
        # on a shared mask, a conflict unless the cut is selected
        (0, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): 0, (1, 1, 1): 0,
        # across, no conflict and no cut
        (0, 1, 0): 0, (1, 0, 0): 0, (0, 1, 1): None, (1, 0, 1): None,
    }
    assert cost_table(SPACING_ROWS) == {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): None}
