"""Feature ids are names, not positions.

The bundled layouts and both generators number their features 1..n, so a
shape's rank, its index in the document, is its id minus one, and a stage
that mixed the two up would still print the right bytes. Here every id is
renamed through an order-preserving map to a number far from any rank or
coordinate, and every output must be the original's with the ids renamed.
"""

import re

import pytest

from corpora import runs

from trimdecomp.cli import decompose_document
from trimdecomp.graphs import end_cut_graph_dot, layout_graph_dot
from trimdecomp.ilp import export_lp
from trimdecomp.layout_io import LayoutDocument, emit_svg, write_layout, write_report

SCALE, SHIFT = 1_000_003, 7


def renamed(doc):
    shapes = tuple([s._replace(id=SCALE * s.id + SHIFT) for s in doc.shapes])
    return LayoutDocument(name=doc.name, shapes=shapes, params=doc.params)


def named_back(text):
    """text with every renamed id mapped back, which is unambiguous while
    no other number in the original outputs reaches SCALE."""

    def back(m):
        n = int(m.group())
        return str((n - SHIFT) // SCALE) if n >= SCALE and (n - SHIFT) % SCALE == 0 else m.group()

    return re.sub(r"\d+", back, text)


def outputs(doc):
    result = decompose_document(doc)
    # the Binaries section wraps its names by width, so it is compared
    # name by name, and the rest of the LP text byte by byte
    lp, binaries = export_lp(result.model).split("Binaries\n")
    texts = [
        write_report(result.report),
        lp,
        " ".join(binaries.split()),
        layout_graph_dot(result.graph),
        end_cut_graph_dot(result.end_cuts),
        write_layout(result.document),
    ]
    return texts, emit_svg(result.document, result.report), result.stats


# the bundled layouts, a grid and seeded random layouts, plain and stitched
CORPUS = {label: doc for label, doc, _ in runs("id renaming")}


@pytest.mark.parametrize("name", list(CORPUS))
def test_renamed_ids_give_the_same_outputs_renamed(name):
    doc = CORPUS[name]
    texts, svg, stats = outputs(doc)
    texts2, svg2, stats2 = outputs(renamed(doc))
    assert max(int(n) for t in texts for n in re.findall(r"\d+", t)) < SCALE
    assert [named_back(t) for t in texts2] == texts
    assert texts2 != texts  # the ids were renamed
    assert svg2 == svg  # the drawing names no feature
    assert (stats2.nodes, stats2.components) == (stats.nodes, stats.components)
    assert (stats2.cost, stats2.status, stats2.conflicts) == (stats.cost, stats.status, stats.conflicts)
