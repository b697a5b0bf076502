"""The exports: bytes that the corpus digest of test_output_identity does
not reach, pinned by a digest of their own, and writers that read no
dict or tuple in the order it was filled, and a decomposition whose
bytes do not depend on the order of the document's shapes.

The corpus digest covers the Chebyshev metric and an alpha of 1/10 only,
one report that uses a stitch, and no stitched grid and no empty
document. This digest adds: the LP text of stitched layouts at alpha 1/3
(the scaled objective, with its "objective scaled by" comment), 1/10 and
0; every output of the same layouts decomposed at alpha 0, whose reports
use stitches; every output of the 2000-shape grid with stitching forced
on; every output of seeded random layouts under the Euclidean metric;
and every output of a one-shape layout and of the empty document. A
change that only makes the writers faster must leave it as it is.
"""

import dataclasses
import hashlib
from fractions import Fraction

from trimdecomp.cli import decompose_document
from trimdecomp.geometry import Metric
from trimdecomp.graphs import end_cut_graph_dot, layout_graph_dot
from trimdecomp.ilp import build_model, export_lp
from trimdecomp.layout_io import emit_svg, parse_layout, write_report
from trimdecomp.synth import grid_layout, random_layout

# taken on the writers that built their text one element at a time
EXPORT_DIGEST = "989c32995d8297cbd47e1193356f43cb065fdc95d3817cd425145680173ff3f6"

ALPHAS = (Fraction(1, 3), Fraction(1, 10), Fraction(0))


def outputs(doc, **options) -> list[str]:
    result = decompose_document(doc, **options)
    stats = result.stats
    return [
        write_report(result.report),
        emit_svg(result.document, result.report),
        export_lp(result.model),
        layout_graph_dot(result.graph),
        end_cut_graph_dot(result.end_cuts),
        f"comp# {stats.components} status {stats.status.value} nodes {stats.nodes}",
    ]


def export_parts():
    for seed in range(20):
        doc = random_layout(seed, clusters=9, stitch=True)
        result = decompose_document(doc)
        for alpha in ALPHAS:
            yield export_lp(build_model(result.graph, result.end_cuts, alpha))
        # free stitches get used, so the SVG splits features at them
        yield from outputs(doc, alpha=Fraction(0))
    yield from outputs(grid_layout(2000, 1), stitch=True)
    for seed in range(20):
        yield from outputs(random_layout(seed), metric=Metric.EUCLIDEAN)
        yield from outputs(random_layout(seed, stitch=True), metric=Metric.EUCLIDEAN)
    yield from outputs(parse_layout("layout one\nrect 1 0 0 100 40\n"))
    yield from outputs(parse_layout("layout empty\n"))


def export_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for part in export_parts():
        count += 1
        digest.update(part.encode())
        digest.update(b"\0")
    return count, digest.hexdigest()


def test_export_bytes_beyond_the_corpus_are_unchanged():
    assert export_digest() == (438, EXPORT_DIGEST)


def reversed_dict(d: dict) -> dict:
    return dict(reversed(d.items()))


def lines(text: str) -> list[str]:
    return text.splitlines(keepends=True)


def test_writers_do_not_follow_insertion_order():
    # the graphs decide the order of everything after them, and every
    # report writer sorts what it writes: neither the order of a
    # document's shapes nor that of a report's fields may change a byte
    docs = [grid_layout(2000, 1), *(random_layout(s, clusters=9, stitch=True) for s in range(10))]
    stitched = 0
    for doc in docs:
        result = decompose_document(doc, alpha=Fraction(0))
        flipped = decompose_document(
            dataclasses.replace(doc, shapes=doc.shapes[::-1]), alpha=Fraction(0)
        )
        rep = result.report
        rep_rev = dataclasses.replace(
            rep,
            masks=reversed_dict(rep.masks),
            cuts=rep.cuts[::-1],
            conflicts=rep.conflicts[::-1],
            stitches=rep.stitches[::-1],
        )
        # compared as lists of lines: pytest diffs two long unequal strings
        # character by character, which takes minutes
        for alpha in ALPHAS:
            assert lines(export_lp(build_model(flipped.graph, flipped.end_cuts, alpha))) == lines(
                export_lp(build_model(result.graph, result.end_cuts, alpha))
            )
        assert flipped.stats.nodes == result.stats.nodes
        assert lines(write_report(flipped.report)) == lines(write_report(rep))
        assert lines(layout_graph_dot(flipped.graph)) == lines(layout_graph_dot(result.graph))
        assert lines(end_cut_graph_dot(flipped.end_cuts)) == lines(
            end_cut_graph_dot(result.end_cuts)
        )
        assert lines(emit_svg(flipped.document, flipped.report)) == lines(
            emit_svg(result.document, rep)
        )
        assert lines(emit_svg(result.document, rep_rev)) == lines(emit_svg(result.document, rep))
        assert lines(write_report(rep_rev)) == lines(write_report(rep))
        stitched += bool(rep.stitches)
    assert stitched == 5
