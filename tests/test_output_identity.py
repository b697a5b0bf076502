"""Every output byte of a fixed corpus, pinned by one digest.

The corpus is the bundled layouts, seeded random layouts with and
without stitches, and a 2000-shape grid. For each layout the digest
takes the report, the SVG, the LP export, both DOT graphs, and the
block count, status and node count of the solve. A change that only
makes the pipeline faster must leave this digest as it is.
"""

import hashlib
from pathlib import Path

from trimdecomp.cli import build_full_model, decompose_document
from trimdecomp.graphs import end_cut_graph_dot, layout_graph_dot
from trimdecomp.ilp import export_lp
from trimdecomp.layout_io import emit_svg, parse_layout, write_report
from trimdecomp.synth import grid_layout, random_layout

LAYOUTS = Path(__file__).resolve().parent.parent / "layouts"
# taken before the band-sweep neighbour search replaced per-id grid queries,
# which left every output byte as it was
CORPUS_DIGEST = "c6d72009a4958e9dc4ebe785619e60468597ab8e5e03f9e8773ad5eb2aefc56b"


def corpus():
    for path in sorted(LAYOUTS.glob("*.lay")):
        yield parse_layout(path.read_text())
    for seed in range(40):
        yield random_layout(seed)
        yield random_layout(seed, stitch=True)
    yield grid_layout(2000, 1)


def outputs(doc) -> list[str]:
    result = decompose_document(doc)
    stats = result.stats
    return [
        write_report(result.report),
        emit_svg(result.document, result.report),
        export_lp(build_full_model(result)),
        layout_graph_dot(result.graph),
        end_cut_graph_dot(result.end_cuts),
        f"comp# {stats.components} status {stats.status.value} nodes {stats.nodes}",
    ]


def corpus_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for doc in corpus():
        count += 1
        for part in outputs(doc):
            digest.update(part.encode())
            digest.update(b"\0")
    return count, digest.hexdigest()


def test_every_output_byte_of_the_corpus_is_unchanged():
    assert corpus_digest() == (84, CORPUS_DIGEST)
