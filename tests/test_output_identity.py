"""Every output byte of a fixed corpus, pinned by one digest.

The corpus is the bundled layouts, seeded random layouts with and
without stitches, and a 2000-shape grid. For each layout the digest
takes the report, the SVG, the LP export, both DOT graphs, and the
block count, status and node count of the solve. The stitch and
end-cut stages depend on the distance metric, so the corpus is digested
under each metric. A change that only makes the pipeline faster must
leave both digests as they are.
"""

import hashlib

from corpora import runs

from trimdecomp.cli import decompose_document
from trimdecomp.geometry import Metric
from trimdecomp.graphs import end_cut_graph_dot, layout_graph_dot
from trimdecomp.ilp import export_lp
from trimdecomp.layout_io import emit_svg, write_report

# taken before the band-sweep neighbour search replaced per-id grid queries,
# which left every output byte as it was
CORPUS_DIGEST = "c6d72009a4958e9dc4ebe785619e60468597ab8e5e03f9e8773ad5eb2aefc56b"
# taken before the stitch stage became one pass per feature, which left
# every output byte as it was
EUCLIDEAN_DIGEST = "0e0d0dca51967f7dc9d4b15c6f94e1e25efe80b2a5424771de45c3670c8ebc2d"


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


def sha256_of(parts) -> str:
    """The digest of the parts, each followed by a NUL byte."""
    return hashlib.sha256(b"".join(part.encode() + b"\0" for part in parts)).hexdigest()


def corpus_digest(metric: Metric) -> tuple[int, str]:
    docs = [doc for _, doc, _ in runs("output identity")]
    return len(docs), sha256_of(part for doc in docs for part in outputs(doc, metric=metric))


def test_every_output_byte_of_the_corpus_is_unchanged():
    assert corpus_digest(Metric.CHEBYSHEV) == (84, CORPUS_DIGEST)


def test_every_euclidean_output_byte_of_the_corpus_is_unchanged():
    assert corpus_digest(Metric.EUCLIDEAN) == (84, EUCLIDEAN_DIGEST)
