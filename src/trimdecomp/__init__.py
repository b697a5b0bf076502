"""Exact two-mask-plus-trim decomposition of rectilinear layouts."""

from .cli import DecompositionResult, RunStats, decompose_document, main
from .geometry import (
    GeometryError,
    Metric,
    OverlappingInputShapes,
    Point,
    Rect,
    RectilinearShape,
    SpatialIndex,
)
from .graphs import (
    EndCutGraph,
    LayoutGraph,
    build_end_cut_graph,
    build_layout_graph,
    conflict_pairs,
    generate_stitch_candidates,
)
from .endcut import EndCutCandidate, generate_all_end_cuts, generate_end_cut, merged_cut_rects
from .ilp import (
    IlpModel,
    IlpSolution,
    ModelError,
    SolveStatus,
    build_model,
    export_lp,
    solve,
)
from .layout_io import (
    DecompositionParams,
    DecompositionReport,
    LayoutDocument,
    LayoutParseError,
    StitchPoint,
    emit_svg,
    parse_layout,
    parse_report,
    write_layout,
    write_report,
)
from .synth import grid_layout, random_layout

__version__ = "0.1.0"

__all__ = [
    "DecompositionParams",
    "DecompositionReport",
    "DecompositionResult",
    "EndCutCandidate",
    "EndCutGraph",
    "GeometryError",
    "IlpModel",
    "IlpSolution",
    "LayoutDocument",
    "LayoutGraph",
    "LayoutParseError",
    "Metric",
    "ModelError",
    "OverlappingInputShapes",
    "Point",
    "Rect",
    "RectilinearShape",
    "RunStats",
    "SolveStatus",
    "SpatialIndex",
    "StitchPoint",
    "build_end_cut_graph",
    "build_layout_graph",
    "build_model",
    "conflict_pairs",
    "decompose_document",
    "emit_svg",
    "export_lp",
    "generate_all_end_cuts",
    "generate_end_cut",
    "generate_stitch_candidates",
    "grid_layout",
    "main",
    "merged_cut_rects",
    "parse_layout",
    "parse_report",
    "random_layout",
    "solve",
    "write_layout",
    "write_report",
    "__version__",
]
