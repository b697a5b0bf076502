"""Layout file parsing, decomposition reports, and SVG rendering.

The layout format is line oriented plain text:

    layout <name>
    units nm
    param <key> <int>
    rect <id> <x1> <y1> <x2> <y2>
    poly <id> <x1> <y1> <x2> <y2> ... (closed implicitly, rectilinear)

Blank lines and ``#`` comments are ignored. Coordinates are integer
nanometers. Feature ids are non-negative integers and must be unique.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, TextIO

from .geometry import (
    Metric,
    OverlappingInputShapes,
    Point,
    Rect,
    RectilinearShape,
    SpatialIndex,
    bounding_box,
    rects_interior_intersect,
)

# A vertex of the layout graph: (feature id, segment index). Unsplit
# features have the single segment 0.
VertexKey = tuple[int, int]

PARAM_KEYS = (
    "dis_m",
    "dis_c",
    "hlow",
    "hhigh",
    "wlow",
    "whigh",
    "wth",
    "alpha_num",
    "alpha_den",
    "stitch",
)


class LayoutParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message

    def __reduce__(self):
        # the default rebuilds from args, the formatted text alone; this
        # lets the error cross from a directory-mode worker process
        return type(self), (self.line, self.message)


@dataclass(frozen=True)
class DecompositionParams:
    """Resolved rule set for one decomposition run.

    dis_m   minimum same-mask spacing between features
    dis_c   minimum spacing between distinct trim cuts
    h_low/h_high   allowed cut extent across the gap being cut
    w_low/w_high   allowed cut extent along the cut pair's shared run
    w_th    longest facing run that a single cut may repair
    alpha   cost of one stitch relative to one conflict
    stitch  whether features may be split into stitched segments
    """

    dis_m: int
    dis_c: int
    h_low: int
    h_high: int
    w_low: int
    w_high: int
    w_th: int
    alpha: Fraction
    stitch: bool

    def __post_init__(self) -> None:
        for name in ("dis_m", "dis_c", "h_low", "h_high", "w_low", "w_high", "w_th"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"parameter {name} must be a positive integer, got {v!r}")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.h_low > self.h_high:
            raise ValueError("hlow exceeds hhigh")
        if self.w_low > self.w_high:
            raise ValueError("wlow exceeds whigh")

    @classmethod
    def from_raw(
        cls,
        raw: Mapping[str, int],
        shapes: Sequence[RectilinearShape] = (),
    ) -> "DecompositionParams":
        """Fill unspecified parameters from the spacing rule and the shapes.

        The cut spacing, the longest repairable run and the cut height cap
        all default to the mask spacing itself; the lower size bounds
        default to half the narrowest feature dimension present.
        """
        unknown = set(raw) - set(PARAM_KEYS)
        if unknown:
            raise ValueError(f"unknown parameters: {sorted(unknown)}")
        dis_m = raw.get("dis_m", 120)
        dis_c = raw.get("dis_c", dis_m)
        w_th = raw.get("wth", dis_m)
        h_high = raw.get("hhigh", dis_m)
        w_high = raw.get("whigh", w_th)
        if shapes:
            low_default = max(1, min(s.min_dimension for s in shapes) // 2)
        else:
            low_default = max(1, dis_m // 2)
        h_low = raw.get("hlow", low_default)
        w_low = raw.get("wlow", low_default)
        alpha = Fraction(raw.get("alpha_num", 1), raw.get("alpha_den", 10))
        stitch_flag = raw.get("stitch", 0)
        if stitch_flag not in (0, 1):
            raise ValueError(f"stitch must be 0 or 1, got {stitch_flag}")
        return cls(
            dis_m=dis_m,
            dis_c=dis_c,
            h_low=h_low,
            h_high=h_high,
            w_low=w_low,
            w_high=w_high,
            w_th=w_th,
            alpha=alpha,
            stitch=bool(stitch_flag),
        )

    def raw_items(self) -> list[tuple[str, int]]:
        return [
            ("dis_m", self.dis_m),
            ("dis_c", self.dis_c),
            ("hlow", self.h_low),
            ("hhigh", self.h_high),
            ("wlow", self.w_low),
            ("whigh", self.w_high),
            ("wth", self.w_th),
            ("alpha_num", self.alpha.numerator),
            ("alpha_den", self.alpha.denominator),
            ("stitch", int(self.stitch)),
        ]


@dataclass(frozen=True)
class LayoutDocument:
    name: str
    units: str
    shapes: tuple[RectilinearShape, ...]
    params: DecompositionParams


@dataclass(frozen=True, order=True)
class StitchPoint:
    """A point where a feature may be split into two stitched segments.

    orient is the orientation of the cut line: 'v' splits a horizontal
    feature at x, 'h' splits a vertical feature at y.
    """

    feature: int
    x: int
    y: int
    orient: str


@dataclass(frozen=True)
class DecompositionReport:
    masks: dict[VertexKey, str]
    cuts: tuple[Rect, ...]
    conflicts: tuple[tuple[VertexKey, VertexKey], ...]
    stitches: tuple[StitchPoint, ...]
    cost: Fraction


def _parse_int(tok: str, line: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise LayoutParseError(line, f"{what} must be an integer, got {tok!r}") from None


def parse_layout(source: str | TextIO) -> LayoutDocument:
    text = source if isinstance(source, str) else source.read()
    name = "unnamed"
    units = "nm"
    raw_params: dict[str, int] = {}
    shapes: list[RectilinearShape] = []
    seen_ids: set[int] = set()

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        lin = rawline.split("#", 1)[0].strip()
        if not lin:
            continue
        toks = lin.split()
        kind = toks[0]
        if kind == "layout":
            if len(toks) != 2:
                raise LayoutParseError(lineno, "layout takes exactly one name")
            name = toks[1]
        elif kind == "units":
            if len(toks) != 2 or toks[1] != "nm":
                raise LayoutParseError(lineno, "only 'units nm' is supported")
            units = toks[1]
        elif kind == "param":
            if len(toks) != 3:
                raise LayoutParseError(lineno, "param takes a key and an integer value")
            key = toks[1]
            if key not in PARAM_KEYS:
                raise LayoutParseError(lineno, f"unknown param {key!r}")
            if key in raw_params:
                raise LayoutParseError(lineno, f"duplicate param {key!r}")
            raw_params[key] = _parse_int(toks[2], lineno, f"param {key}")
        elif kind == "rect":
            if len(toks) != 6:
                raise LayoutParseError(lineno, "rect takes id x1 y1 x2 y2")
            fid = _parse_int(toks[1], lineno, "feature id")
            coords = [_parse_int(t, lineno, "coordinate") for t in toks[2:]]
            x1, y1, x2, y2 = coords
            if x1 >= x2 or y1 >= y2:
                raise LayoutParseError(lineno, "rect corners must be lower-left then upper-right")
            _check_id(fid, seen_ids, lineno)
            shapes.append(RectilinearShape.from_rect(fid, Rect.of(x1, y1, x2, y2)))
        elif kind == "poly":
            if len(toks) < 2 or len(toks) % 2 != 0:
                raise LayoutParseError(lineno, "poly takes id then x y pairs")
            fid = _parse_int(toks[1], lineno, "feature id")
            coords = [_parse_int(t, lineno, "coordinate") for t in toks[2:]]
            pts = list(zip(coords[0::2], coords[1::2]))
            _check_id(fid, seen_ids, lineno)
            try:
                shapes.append(RectilinearShape.from_outline(fid, pts))
            except ValueError as exc:
                raise LayoutParseError(lineno, str(exc)) from exc
        else:
            raise LayoutParseError(lineno, f"unknown directive {kind!r}")

    try:
        params = DecompositionParams.from_raw(raw_params, shapes)
    except ValueError as exc:
        raise LayoutParseError(0, str(exc)) from exc
    shapes.sort(key=lambda s: s.id)
    _check_disjoint(shapes, params.dis_m)
    return LayoutDocument(name=name, units=units, shapes=tuple(shapes), params=params)


def _check_id(fid: int, seen: set[int], lineno: int) -> None:
    if fid < 0:
        raise LayoutParseError(lineno, f"feature id must be non-negative, got {fid}")
    if fid in seen:
        raise LayoutParseError(lineno, f"duplicate feature id {fid}")
    seen.add(fid)


def _check_disjoint(shapes: Sequence[RectilinearShape], cell: int) -> None:
    by_id = {s.id: s for s in shapes}
    for a, b in SpatialIndex.from_shapes(shapes, cell).pairs():
        for ra in by_id[a].rects:
            for rb in by_id[b].rects:
                if rects_interior_intersect(ra, rb):
                    raise OverlappingInputShapes(f"features {a} and {b} overlap")


def write_layout(doc: LayoutDocument) -> str:
    out = io.StringIO()
    out.write(f"layout {doc.name}\n")
    out.write(f"units {doc.units}\n")
    for key, value in doc.params.raw_items():
        out.write(f"param {key} {value}\n")
    for s in doc.shapes:
        if len(s.outline) == 4:
            b = s.bbox
            out.write(f"rect {s.id} {b.lo.x} {b.lo.y} {b.hi.x} {b.hi.y}\n")
        else:
            coords = " ".join(f"{p.x} {p.y}" for p in s.outline)
            out.write(f"poly {s.id} {coords}\n")
    return out.getvalue()


def fraction_to_decimal(value: Fraction) -> str:
    """Render a fraction as an exact decimal with at least one digit after
    the point, falling back to N/D when no finite decimal exists."""
    num, den = value.numerator, value.denominator
    rest = den
    exp2 = 0
    while rest % 2 == 0:
        rest //= 2
        exp2 += 1
    exp5 = 0
    while rest % 5 == 0:
        rest //= 5
        exp5 += 1
    if rest != 1:
        return f"{num}/{den}"
    digits = max(exp2, exp5, 1)
    scaled = abs(num) * 10**digits // den
    whole, frac = divmod(scaled, 10**digits)
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{str(frac).zfill(digits)}"


def _vertex_token(key: VertexKey, split_features: set[int]) -> str:
    fid, seg = key
    if fid in split_features:
        return f"{fid}/{seg}"
    return str(fid)


def _parse_vertex_token(tok: str, line: int) -> VertexKey:
    if "/" in tok:
        a, b = tok.split("/", 1)
        return (_parse_int(a, line, "feature id"), _parse_int(b, line, "segment index"))
    return (_parse_int(tok, line, "feature id"), 0)


def write_report(report: DecompositionReport) -> str:
    split = {fid for fid, seg in report.masks if seg > 0}
    out = io.StringIO()
    for key in sorted(report.masks):
        out.write(f"mask {_vertex_token(key, split)} {report.masks[key]}\n")
    for cut in sorted(report.cuts):
        out.write(f"cut {cut.lo.x} {cut.lo.y} {cut.hi.x} {cut.hi.y}\n")
    for a, b in sorted(report.conflicts):
        out.write(f"conflict {_vertex_token(a, split)} {_vertex_token(b, split)}\n")
    for sp in sorted(report.stitches):
        out.write(f"stitch {sp.feature} {sp.x} {sp.y} {sp.orient}\n")
    out.write(f"cost {fraction_to_decimal(report.cost)}\n")
    return out.getvalue()


def parse_report(source: str | TextIO) -> DecompositionReport:
    text = source if isinstance(source, str) else source.read()
    masks: dict[VertexKey, str] = {}
    cuts: list[Rect] = []
    conflicts: list[tuple[VertexKey, VertexKey]] = []
    stitches: list[StitchPoint] = []
    cost: Fraction | None = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        lin = rawline.split("#", 1)[0].strip()
        if not lin:
            continue
        toks = lin.split()
        kind = toks[0]
        if kind == "mask":
            if len(toks) != 3 or toks[2] not in ("A", "B"):
                raise LayoutParseError(lineno, "mask takes a vertex and A or B")
            masks[_parse_vertex_token(toks[1], lineno)] = toks[2]
        elif kind == "cut":
            if len(toks) != 5:
                raise LayoutParseError(lineno, "cut takes x1 y1 x2 y2")
            x1, y1, x2, y2 = (_parse_int(t, lineno, "coordinate") for t in toks[1:])
            cuts.append(Rect.of(x1, y1, x2, y2))
        elif kind == "conflict":
            if len(toks) != 3:
                raise LayoutParseError(lineno, "conflict takes two vertices")
            conflicts.append(
                (_parse_vertex_token(toks[1], lineno), _parse_vertex_token(toks[2], lineno))
            )
        elif kind == "stitch":
            if len(toks) != 5 or toks[4] not in ("h", "v"):
                raise LayoutParseError(lineno, "stitch takes feature x y and h or v")
            stitches.append(
                StitchPoint(
                    _parse_int(toks[1], lineno, "feature id"),
                    _parse_int(toks[2], lineno, "x"),
                    _parse_int(toks[3], lineno, "y"),
                    toks[4],
                )
            )
        elif kind == "cost":
            if len(toks) != 2:
                raise LayoutParseError(lineno, "cost takes one value")
            try:
                cost = Fraction(toks[1])
            except ValueError:
                raise LayoutParseError(lineno, f"bad cost value {toks[1]!r}") from None
        else:
            raise LayoutParseError(lineno, f"unknown directive {kind!r}")
    if cost is None:
        raise LayoutParseError(0, "report has no cost line")
    return DecompositionReport(
        masks=masks,
        cuts=tuple(cuts),
        conflicts=tuple(conflicts),
        stitches=tuple(stitches),
        cost=cost,
    )


# --- SVG rendering ---------------------------------------------------------

_SVG_STYLE = (
    ".maskA{fill:#3b7dd8;fill-opacity:.85}"
    ".maskB{fill:#d87d3b;fill-opacity:.85}"
    ".trim{fill:#2aa84a;fill-opacity:.45;stroke:#1d7533;stroke-width:2}"
    ".conflict{stroke:#d42a2a;stroke-width:4}"
    ".conflictdot{fill:#d42a2a}"
    ".stitchdot{fill:#7a2ad4;stroke:#fff;stroke-width:1}"
)


def split_feature_rects(shape: RectilinearShape, coords: Sequence[int], axis: str) -> list[tuple[Rect, ...]]:
    """Clip a feature's rectangles at the given axis coordinates, returning
    one rectangle group per resulting piece, ordered along the axis."""
    b = shape.bbox
    if axis == "x":
        bounds = [b.lo.x, *sorted(coords), b.hi.x]
    else:
        bounds = [b.lo.y, *sorted(coords), b.hi.y]
    pieces: list[tuple[Rect, ...]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        piece = []
        for r in shape.rects:
            rlo, rhi = (r.lo.x, r.hi.x) if axis == "x" else (r.lo.y, r.hi.y)
            clo, chi = max(rlo, lo), min(rhi, hi)
            if clo >= chi:
                continue
            if axis == "x":
                piece.append(Rect.of(clo, r.lo.y, chi, r.hi.y))
            else:
                piece.append(Rect.of(r.lo.x, clo, r.hi.x, chi))
        if piece:
            pieces.append(tuple(piece))
    return pieces


def _mask_runs(
    report: DecompositionReport, fid: int, segs: Sequence[int]
) -> list[tuple[str, list[int]]]:
    """The contiguous same-mask runs of one feature, given its segment
    indices in ascending order: each run's mask letter and segments."""
    runs: list[tuple[str, list[int]]] = []
    for seg in segs:
        letter = report.masks[(fid, seg)]
        if not runs or runs[-1][0] != letter:
            runs.append((letter, []))
        runs[-1][1].append(seg)
    return runs


def emit_svg(doc: LayoutDocument, report: DecompositionReport) -> str:
    if doc.shapes:
        box = bounding_box([s.bbox for s in doc.shapes]).inflate(doc.params.dis_m)
        view = f"{box.lo.x} {box.lo.y} {box.width} {box.height}"
        ymin, ymax = box.lo.y, box.hi.y
    else:
        view = "0 0 1 1"
        ymin = ymax = 0

    def fy(y: int) -> int:
        # mirror so +y points up while staying in the same viewBox range
        return ymin + ymax - y

    def rect_path(r: Rect) -> str:
        return f"M{r.lo.x} {fy(r.hi.y)}H{r.hi.x}V{fy(r.lo.y)}H{r.lo.x}Z"

    group_paths: dict[str, list[str]] = {"A": [], "B": []}
    piece_by_vertex: dict[VertexKey, Rect] = {}
    stitches_by_feature: dict[int, list[StitchPoint]] = {}
    for sp in report.stitches:
        stitches_by_feature.setdefault(sp.feature, []).append(sp)
    segs_by_feature: dict[int, list[int]] = {}
    for f, seg in sorted(report.masks):
        segs_by_feature.setdefault(f, []).append(seg)

    for shape in doc.shapes:
        segs = segs_by_feature.get(shape.id, ())
        runs = _mask_runs(report, shape.id, segs)
        if not runs:
            continue
        points = sorted(stitches_by_feature.get(shape.id, ()))
        if points:
            axis = "x" if points[0].orient == "v" else "y"
            coords = [sp.x if axis == "x" else sp.y for sp in points]
            pieces = split_feature_rects(shape, coords, axis)
        else:
            pieces = [shape.rects]
        # the stitches of a report sit where the mask changes, so the
        # feature splits into one piece per run
        for (letter, run_segs), piece in zip(runs, pieces):
            group_paths[letter].append("".join(rect_path(r) for r in piece))
            box = bounding_box(piece) if points else shape.bbox
            for seg in run_segs:
                piece_by_vertex[(shape.id, seg)] = box

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">'
        f"<style>{_SVG_STYLE}</style>"
    )
    for letter in ("A", "B"):
        out.write(f'<g id="mask{letter}">')
        for d in group_paths[letter]:
            out.write(f'<path class="mask{letter}" d="{d}"/>')
        out.write("</g>")
    out.write('<g id="trim">')
    for cut in sorted(report.cuts):
        out.write(
            f'<rect class="trim" x="{cut.lo.x}" y="{fy(cut.hi.y)}" '
            f'width="{cut.width}" height="{cut.height}"/>'
        )
    out.write("</g>")
    out.write('<g id="conflicts">')
    for a, b in sorted(report.conflicts):
        ra = piece_by_vertex.get(a)
        rb = piece_by_vertex.get(b)
        if ra is None or rb is None:
            continue
        ax, ay = (ra.lo.x + ra.hi.x) // 2, fy((ra.lo.y + ra.hi.y) // 2)
        bx, by = (rb.lo.x + rb.hi.x) // 2, fy((rb.lo.y + rb.hi.y) // 2)
        out.write(f'<line class="conflict" x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}"/>')
        out.write(
            f'<circle class="conflictdot" cx="{(ax + bx) // 2}" cy="{(ay + by) // 2}" r="8"/>'
        )
    out.write("</g>")
    out.write('<g id="stitches">')
    for sp in sorted(report.stitches):
        out.write(f'<circle class="stitchdot" cx="{sp.x}" cy="{fy(sp.y)}" r="6"/>')
    out.write("</g>")
    out.write("</svg>")
    return out.getvalue()
