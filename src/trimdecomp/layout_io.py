"""Layout file parsing, decomposition reports, and SVG rendering.

The layout format is line oriented plain text:

    layout <name>
    units nm
    param <key> <int>
    rect <id> <x1> <y1> <x2> <y2>
    poly <id> <x1> <y1> <x2> <y2> ... (closed implicitly, rectilinear)

Blank lines and ``#`` comments are ignored, here and in reports: one
line reader serves both parsers. Coordinates are integer nanometers.
Feature ids are non-negative integers and must be unique. Shapes may
touch but not overlap, which decompose_document checks.
"""

from __future__ import annotations

import enum
import functools
import gc
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple, ParamSpec, Sequence, TypeVar

from .geometry import (
    Rect,
    RectilinearShape,
    _polygon_shape,
    _rect_shape,
    bounding_box,
)

# A vertex of the layout graph: (feature id, segment index). Unsplit
# features have the single segment 0.
VertexKey = tuple[int, int]

# the integer rules: (key in a layout file, field of DecompositionParams)
_INT_RULES = (
    ("dis_m", "dis_m"),
    ("dis_c", "dis_c"),
    ("hlow", "h_low"),
    ("hhigh", "h_high"),
    ("wlow", "w_low"),
    ("whigh", "w_high"),
    ("wth", "w_th"),
)
PARAM_KEYS = (*(key for key, _ in _INT_RULES), "alpha_num", "alpha_den", "stitch")
# the key whose value an unset bound takes, each after the key it reads
_DEFAULTS_TO = {"dis_c": "dis_m", "wth": "dis_m", "hhigh": "dis_m", "whigh": "wth"}


class LayoutParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class ParamError(ValueError):
    """A failed parameter check, with the keys whose values it read."""

    def __init__(self, keys: tuple[str, ...], message: str):
        super().__init__(message)
        self.keys = keys


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
        for key, name in _INT_RULES:
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
                raise ParamError((key,), f"parameter {name} must be a positive integer, got {v!r}")
        if self.alpha < 0:
            raise ParamError(("alpha_num", "alpha_den"), "alpha must be non-negative")
        if self.h_low > self.h_high:
            raise ParamError(("hlow", "hhigh"), "hlow exceeds hhigh")
        if self.w_low > self.w_high:
            raise ParamError(("wlow", "whigh"), "wlow exceeds whigh")

    @classmethod
    def from_raw(
        cls,
        raw: Mapping[str, int],
        shapes: Sequence[RectilinearShape] = (),
    ) -> "DecompositionParams":
        """Fill unspecified parameters from the spacing rule and the shapes.

        The cut spacing, the longest repairable run and the cut height cap
        all default to the mask spacing itself; the lower size bounds
        default to half the narrowest feature dimension present, but never
        above their upper bounds. Bounds that raw sets itself are kept, so
        a contradiction stated in raw still raises.
        """
        unknown = set(raw) - set(PARAM_KEYS)
        if unknown:
            raise ValueError(f"unknown parameters: {sorted(unknown)}")
        ints = {"dis_m": raw.get("dis_m", 120)}  # the integer rules by key
        for key, source in _DEFAULTS_TO.items():
            ints[key] = raw.get(key, ints[source])
        if "hlow" in raw and "wlow" in raw:
            low_default = None  # unused: skip the scan over the shapes
        elif shapes:
            sides = []  # each rect's width and height; a generator costs more
            for s in shapes:
                for (x1, y1), (x2, y2) in s.rects:
                    sides.append(x2 - x1)
                    sides.append(y2 - y1)
            low_default = max(1, min(sides) // 2)
        else:
            low_default = max(1, ints["dis_m"] // 2)
        for low, high in (("hlow", "hhigh"), ("wlow", "whigh")):
            ints[low] = raw[low] if low in raw else max(1, min(low_default, ints[high]))
        alpha_den = raw.get("alpha_den", 10)
        if alpha_den == 0:
            raise ParamError(("alpha_den",), "parameter alpha_den must be non-zero")
        alpha = Fraction(raw.get("alpha_num", 1), alpha_den)
        stitch_flag = raw.get("stitch", 0)
        if stitch_flag not in (0, 1):
            raise ParamError(("stitch",), f"stitch must be 0 or 1, got {stitch_flag}")
        return cls(alpha=alpha, stitch=bool(stitch_flag), **{n: ints[k] for k, n in _INT_RULES})

    def raw_items(self) -> list[tuple[str, int]]:
        return [(key, getattr(self, name)) for key, name in _INT_RULES] + [
            ("alpha_num", self.alpha.numerator),
            ("alpha_den", self.alpha.denominator),
            ("stitch", int(self.stitch)),
        ]


@dataclass(frozen=True)
class LayoutDocument:
    """A layout. shapes is kept as a tuple in id order, so a shape's rank,
    its index there, names it in every stage; a repeated id is a ValueError."""

    name: str
    shapes: tuple[RectilinearShape, ...]
    params: DecompositionParams

    def __post_init__(self) -> None:
        ids = [s.id for s in self.shapes]
        if len(set(ids)) < len(ids):
            ids.sort()
            raise ValueError(f"duplicate feature id {min(a for a, b in zip(ids, ids[1:]) if a == b)}")
        shapes = self.shapes if ids == sorted(ids) else sorted(self.shapes, key=lambda s: s.id)
        object.__setattr__(self, "shapes", tuple(shapes))


class StitchPoint(NamedTuple):
    """A point where a feature may be split into two stitched segments.

    orient is the orientation of the cut line: 'v' splits a horizontal
    feature at x, 'h' splits a vertical feature at y.
    """

    feature: int
    x: int
    y: int
    orient: str


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class DecompositionReport:
    """The solved decomposition. status is TIMEOUT when the solve ran out
    of time, so cost is that of the best colouring found, not a proven
    optimum; the report text says so in a status line after the cost."""

    masks: dict[VertexKey, str]
    cuts: tuple[Rect, ...]
    conflicts: tuple[tuple[VertexKey, VertexKey], ...]
    stitches: tuple[StitchPoint, ...]
    cost: Fraction
    status: SolveStatus = SolveStatus.OPTIMAL


_P = ParamSpec("_P")
_R = TypeVar("_R")


def _collector_paused(fn: Callable[_P, _R]) -> Callable[_P, _R]:
    """Run fn with the cyclic garbage collector paused.

    Parsing, decomposing and exporting create many objects and no
    reference cycle, so reference counting frees all they drop and the
    collector's repeated scans of the survivors buy nothing. The exports
    are paused as well: objects allocated while paused still count towards
    the next collection, so an unpaused export after a paused decompose
    starts one at once, and the older-generation runs that follow scan the
    whole decomposition again. What remains is a few collections after the
    last paused call returns. The collector is enabled again on the way
    out only if it was enabled on the way in, so a caller that turned it
    off keeps it off, and nested or concurrent calls leave it as the
    outermost caller found it. A plain wrapper, not a context manager,
    keeps the pause at a fraction of a microsecond per call."""

    @functools.wraps(fn)
    def paused(*args: _P.args, **kwargs: _P.kwargs) -> _R:
        was = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was:
                gc.enable()

    return paused


def _parse_int(tok: str, line: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise LayoutParseError(line, f"{what} must be an integer, got {tok!r}") from None


def _name_bad_token(toks: Sequence[str], line: int, first: str) -> None:
    """Raise the LayoutParseError that names the first token of toks that
    is not an integer, read as first for the first token and as a
    coordinate after it; return if every token is an integer."""
    _parse_int(toks[0], line, first)
    for t in toks[1:]:
        _parse_int(t, line, "coordinate")


def _parse_box(toks: Sequence[str], line: int, what: str) -> Rect:
    try:
        x1, y1, x2, y2 = map(int, toks)
    except ValueError:
        _name_bad_token(toks, line, "coordinate")
        raise
    if x1 >= x2 or y1 >= y2:
        raise LayoutParseError(line, f"{what} corners must be lower-left then upper-right")
    return Rect.of(x1, y1, x2, y2)


def _directives(text: str) -> Iterator[tuple[int, list[str]]]:
    """The line number and tokens of each line of text that holds more
    than a comment; a line without ``#`` is split once."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        toks = line.split()
        if toks:
            yield lineno, toks


@_collector_paused
def parse_layout(text: str) -> LayoutDocument:
    name = "unnamed"
    raw_params: dict[str, int] = {}
    param_lines: dict[str, int] = {}
    shapes: list[RectilinearShape] = []
    seen_ids: set[int] = set()

    for lineno, toks in _directives(text):
        kind = toks[0]
        # rect first: it is most of the lines of a large layout
        if kind == "rect":
            if len(toks) != 6:
                raise LayoutParseError(lineno, "rect takes id x1 y1 x2 y2")
            try:
                fid, x1, y1, x2, y2 = map(int, toks[1:])
            except ValueError:
                _name_bad_token(toks[1:], lineno, "feature id")
                raise
            if x1 >= x2 or y1 >= y2:
                raise LayoutParseError(lineno, "rect corners must be lower-left then upper-right")
            if fid < 0 or fid in seen_ids:
                _reject_id(fid, lineno)
            seen_ids.add(fid)
            shapes.append(_rect_shape(fid, x1, y1, x2, y2))
        elif kind == "poly":
            if len(toks) < 2 or len(toks) % 2 != 0:
                raise LayoutParseError(lineno, "poly takes id then x y pairs")
            try:
                fid, *coords = map(int, toks[1:])
            except ValueError:
                _name_bad_token(toks[1:], lineno, "feature id")
                raise
            if fid < 0 or fid in seen_ids:
                _reject_id(fid, lineno)
            seen_ids.add(fid)
            try:
                # map(int, ...) made the coordinates: from_outline's check is moot
                shapes.append(_polygon_shape(fid, list(zip(coords[0::2], coords[1::2]))))
            except ValueError as exc:
                raise LayoutParseError(lineno, str(exc)) from exc
        elif kind == "param":
            if len(toks) != 3:
                raise LayoutParseError(lineno, "param takes a key and an integer value")
            key = toks[1]
            if key not in PARAM_KEYS:
                raise LayoutParseError(lineno, f"unknown param {key!r}")
            if key in raw_params:
                raise LayoutParseError(lineno, f"duplicate param {key!r}")
            raw_params[key] = _parse_int(toks[2], lineno, f"param {key}")
            param_lines[key] = lineno
        elif kind == "layout":
            if len(toks) != 2:
                raise LayoutParseError(lineno, "layout takes exactly one name")
            name = toks[1]
        elif kind == "units":
            if toks != ["units", "nm"]:
                raise LayoutParseError(lineno, "only 'units nm' is supported")
        else:
            raise LayoutParseError(lineno, f"unknown directive {kind!r}")

    try:
        params = DecompositionParams.from_raw(raw_params, shapes)
    except ParamError as exc:
        # the last param line the check read; an unset key reads its default's
        line = 0
        for key in exc.keys:
            while key not in param_lines and key in _DEFAULTS_TO:
                key = _DEFAULTS_TO[key]
            line = max(line, param_lines.get(key, 0))
        raise LayoutParseError(line, str(exc)) from exc
    return LayoutDocument(name=name, shapes=tuple(shapes), params=params)


def _reject_id(fid: int, lineno: int) -> None:
    """Raise the LayoutParseError for a negative or repeated feature id."""
    if fid < 0:
        raise LayoutParseError(lineno, f"feature id must be non-negative, got {fid}")
    raise LayoutParseError(lineno, f"duplicate feature id {fid}")


def write_layout(doc: LayoutDocument) -> str:
    """The layout text that parse_layout reads back as doc. ValueError
    unless the name is one token without ``#``, as a layout line holds."""
    if doc.name.split() != [doc.name] or "#" in doc.name:
        raise ValueError(f"layout name {doc.name!r} must be one token without whitespace or '#'")
    lines = [f"layout {doc.name}", "units nm"]
    lines += [f"param {key} {value}" for key, value in doc.params.raw_items()]
    for s in doc.shapes:
        if len(s.rects) == 1:
            (x1, y1), (x2, y2) = s.rects[0]
            lines.append(f"rect {s.id} {x1} {y1} {x2} {y2}")
        else:
            lines.append(f"poly {s.id} " + " ".join([f"{x} {y}" for x, y in s.outline]))
    lines.append("")
    return "\n".join(lines)


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


def _parse_index(tok: str, line: int, what: str) -> int:
    value = _parse_int(tok, line, what)
    if value < 0:
        raise LayoutParseError(line, f"{what} must be non-negative, got {value}")
    return value


def _parse_vertex_token(tok: str, line: int) -> VertexKey:
    if "/" in tok:
        a, b = tok.split("/", 1)
        return (_parse_index(a, line, "feature id"), _parse_index(b, line, "segment index"))
    return (_parse_index(tok, line, "feature id"), 0)


@_collector_paused
def write_report(report: DecompositionReport) -> str:
    """The report text, one line per mask, cut, conflict and stitch.

    A vertex is written as the bare feature id, or as id/segment for a
    split feature; each mask line formats its vertex in place, and the
    lines are joined once at the end."""
    masks = report.masks
    split = {fid for fid, seg in masks if seg > 0}

    def tok(v: VertexKey) -> str:
        return f"{v[0]}/{v[1]}" if v[0] in split else str(v[0])

    lines = [
        f"mask {f}/{k} {masks[f, k]}" if f in split else f"mask {f} {masks[f, k]}"
        for f, k in sorted(masks)
    ]
    lines += [f"cut {x1} {y1} {x2} {y2}" for (x1, y1), (x2, y2) in sorted(report.cuts)]
    lines += [f"conflict {tok(a)} {tok(b)}" for a, b in sorted(report.conflicts)]
    lines += [f"stitch {f} {x} {y} {o}" for f, x, y, o in sorted(report.stitches)]
    lines.append(f"cost {fraction_to_decimal(report.cost)}")
    if report.status is not SolveStatus.OPTIMAL:
        lines.append(f"status {report.status.value}")
    lines.append("")
    return "\n".join(lines)


def parse_report(text: str) -> DecompositionReport:
    masks: dict[VertexKey, str] = {}
    cuts: list[Rect] = []
    conflicts: list[tuple[VertexKey, VertexKey]] = []
    stitches: list[StitchPoint] = []
    cost: Fraction | None = None
    status: SolveStatus | None = None
    for lineno, toks in _directives(text):
        kind = toks[0]
        if kind == "mask":
            if len(toks) != 3 or toks[2] not in ("A", "B"):
                raise LayoutParseError(lineno, "mask takes a vertex and A or B")
            vertex = _parse_vertex_token(toks[1], lineno)
            if vertex in masks:
                raise LayoutParseError(lineno, f"duplicate mask for {toks[1]}")
            masks[vertex] = toks[2]
        elif kind == "cut":
            if len(toks) != 5:
                raise LayoutParseError(lineno, "cut takes x1 y1 x2 y2")
            cuts.append(_parse_box(toks[1:], lineno, "cut"))
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
                    _parse_index(toks[1], lineno, "feature id"),
                    _parse_int(toks[2], lineno, "x"),
                    _parse_int(toks[3], lineno, "y"),
                    toks[4],
                )
            )
        elif kind == "cost":
            if len(toks) != 2:
                raise LayoutParseError(lineno, "cost takes one value")
            if cost is not None:
                raise LayoutParseError(lineno, "duplicate cost line")
            try:
                cost = Fraction(toks[1])
            except (ValueError, ZeroDivisionError):
                raise LayoutParseError(lineno, f"bad cost value {toks[1]!r}") from None
        elif kind == "status":
            if len(toks) != 2:
                raise LayoutParseError(lineno, "status takes one value")
            if status is not None:
                raise LayoutParseError(lineno, "duplicate status line")
            try:
                status = SolveStatus(toks[1])
            except ValueError:
                raise LayoutParseError(lineno, f"bad status {toks[1]!r}") from None
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
        status=SolveStatus.OPTIMAL if status is None else status,
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


def split_feature_rects(rects: Sequence[Rect], bounds: Sequence[int], k: int) -> list[tuple[Rect, ...]]:
    """Clip a feature's rectangles between consecutive bounds, ascending
    values of coordinate k of a corner (0 for x, 1 for y) from its bounding
    box's start through its stitch coordinates to its end, returning one
    rectangle group per resulting piece, in that order."""
    pieces: list[tuple[Rect, ...]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        piece = []
        for r in rects:
            clo, chi = max(r.lo[k], lo), min(r.hi[k], hi)
            if clo < chi:
                (x1, y1), (x2, y2) = r
                piece.append(Rect.of(clo, y1, chi, y2) if k == 0 else Rect.of(x1, clo, x2, chi))
        if piece:
            pieces.append(tuple(piece))
    return pieces


@_collector_paused
def emit_svg(doc: LayoutDocument, report: DecompositionReport) -> str:
    """The layout drawn in its masks, with trim cuts, conflicts and stitches.

    Features are drawn in id order, the order of doc.shapes. A
    feature of one segment takes its letter from its one mask line, and
    only a split one is grouped into runs of segments on one mask. Only
    conflict endpoints keep their piece, whose box's middle a conflict line
    starts at, and a one-rect feature with no stitch is one f-string."""
    all_rects = [r for s in doc.shapes for r in s.rects]
    if all_rects:
        (x1, y1), (x2, y2) = bounding_box(all_rects).inflate(doc.params.dis_m)
        view = f"{x1} {y1} {x2 - x1} {y2 - y1}"
        # y is drawn as m - y, mirrored so +y points up within the viewBox
        m = y1 + y2
    else:
        view = "0 0 1 1"
        m = 0

    stitches_by_feature: dict[int, list[StitchPoint]] = {}
    for sp in report.stitches:
        stitches_by_feature.setdefault(sp.feature, []).append(sp)
    masks = report.masks
    # a feature of one segment takes the letter of (id, 0); only a split
    # feature has contiguous same-mask runs of segments, in segment order:
    # a run's mask letter and its vertex keys
    split = {fid for fid, k in masks if k}
    runs_by_feature: dict[int, list[tuple[str, list[VertexKey]]]] = {}
    for key in sorted([key for key in masks if key[0] in split]) if split else ():
        letter = masks[key]
        runs = runs_by_feature.get(key[0])
        if runs is None:
            runs_by_feature[key[0]] = [(letter, [key])]
        elif runs[-1][0] != letter:
            runs.append((letter, [key]))
        else:
            runs[-1][1].append(key)
    ends = {key for pair in report.conflicts for key in pair}

    paths: dict[str, list[str]] = {"A": [], "B": []}
    anchors: dict[VertexKey, tuple[Rect, ...]] = {}
    for shape in doc.shapes:
        fid, rects = shape.id, shape.rects
        points = stitches_by_feature.get(fid)
        if fid in split:
            runs = runs_by_feature[fid]
        else:
            key = (fid, 0)
            letter = masks.get(key)
            if letter is None:
                continue
            if points is None and len(rects) == 1:
                (((x1, y1), (x2, y2)),) = rects
                paths[letter].append(f'<path class="mask{letter}" d="M{x1} {m - y2}H{x2}V{m - y1}H{x1}Z"/>')
                if key in ends:
                    anchors[key] = rects
                continue
            runs = [(letter, [key])]
        if points is None:
            pieces = [rects]
        else:
            k = 0 if points[0].orient == "v" else 1
            lo, hi = bounding_box(rects)
            # a StitchPoint is (feature, x, y, orient): coordinate k is at 1 + k
            coords = sorted([sp[1 + k] for sp in points])
            pieces = split_feature_rects(rects, [lo[k], *coords, hi[k]], k)
        # the stitches of a report sit where the mask changes, so the
        # feature splits into one piece per run
        if len(runs) != len(pieces):
            raise ValueError(
                f"feature {fid}: {len(runs)} same-mask runs but "
                f"{len(pieces)} pieces between its stitches"
            )
        for (letter, keys), piece in zip(runs, pieces):
            d = "".join([f"M{x1} {m - y2}H{x2}V{m - y1}H{x1}Z" for (x1, y1), (x2, y2) in piece])
            paths[letter].append(f'<path class="mask{letter}" d="{d}"/>')
            for key in keys:
                if key in ends:
                    anchors[key] = piece

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}"><style>{_SVG_STYLE}</style>',
        '<g id="maskA">',
        *paths["A"],
        '</g><g id="maskB">',
        *paths["B"],
        '</g><g id="trim">',
    ]
    parts += [
        f'<rect class="trim" x="{x1}" y="{m - y2}" width="{x2 - x1}" height="{y2 - y1}"/>'
        for (x1, y1), (x2, y2) in sorted(report.cuts)
    ]
    parts.append('</g><g id="conflicts">')
    for a, b in sorted(report.conflicts):
        if a not in anchors or b not in anchors:
            continue
        (ax1, ay1), (ax2, ay2) = bounding_box(anchors[a])
        (bx1, by1), (bx2, by2) = bounding_box(anchors[b])
        ax, ay = (ax1 + ax2) // 2, m - (ay1 + ay2) // 2
        bx, by = (bx1 + bx2) // 2, m - (by1 + by2) // 2
        parts.append(
            f'<line class="conflict" x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}"/>'
            f'<circle class="conflictdot" cx="{(ax + bx) // 2}" cy="{(ay + by) // 2}" r="8"/>'
        )
    parts.append('</g><g id="stitches">')
    parts += [
        f'<circle class="stitchdot" cx="{sp.x}" cy="{m - sp.y}" r="6"/>'
        for sp in sorted(report.stitches)
    ]
    parts.append("</g></svg>")
    return "".join(parts)
