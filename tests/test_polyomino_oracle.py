"""Differential gate on random polyomino layouts: the reported cost and
mask vector of every layout, under both metrics, equal those of an
external MILP solve of the exported model, fixed lexicographically."""

import random

from helpers import milp_lex_witness, variable_indices

from trimdecomp.cli import build_full_model, decompose_document
from trimdecomp.geometry import Metric
from trimdecomp.ilp import SolveStatus, export_lp
from trimdecomp.layout_io import parse_layout


def _outline(rng, kind):
    """The local outline of one bar, L, U or T on a 20 nm lattice."""
    t = rng.randrange(20, 61, 20)  # arm width
    w, h = rng.randrange(3 * t, 241, 20), rng.randrange(2 * t, 201, 20)
    if kind == "bar":
        return [(0, 0), (w, 0), (w, t), (0, t)]
    if kind == "L":
        return [(0, 0), (w, 0), (w, t), (t, t), (t, h), (0, h)]
    if kind == "U":
        return [(0, 0), (w, 0), (w, h), (w - t, h), (w - t, t), (t, t), (t, h), (0, h)]
    a = rng.randrange(20, w - t, 20)  # T: the stem's left side, under a bar of width w
    return [(a, 0), (a + t, 0), (a + t, h - t), (w, h - t), (w, h), (0, h), (0, h - t), (a, h - t)]


def polyomino_text(seed: int) -> str:
    """Two to five bars and L, U and T outlines, each turned a random
    quarter, at lattice points of a 300 nm square where their bounding
    boxes do not overlap; with random dis_m 60-150, an optional hlow,
    alpha 1/10 or 1/3, and stitching on for half of the seeds."""
    rng = random.Random(seed)
    lines = [f"layout poly{seed}", f"param dis_m {rng.randrange(60, 151, 10)}"]
    if rng.random() < 0.5:
        lines.append(f"param hlow {rng.randrange(10, 51, 10)}")
    lines.append(f"param alpha_den {rng.choice((10, 3))}")
    lines.append(f"param stitch {seed % 2}")
    boxes = []
    for _ in range(rng.randint(2, 5)):
        pts = _outline(rng, rng.choice(("bar", "L", "U", "T")))
        for _ in range(rng.randrange(4)):
            pts = [(-y, x) for x, y in pts]
        for _ in range(20):  # tries at a free place
            x0, y0 = rng.randrange(0, 301, 20), rng.randrange(0, 301, 20)
            lo_x, lo_y = min(x for x, _ in pts), min(y for _, y in pts)
            placed = [(x - lo_x + x0, y - lo_y + y0) for x, y in pts]
            box = (x0, y0, max(x for x, _ in placed), max(y for _, y in placed))
            if all(box[2] <= b[0] or b[2] <= box[0] or box[3] <= b[1] or b[3] <= box[1] for b in boxes):
                boxes.append(box)
                coords = " ".join(f"{x} {y}" for x, y in placed)
                lines.append(f"poly {len(boxes)} {coords}")
                break
    return "\n".join(lines) + "\n"


def test_polyomino_layouts_match_the_external_lex_min_optimum():
    # most layouts export the same model under both metrics; the external
    # answer is solved once per model text
    oracle = {}
    checked = costly = cut = 0
    for seed in range(130):
        doc = parse_layout(polyomino_text(seed))
        for metric in Metric:
            result = decompose_document(doc, metric=metric)
            model = build_full_model(result)
            text = export_lp(model)
            if text not in oracle:
                # the witness's cost is the external optimum, milp_optimum's value
                oracle[text] = milp_lex_witness(text)
            cost, witness = oracle[text]
            masks = result.report.masks
            x_of = variable_indices(model)[0]
            got = {model.names[i]: "AB".index(masks[v]) for v, i in x_of.items()}
            label = f"seed {seed} {metric.value}"
            assert result.stats.status is SolveStatus.OPTIMAL, label
            assert result.stats.cost == cost, label
            assert got == witness, label
            checked += 1
            costly += cost > 0
            cut += bool(result.report.cuts)
    # the family leaves conflicts and selects cuts, so the gate is not idle
    assert (checked, costly, cut) == (260, 36, 168)
