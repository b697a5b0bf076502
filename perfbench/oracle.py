"""HiGHS reference optima for the random_batch layouts.

The layout is decomposed once, its full unreduced model is exported as LP
text, and the LP text is solved by HiGHS through scipy.optimize.milp. The
package's own branch and bound is therefore checked against an external
solver on the same 0-1 model. The LP reader here is separate from the
exporter, so a disagreement in the text format shows up as a wrong optimum.
"""

from __future__ import annotations

from fractions import Fraction


def parse_lp(text: str) -> tuple[list[str], dict[str, Fraction], list[tuple[dict[str, int], int]], int]:
    """Binary names, objective, rows (coefficients, upper bound) and the
    objective scale of the exporter's LP dialect."""
    scale = 1
    names: list[str] = []
    objective: dict[str, Fraction] = {}
    rows: list[tuple[dict[str, int], int]] = []
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("\\"):
            if "scaled by" in line:
                scale = int(line.rsplit(" ", 1)[1])
            continue
        if line in ("Minimize", "Subject To", "Binaries", "End"):
            section = line
            continue
        if section == "Minimize":
            toks = line.split(":", 1)[1].split()
            if toks and toks[0] == "0":
                continue  # constant-zero objective
            i = 0
            while i < len(toks):
                sign = 1 if toks[i] == "+" else -1
                if toks[i + 1][0].isdigit():
                    coef, name, i = Fraction(toks[i + 1]), toks[i + 2], i + 3
                else:
                    coef, name, i = Fraction(1), toks[i + 1], i + 2
                objective[name] = objective.get(name, Fraction(0)) + sign * coef
        elif section == "Subject To":
            lhs, rhs = line.split(":", 1)[1].split("<=")
            toks = lhs.split()
            terms: dict[str, int] = {}
            for j in range(0, len(toks), 2):
                terms[toks[j + 1]] = terms.get(toks[j + 1], 0) + (1 if toks[j] == "+" else -1)
            rows.append((terms, int(rhs)))
        elif section == "Binaries":
            names.extend(line.split())
    return names, objective, rows, scale


def lp_optimum(text: str) -> Fraction:
    """Exact optimum of the LP text: HiGHS finds an optimal 0-1 vector and
    the objective is re-evaluated on it in rational arithmetic."""
    import numpy as np
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import csr_array

    names, objective, rows, scale = parse_lp(text)
    if not names:
        return Fraction(0)
    col = {name: i for i, name in enumerate(names)}
    c = np.zeros(len(names))
    for name, coef in objective.items():
        c[col[name]] = float(coef)
    data, ri, ci, upper = [], [], [], []
    for r, (terms, rhs) in enumerate(rows):
        for name, coef in terms.items():
            data.append(coef)
            ri.append(r)
            ci.append(col[name])
        upper.append(rhs)
    constraints = []
    if rows:
        a = csr_array((data, (ri, ci)), shape=(len(rows), len(names)))
        constraints.append(LinearConstraint(a, -np.inf, upper))
    res = milp(c=c, constraints=constraints, integrality=np.ones(len(names)), bounds=(0, 1))
    if not res.success:
        raise RuntimeError(f"HiGHS did not prove an optimum: {res.message}")
    value = sum((coef * round(res.x[col[name]]) for name, coef in objective.items()), Fraction(0))
    return value / scale


def reference_optima(texts: dict[str, str]) -> dict[str, Fraction]:
    """HiGHS optimum of each layout's full model, keyed like texts."""
    from trimdecomp import decompose_document, export_lp, parse_layout
    from trimdecomp.cli import build_full_model

    return {
        key: lp_optimum(export_lp(build_full_model(decompose_document(parse_layout(text)))))
        for key, text in texts.items()
    }
