"""Numerical drift between two CSV outputs of `macdet`.

    python tests/csvdrift.py OLD.csv NEW.csv

Rows are paired in order.  For each series it prints the largest
absolute and relative change of the numeric fields (x_value, value,
ci95), then every structural difference: a changed row count, row order,
non-numeric field (experiment, series, x_name, seed, the comment line or
the header), or NaN/inf pattern.  Then, for each Pe_MC point whose value
moved, its z against the new file's Pe row at the same x (see
`pe_mc_z`).  Exit status 0 means no drift at all, 1 numeric drift only,
2 a structural difference.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

NUMERIC = ("x_value", "value", "ci95")
IDENTITY = ("experiment", "series", "x_name", "seed")


def _split(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    return comments, list(csv.reader(line for line in lines if not line.startswith("#")))


def _kind(field: str) -> str:
    # empty (no ci95), a non-finite value, or an ordinary number
    if field == "":
        return "empty"
    value = float(field)
    return repr(value) if not math.isfinite(value) else "finite"


def drift(old_text: str, new_text: str) -> tuple[dict[str, tuple[float, float]], list[str]]:
    """Per-series (largest absolute, largest relative) change over the
    numeric fields of rows paired in order, and the list of structural
    differences (empty when the two files differ in numbers only)."""
    old_comments, old = _split(old_text)
    new_comments, new = _split(new_text)
    problems = []
    if old_comments != new_comments:
        problems.append(f"comment lines {old_comments} -> {new_comments}")
    if not (old and new):
        missing = " and ".join(side for side, rows in (("OLD", old), ("NEW", new)) if not rows)
        return {}, problems + [f"no header in {missing}"]
    if old[0] != new[0]:
        problems.append(f"header {old[0]} -> {new[0]}")
    header = old[0]
    old_rows = [dict(zip(header, row)) for row in old[1:]]
    new_rows = [dict(zip(header, row)) for row in new[1:]]
    if len(old_rows) != len(new_rows):
        problems.append(f"row count {len(old_rows)} -> {len(new_rows)}")
    elif old_rows != new_rows and sorted(old[1:]) == sorted(new[1:]):
        problems.append("the same rows in a different order")

    changes: dict[str, tuple[float, float]] = {}
    for number, (a, b) in enumerate(zip(old_rows, new_rows), start=1):
        ident_a = tuple(a[k] for k in IDENTITY)
        ident_b = tuple(b[k] for k in IDENTITY)
        if ident_a != ident_b:
            problems.append(f"row {number}: {ident_a} -> {ident_b}")
            continue
        worst_abs, worst_rel = changes.get(a["series"], (0.0, 0.0))
        for name in NUMERIC:
            if _kind(a[name]) != _kind(b[name]):
                problems.append(f"row {number} {a['series']} {name}: {a[name]!r} -> {b[name]!r}")
            elif _kind(a[name]) == "finite":
                x, y = float(a[name]), float(b[name])
                diff = abs(y - x)
                worst_abs = max(worst_abs, diff)
                if diff:
                    worst_rel = max(worst_rel, diff / abs(x) if x else math.inf)
        changes[a["series"]] = (worst_abs, worst_rel)
    return changes, problems


def report(changes: dict[str, tuple[float, float]], problems: list[str]) -> str:
    """The result of `drift` as text: the moved series, then the
    structural differences."""
    moved = {series: c for series, c in changes.items() if c != (0.0, 0.0)}
    lines = [f"{'series':<40} {'max abs':>10} {'max rel':>10}"]
    lines += [f"{series:<40} {a:>10.3g} {r:>10.3g}" for series, (a, r) in moved.items()]
    if not moved:
        lines.append("no numeric drift")
    lines += [f"structural: {problem}" for problem in problems]
    return "\n".join(lines)


def pe_mc_z(old_text: str, new_text: str) -> str:
    """One line per Pe_MC row of NEW whose value differs from the row
    paired with it in OLD: z = (p_hat - Pe) / sqrt(Pe (1 - Pe) / n), Pe
    the value of NEW's Pe row of the same series at the same x.  The
    trial count n is read from the row's own 95% halfwidth,
    n = p_hat (1 - p_hat) (1.96 / ci95)^2; a p_hat of 0 or 1 has no
    halfwidth to read it from and is listed as not checkable.  Empty
    when no Pe_MC value moved."""
    old, new = _split(old_text)[1], _split(new_text)[1]
    if not (old and new):
        return ""
    old_rows = [dict(zip(old[0], row)) for row in old[1:]]
    new_rows = [dict(zip(new[0], row)) for row in new[1:]]
    pe = {(row["series"], row["x_value"]): float(row["value"]) for row in new_rows}
    lines = []
    for a, b in zip(old_rows, new_rows):
        label, x = b["series"], b["x_value"]
        if not label.startswith("Pe_MC(") or a["value"] == b["value"]:
            continue
        p_hat, p = float(b["value"]), pe.get(("Pe" + label[len("Pe_MC"):], x))
        point = f"{label:<40} {float(x):>8g} {p_hat:>10.4g}"
        if p is None:
            lines.append(f"{point}  no Pe row")
        elif p_hat in (0.0, 1.0):
            lines.append(f"{point} {p:>10.4g}  not checkable (Pe_MC at {p_hat:g})")
        else:
            n = round(p_hat * (1.0 - p_hat) * (1.96 / float(b["ci95"])) ** 2)
            z = (p_hat - p) / math.sqrt(p * (1.0 - p) / n)
            lines.append(f"{point} {p:>10.4g} {n:>8d} {z:>7.2f}")
    if not lines:
        return ""
    header = f"{'moved Pe_MC':<40} {'x':>8} {'Pe_MC':>10} {'Pe':>10} {'n':>8} {'z':>7}"
    return "\n".join([header] + lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/csvdrift.py OLD.csv NEW.csv", file=sys.stderr)
        return 2
    old_text, new_text = (Path(path).read_text(encoding="utf-8") for path in argv)
    changes, problems = drift(old_text, new_text)
    print(report(changes, problems))
    z = pe_mc_z(old_text, new_text)
    if z:
        print(z)
    if problems:
        return 2
    return 1 if any(c != (0.0, 0.0) for c in changes.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
