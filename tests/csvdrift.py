"""Numerical drift between two CSV outputs of `macdet`.

    python tests/csvdrift.py OLD.csv NEW.csv

Rows are paired in order.  For each series it prints the largest
absolute and relative change of the numeric fields (x_value, value,
ci95), then every structural difference: a changed row count, row order,
non-numeric field (experiment, series, x_name, seed, the comment line or
the header), or NaN/inf pattern.  Exit status 0 means no drift at all, 1
numeric drift only, 2 a structural difference.
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


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/csvdrift.py OLD.csv NEW.csv", file=sys.stderr)
        return 2
    old_text, new_text = (Path(path).read_text(encoding="utf-8") for path in argv)
    changes, problems = drift(old_text, new_text)
    print(report(changes, problems))
    if problems:
        return 2
    return 1 if any(c != (0.0, 0.0) for c in changes.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
