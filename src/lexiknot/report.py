"""Reproduce the full results table and diff it against expectations."""

from __future__ import annotations

import csv
import io
import json
from operator import attrgetter
from typing import Optional, Sequence

from .arith import default_catalog
from .planereduce import DegreeVerdict, degree_verdict


def build_table(names: Optional[Sequence[str]] = None) -> list[DegreeVerdict]:
    """Run the full pipeline for the requested knots, in catalog order.

    A knot whose computation raises gets a failed row, with no bounds
    and no deg_C."""
    cat = default_catalog()
    wanted = cat.names() if names is None else list(names)
    rows: list[DegreeVerdict] = []
    for name in wanted:
        rec = cat.get(name)
        try:
            rows.append(degree_verdict(rec))
        except Exception as exc:  # row marked failed, others continue
            import traceback  # only on failure: at start-up it and linecache add to every run's peak memory

            error = f"{type(exc).__name__}: {exc}"
            trace = traceback.format_exc()
            rows.append(DegreeVerdict(rec, None, None, None, None, "failed", None, error=error, traceback=trace))
    return rows


# the integer knots.csv columns, in file order, and how a row computes
# each; the deg_C and lex columns are None on a failed row
_COLUMN_VALUES = {
    "alpha": attrgetter("knot.fraction.alpha"),
    "beta": attrgetter("knot.fraction.beta"),
    "N": attrgetter("knot.crossing_number"),
    "degC_b": lambda r: None if r.deg_C is None else r.deg_C.b,
    "degC_c": lambda r: None if r.deg_C is None else r.deg_C.c,
    "lex_b": attrgetter("b_upper"),
    "lex_c_lo": attrgetter("c_lower"),
    "lex_c_hi": attrgetter("c_upper"),
}
COLUMNS = list(_COLUMN_VALUES)
CSV_HEADER = ["name", *COLUMNS]


def _columns(r: DegreeVerdict) -> dict[str, Optional[int]]:
    """The integer knots.csv columns of a row, by name."""
    return {col: value(r) for col, value in _COLUMN_VALUES.items()}


def _lex_text(r: DegreeVerdict) -> str:
    """The Lex. degree cell of the md table: (3,b,c) or (3,b,c_lo/c_hi),
    in bold when starred; empty on a failed row."""
    if r.b_upper is None:
        return ""
    star = "**" if r.starred else ""
    c = r.c_lower if r.c_lower == r.c_upper else f"{r.c_lower}/{r.c_upper}"
    return f"{star}(3,{r.b_upper},{c})"


def _lex_json(r: DegreeVerdict) -> Optional[dict[str, int]]:
    """The lex entry of a JSON row: b and c, or b and c's range; None on
    a failed row."""
    if r.b_upper is None:
        return None
    if r.c_lower == r.c_upper:
        return {"b": r.b_upper, "c": r.c_lower}
    return {"b": r.b_upper, "c_lo": r.c_lower, "c_hi": r.c_upper}


def emit(rows: Sequence[DegreeVerdict], fmt: str = "md") -> str:
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")  # as knots.csv; None writes an empty cell
        w.writerow(CSV_HEADER)
        for r in rows:
            w.writerow([r.knot.name, *_columns(r).values()])
        return buf.getvalue()
    if fmt == "json":
        out = []
        for r in rows:
            out.append(
                {
                    "name": r.knot.name,
                    "fraction": str(r.knot.fraction),
                    "N": r.knot.crossing_number,
                    "deg_C": None if r.deg_C is None else {"a": 3, "b": r.deg_C.b, "c": r.deg_C.c},
                    "simple_diagrams": [d.text() for d in r.diagrams],
                    "reductions": [
                        {
                            "diagram": d.text(),
                            "base": list(t.base.runs),
                            "cost": t.cost,
                            "bound": t.bound,
                        }
                        for d, t in zip(r.diagrams, r.traces)
                    ],
                    "lex": _lex_json(r),
                    "status": r.status,
                    "starred": r.starred,
                    **({"error": r.error} if r.error else {}),
                }
            )
        return json.dumps(out, indent=2)
    if fmt == "md":
        lines = [
            "| K | a/b | deg_C | Simple diagrams | Degree | Lex. degree |",
            "|---|-----|-------|-----------------|--------|-------------|",
        ]
        for r in rows:
            degs = "<br>".join(
                f"deg D({','.join(str(x) for x in t.base.runs)})+{t.cost}" for t in r.traces
            )
            diags = "<br>".join(str(d) for d in r.diagrams)
            deg_C = "" if r.deg_C is None else r.deg_C
            lines.append(f"| {r.knot.name} | {r.knot.fraction} | {deg_C} | {diags} | {degs} | {_lex_text(r)} |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def load_expected(path: str) -> dict[str, dict[str, int]]:
    """The integer columns of a knots.csv-format file, by knot name.

    A file that cannot be read as UTF-8 CSV or has no name column raises
    ValueError naming it; so does a row that lacks a column or holds a
    non-integer cell there, naming the file, the row and the column, and
    a knot listed twice, naming the file and the knot.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            rows = list(reader)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot parse {path}: {exc}") from exc
        if "name" not in (reader.fieldnames or ()):
            raise ValueError(f"{path}: no name column")
    expected = {}
    for row in rows:
        if row["name"] in expected:
            raise ValueError(f"{path}: knot {row['name']} is listed twice")
        values = {}
        for col in COLUMNS:
            cell = row.get(col)
            try:
                values[col] = int(cell)
            except (TypeError, ValueError):
                problem = "missing" if cell is None else f"not an integer: {cell!r}"
                raise ValueError(f"{path}: row {row['name']}, column {col}: {problem}") from None
        expected[row["name"]] = values
    return expected


def diff_expected(rows: Sequence[DegreeVerdict], expected: dict[str, dict[str, int]]) -> list[str]:
    """Per-row, per-column comparison against the values `load_expected`
    read: one mismatch line per difference, none when the tables agree.
    The published lex b is exact, so b_lower is compared with it too."""
    mismatches = []
    for r in rows:
        name = r.knot.name
        exp = expected.get(name)
        if exp is None:
            mismatches.append(f"{name}: missing from expected file")
            continue
        if r.error:
            mismatches.append(f"{name}: computation failed: {r.error}")
            continue
        for col, val in _columns(r).items():
            if exp[col] != val:
                mismatches.append(f"{name}.{col}: computed {val}, expected {exp[col]}")
        if r.b_lower != exp["lex_b"]:
            mismatches.append(f"{name}.b_lower: computed {r.b_lower}, expected {exp['lex_b']}")
    return mismatches
