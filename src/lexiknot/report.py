"""Reproduce the full results table and diff it against expectations."""

from __future__ import annotations

import csv
import io
import json
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from .arith import Catalog, KnotRecord, default_catalog
from .diagram import TrigonalDiagram
from .enumeration import DegreeTriple
from .planereduce import DegreeReport, ReductionTrace, degree_verdict


class TableRow(NamedTuple):
    name: str
    record: KnotRecord
    deg_C: DegreeTriple
    simple_diagrams: list[TrigonalDiagram]
    traces: list[ReductionTrace]
    b: int
    c_lo: int
    c_hi: int
    status: str
    starred: bool
    error: Optional[str] = None
    traceback: Optional[str] = None  # the formatted traceback of a failed row

    @classmethod
    def from_report(cls, rep: DegreeReport) -> "TableRow":
        return cls(
            name=rep.knot.name,
            record=rep.knot,
            deg_C=rep.deg_C,
            simple_diagrams=rep.diagrams,
            traces=rep.traces,
            b=rep.b_upper,
            c_lo=rep.c_lower,
            c_hi=rep.c_upper,
            status=rep.status,
            starred=rep.starred,
        )

    @property
    def lex_text(self) -> str:
        star = "**" if self.starred else ""
        if self.c_lo == self.c_hi:
            return f"{star}(3,{self.b},{self.c_lo})"
        return f"{star}(3,{self.b},{self.c_lo}/{self.c_hi})"


def build_table(names: Optional[Sequence[str]] = None, catalog: Optional[Catalog] = None) -> list[TableRow]:
    """Run the full pipeline for the requested knots, in catalog order."""
    cat = catalog or default_catalog()
    wanted = cat.names() if names is None else list(names)
    rows: list[TableRow] = []
    for name in wanted:
        rec = cat.get(name)
        try:
            rows.append(TableRow.from_report(degree_verdict(rec)))
        except Exception as exc:  # row marked failed, others continue
            import traceback  # only on failure: at start-up it and linecache add to every run's peak memory

            rows.append(
                TableRow(
                    name=name,
                    record=rec,
                    deg_C=DegreeTriple(3, rec.degC_b, rec.degC_c),
                    simple_diagrams=[],
                    traces=[],
                    b=0,
                    c_lo=0,
                    c_hi=0,
                    status="failed",
                    starred=False,
                    error=f"{type(exc).__name__}: {exc}",
                    traceback=traceback.format_exc(),
                )
            )
    return rows


# the integer knots.csv columns, in file order, and how a row computes each
_COLUMN_VALUES = {
    "alpha": attrgetter("record.fraction.alpha"),
    "beta": attrgetter("record.fraction.beta"),
    "N": attrgetter("record.crossing_number"),
    "degC_b": attrgetter("deg_C.b"),
    "degC_c": attrgetter("deg_C.c"),
    "lex_b": attrgetter("b"),
    "lex_c_lo": attrgetter("c_lo"),
    "lex_c_hi": attrgetter("c_hi"),
}
COLUMNS = list(_COLUMN_VALUES)
CSV_HEADER = ["name", *COLUMNS]


def _columns(r: TableRow) -> dict[str, int]:
    """The integer knots.csv columns of a computed row, by name."""
    return {col: value(r) for col, value in _COLUMN_VALUES.items()}


def emit(rows: Sequence[TableRow], fmt: str = "md") -> str:
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(CSV_HEADER)
        for r in rows:
            w.writerow([r.name, *_columns(r).values()])
        return buf.getvalue()
    if fmt == "json":
        out = []
        for r in rows:
            out.append(
                {
                    "name": r.name,
                    "fraction": str(r.record.fraction),
                    "N": r.record.crossing_number,
                    "deg_C": {"a": 3, "b": r.deg_C.b, "c": r.deg_C.c},
                    "simple_diagrams": [d.text() for d in r.simple_diagrams],
                    "reductions": [
                        {
                            "diagram": d.text(),
                            "base": list(t.base.runs),
                            "cost": t.cost,
                            "bound": t.bound,
                        }
                        for d, t in zip(r.simple_diagrams, r.traces)
                    ],
                    "lex": {"b": r.b, "c": r.c_lo}
                    if r.c_lo == r.c_hi
                    else {"b": r.b, "c_lo": r.c_lo, "c_hi": r.c_hi},
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
            diags = "<br>".join(str(d) for d in r.simple_diagrams)
            lines.append(
                f"| {r.name} | {r.record.fraction} | (3,{r.deg_C.b},{r.deg_C.c}) "
                f"| {diags} | {degs} | {r.lex_text} |"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


class Diff:
    """The mismatches of a computed table against an expected one."""

    def __init__(self, mismatches: Optional[list[str]] = None):
        self.mismatches = [] if mismatches is None else mismatches

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mismatches == other.mismatches

    @property
    def ok(self) -> bool:
        return not self.mismatches


def load_expected(path: str) -> dict[str, dict[str, int]]:
    """The integer columns of a knots.csv-format file, by knot name.

    A file that cannot be read as CSV or has no name column raises
    ValueError naming it; so does a row that lacks a column or holds a
    non-integer cell there, naming the file, the row and the column.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise ValueError(f"cannot parse {path}: {exc}") from exc
    if "name" not in (reader.fieldnames or ()):
        raise ValueError(f"{path}: no name column")
    expected = {}
    for row in rows:
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


def diff_expected(rows: Sequence[TableRow], expected: dict[str, dict[str, int]]) -> Diff:
    """Per-row, per-column comparison against the values `load_expected` read."""
    diff = Diff()
    for r in rows:
        exp = expected.get(r.name)
        if exp is None:
            diff.mismatches.append(f"{r.name}: missing from expected file")
            continue
        if r.error:
            diff.mismatches.append(f"{r.name}: computation failed: {r.error}")
            continue
        for col, val in _columns(r).items():
            if exp[col] != val:
                diff.mismatches.append(f"{r.name}.{col}: computed {val}, expected {exp[col]}")
    return diff
