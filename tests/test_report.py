import csv
import json
from importlib import resources

import pytest

from lexiknot import planereduce
from lexiknot.report import build_table, diff_expected, emit, load_expected

SHIPPED = resources.files("lexiknot.data").joinpath("knots.csv")


@pytest.fixture(scope="module")
def small_rows():
    return build_table(["3_1", "6_2", "7_6"])


class TestBuildTable:
    def test_3_1_row(self, small_rows):
        row = small_rows[0]
        assert row.knot.name == "3_1"
        assert (row.b_upper, row.c_lower, row.c_upper) == (4, 5, 5)
        assert not row.starred

    def test_6_2_starred(self, small_rows):
        row = small_rows[1]
        assert row.starred and (row.b_upper, row.c_lower, row.c_upper) == (7, 11, 11)

    def test_7_6_starred(self, small_rows):
        row = small_rows[2]
        assert row.starred and (row.b_upper, row.c_lower, row.c_upper) == (8, 13, 13)

    def test_empty(self):
        assert build_table([]) == []

    def test_failed_row_keeps_the_error_type(self, monkeypatch):
        import lexiknot.report
        from lexiknot.enumeration import SearchExhausted

        def exhausted(rec):
            raise SearchExhausted(f"nothing for {rec.name}")

        monkeypatch.setattr(lexiknot.report, "degree_verdict", exhausted)
        (row,) = build_table(["3_1"])
        assert row.status == "failed"
        assert row.error == "SearchExhausted: nothing for 3_1"
        assert row.traceback.startswith("Traceback (most recent call last):")
        assert "in exhausted" in row.traceback
        assert row.traceback.rstrip().endswith("SearchExhausted: nothing for 3_1")
        # nothing was computed, so there are no bounds and no deg_C, and a
        # failed row is never starred
        assert (row.b_lower, row.b_upper, row.c_lower, row.c_upper, row.deg_C) == (None, None, None, None, None)
        assert not row.starred
        assert (row.diagrams, row.traces, row.witness) == ((), (), None)
        # every format prints the missing deg_C and lexicographic degree empty
        assert emit([row], "csv").splitlines()[1] == "3_1,3,1,3,,,,,"
        assert emit([row], "md").splitlines()[2] == "| 3_1 | 3/1 |  |  |  |  |"
        (data,) = json.loads(emit([row], "json"))
        assert data == {
            "name": "3_1",
            "fraction": "3/1",
            "N": 3,
            "deg_C": None,
            "simple_diagrams": [],
            "reductions": [],
            "lex": None,
            "status": "failed",
            "starred": False,
            "error": "SearchExhausted: nothing for 3_1",
        }


class TestEmit:
    def test_csv_header(self, small_rows):
        text = emit(small_rows, "csv")
        assert text.splitlines()[0] == "name,alpha,beta,N,degC_b,degC_c,lex_b,lex_c_lo,lex_c_hi"

    def test_json_6_2(self, small_rows):
        data = json.loads(emit(small_rows, "json"))
        row = next(r for r in data if r["name"] == "6_2")
        assert row["lex"] == {"b": 7, "c": 11}
        assert row["starred"] is True

    def test_markdown_stars(self, small_rows):
        md = emit(small_rows, "md").splitlines()
        assert md[2].endswith("| (3,4,5) |")
        assert md[3].endswith("| **(3,7,11) |")
        assert md[4].endswith("| **(3,8,13) |")

    def test_markdown_c_range(self):
        (row,) = build_table(["8_7"])
        assert not row.starred
        assert emit([row], "md").splitlines()[2].endswith("| (3,10,11/14) |")

    def test_unknown_format(self, small_rows):
        with pytest.raises(ValueError):
            emit(small_rows, "yaml")


class TestDiff:
    def test_matches_shipped_catalog(self, small_rows, tmp_path):
        shipped = SHIPPED.read_text()
        path = tmp_path / "knots.csv"
        path.write_text(shipped)
        assert diff_expected(small_rows, load_expected(str(path))) == []

    def test_tampered_value_flagged(self, small_rows, tmp_path):
        shipped = SHIPPED.read_text()
        rows = list(csv.DictReader(shipped.splitlines()))
        for row in rows:
            if row["name"] == "6_2":
                row["lex_b"] = "8"
        path = tmp_path / "knots.csv"
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=rows[0].keys())
            w.writeheader()
            w.writerows(rows)
        mismatches = diff_expected(small_rows, load_expected(str(path)))
        # the published b is exact, so the lower bound misses it too
        assert mismatches == ["6_2.lex_b: computed 7, expected 8", "6_2.b_lower: computed 7, expected 8"]

    def test_lower_bound_short_of_the_published_b_flagged(self, monkeypatch):
        # without the cited (0,1,3) >= 7, 7_5 keeps b_upper 10 but proves
        # only b >= 8; the reduction graph holds no base fact, so only the
        # memoized base facts are recomputed
        kept = [e for e in planereduce.base_table().entries.values() if e.runs != (0, 1, 3)]
        monkeypatch.setattr(planereduce, "base_table", lambda: planereduce.BaseTable(kept))
        planereduce._base.cache_clear()
        try:
            rows = build_table(["7_5"])
        finally:
            planereduce._base.cache_clear()
        with resources.as_file(SHIPPED) as path:
            mismatches = diff_expected(rows, load_expected(str(path)))
        assert rows[0].status == "range" and mismatches == ["7_5.b_lower: computed 8, expected 10"]

    def test_missing_row_flagged(self, small_rows, tmp_path):
        path = tmp_path / "knots.csv"
        path.write_text("name,alpha,beta,N,degC_b,degC_c,lex_b,lex_c_lo,lex_c_hi\n")
        mismatches = diff_expected(small_rows, load_expected(str(path)))
        assert mismatches == [f"{name}: missing from expected file" for name in ("3_1", "6_2", "7_6")]

    def test_file_without_name_column_rejected(self, tmp_path):
        path = tmp_path / "knots.csv"
        path.write_text("alpha,beta,N,degC_b,degC_c,lex_b,lex_c_lo,lex_c_hi\n3,1,3,4,5,4,5,5\n")
        with pytest.raises(ValueError, match="no name column"):
            load_expected(str(path))

    def test_every_row_is_validated(self, tmp_path):
        # a malformed row is found whichever knots the table will hold
        path = tmp_path / "knots.csv"
        path.write_text("name,alpha,beta,N,degC_b,degC_c,lex_b,lex_c_lo,lex_c_hi\n3_1,3,1,3,4,5,4,5,5\n4_1,5,2,4,5,7,x,7,7\n")
        with pytest.raises(ValueError, match="row 4_1, column lex_b: not an integer: 'x'"):
            load_expected(str(path))
