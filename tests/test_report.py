import csv
import json

import pytest

from lexiknot.report import build_table, diff_expected, emit, load_expected


@pytest.fixture(scope="module")
def small_rows():
    return build_table(["3_1", "6_2", "7_6"])


class TestBuildTable:
    def test_3_1_row(self, small_rows):
        row = small_rows[0]
        assert row.name == "3_1"
        assert (row.b, row.c_lo, row.c_hi) == (4, 5, 5)
        assert not row.starred

    def test_6_2_starred(self, small_rows):
        row = small_rows[1]
        assert row.lex_text == "**(3,7,11)"

    def test_7_6_starred(self, small_rows):
        assert small_rows[2].lex_text == "**(3,8,13)"

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
        md = emit(small_rows, "md")
        assert "**(3,7,11)" in md

    def test_unknown_format(self, small_rows):
        with pytest.raises(ValueError):
            emit(small_rows, "yaml")


class TestDiff:
    def test_matches_shipped_catalog(self, small_rows, tmp_path):
        from importlib import resources

        shipped = resources.files("lexiknot.data").joinpath("knots.csv").read_text()
        path = tmp_path / "knots.csv"
        path.write_text(shipped)
        diff = diff_expected(small_rows, load_expected(str(path)))
        assert diff.ok

    def test_tampered_value_flagged(self, small_rows, tmp_path):
        from importlib import resources

        shipped = resources.files("lexiknot.data").joinpath("knots.csv").read_text()
        rows = list(csv.DictReader(shipped.splitlines()))
        for row in rows:
            if row["name"] == "6_2":
                row["lex_b"] = "8"
        path = tmp_path / "knots.csv"
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=rows[0].keys())
            w.writeheader()
            w.writerows(rows)
        diff = diff_expected(small_rows, load_expected(str(path)))
        assert not diff.ok
        assert any("6_2.lex_b" in m for m in diff.mismatches)

    def test_missing_row_flagged(self, small_rows, tmp_path):
        path = tmp_path / "knots.csv"
        path.write_text("name,alpha,beta,N,degC_b,degC_c,lex_b,lex_c_lo,lex_c_hi\n")
        diff = diff_expected(small_rows, load_expected(str(path)))
        assert len(diff.mismatches) == 3

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
