import json

import pytest

from lexiknot.cli import main


def test_mc(capsys):
    assert main(["mc", "--fraction", "5/2"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_enumerate(capsys):
    assert main(["enumerate", "--fraction", "11/3", "--budget", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert sorted(lines) == ["2,1,3", "3,-4"]


def test_enumerate_json(capsys):
    assert main(["enumerate", "--fraction", "21/8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["N"] == 7
    assert payload[0]["sum_abs"] == 7
    assert payload[0]["sigma"] == 0


def test_reduce(capsys):
    assert main(["reduce", "--word", "2,1,3"]) == 0
    out = capsys.readouterr().out
    assert "base (3) cost 3" in out
    assert "b >= 7" in out


def test_reduce_json(capsys):
    assert main(["reduce", "--word", "3,1,3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["base"] == [1] and payload["cost"] == 6 and payload["b_lower"] == 8


def test_reduce_json_steps_are_kind_and_position(capsys):
    # the boundary R at the left end of the canonical word (2,1,2,4)
    assert main(["reduce", "--word", "2,1,2,4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["steps"] == [["Rb", 0]] and payload["base"] == [2, 4]


def test_curve_with_height(capsys):
    assert main(["curve", "--x", "cheb:3", "--y", "cheb:4", "--z", "cheb:5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["crossings"] == 3
    assert payload["knot"] == "3_1"


def test_curve_off_catalog_knot_reports_its_fraction(capsys):
    # on (T3,T11), this over-choice (earlier parameter over, per crossing
    # in x-order) gives 37/8, a two-bridge knot beyond the catalog, named
    # by its class key, 37/8 itself
    from lexiknot.curvelab import PlaneCurve, chebyshev, curve_crossings, height_polynomial

    cs = curve_crossings(PlaneCurve(chebyshev(3), chebyshev(11)))
    z, _ = height_polynomial(cs, [c == "1" for c in "1000110110"])
    assert z.degree == 16
    argv = ["curve", "--x", "cheb:3", "--y", "cheb:11", "--z", "coeffs:" + ",".join(map(str, z.coeffs))]
    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["diagram"], payload["fraction"], payload["knot"]) == ("-1,-1,-1,1,1,1,1,1,1,1", "37/8", "37/8")
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "diagram -1,-1,-1,1,1,1,1,1,1,1 = 37/8 -> 37/8"


def test_curve_unknot_is_null_in_json_and_named_in_text(capsys):
    # on (T3,T4), z = -t puts the earlier parameter over at every crossing: D(1,-1,1) = 1/0
    argv = ["curve", "--x", "cheb:3", "--y", "cheb:4", "--z", "coeffs:0,-1"]
    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["fraction"], payload["knot"]) == ("1/0", None)
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "diagram 1,-1,1 = 1/0 -> unknot"


def test_curve_rational_coeffs(capsys):
    assert main(["curve", "--x", "coeffs:0,-3,0,1", "--y", "coeffs:-2,-2,-2,0,1"]) == 0
    out = capsys.readouterr().out
    assert "2 crossings" in out


def test_curve_non_nodal_exit(capsys):
    # y = x makes y a function of x: the symmetric system degenerates
    assert main(["curve", "--x", "cheb:3", "--y", "cheb:3"]) == 2


def test_curve_without_crossings_exit(capsys):
    assert main(["curve", "--x", "cheb:3", "--y", "coeffs:2,2,2,0,-1", "--z", "cheb:5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("EmbeddingError: ") and "unknot" in captured.err


def test_curve_svg(tmp_path, capsys):
    out = tmp_path / "trefoil.svg"
    assert main(["curve", "--x", "cheb:3", "--y", "cheb:4", "--svg", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg") and "path" in text


def test_table_diff_ok(capsys, tmp_path):
    from importlib import resources

    shipped = resources.files("lexiknot.data").joinpath("knots.csv").read_text()
    path = tmp_path / "knots.csv"
    path.write_text(shipped)
    assert main(["table", "--knots", "3_1,4_1", "--format", "csv", "--diff", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("3_1,3,1,3,4,5,4,5,5")


def test_table_diff_mismatch_exit(capsys, tmp_path):
    path = tmp_path / "knots.csv"
    path.write_text(
        "name,alpha,beta,N,degC_b,degC_c,lex_b,lex_c_lo,lex_c_hi\n3_1,3,1,3,4,5,9,5,5\n"
    )
    assert main(["table", "--knots", "3_1", "--format", "csv", "--diff", str(path)]) == 1


@pytest.mark.parametrize(
    "text, problem",
    [
        ("name,alpha,N,degC_b,degC_c,lex_b,lex_c_lo,lex_c_hi\n3_1,3,3,4,5,4,5,5\n", "column beta: missing"),
        (
            "name,alpha,beta,N,degC_b,degC_c,lex_b,lex_c_lo,lex_c_hi\n3_1,3,1,3,4,5,four,5,5\n",
            "column lex_b: not an integer: 'four'",
        ),
    ],
)
def test_table_malformed_diff_file_is_a_usage_error(text, problem, tmp_path, capsys):
    path = tmp_path / "knots.csv"
    path.write_text(text)
    assert main(["table", "--knots", "3_1", "--format", "csv", "--diff", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"lexiknot table: error: argument --diff: {path}: row 3_1, {problem}\n"


def test_table_empty_diff_file_is_a_usage_error(tmp_path, capsys):
    # an empty file has no header, and it is found missing while the file is open
    path = tmp_path / "knots.csv"
    path.write_text("")
    assert main(["table", "--knots", "3_1", "--diff", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lexiknot table: error: argument --diff: {path}: no name column\n"


def test_table_diff_file_that_is_not_utf8_is_a_usage_error_naming_it(tmp_path, capsys):
    # byte 0xff starts no UTF-8 sequence; the decoding error surfaces
    # while the rows are read, and must name the file like a CSV error
    path = tmp_path / "knots.csv"
    path.write_bytes(b"name,alpha\n\xff,3\n")
    assert main(["table", "--knots", "3_1", "--diff", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"lexiknot table: error: argument --diff: cannot parse {path}: "
        "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte\n"
    )


def test_table_diff_file_listing_a_knot_twice_is_a_usage_error(tmp_path, capsys):
    # a wrong 3_1 row followed by the true one: neither row may be dropped
    path = tmp_path / "knots.csv"
    path.write_text(
        "name,alpha,beta,N,degC_b,degC_c,lex_b,lex_c_lo,lex_c_hi\n3_1,3,1,3,4,5,7,8,8\n3_1,3,1,3,4,5,4,5,5\n"
    )
    assert main(["table", "--knots", "3_1", "--diff", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lexiknot table: error: argument --diff: {path}: knot 3_1 is listed twice\n"


def test_table_malformed_diff_file_is_read_before_the_table(monkeypatch, tmp_path, capsys):
    import lexiknot.cli

    def unreachable(*args, **kwargs):
        raise AssertionError("build_table ran before --diff was validated")

    monkeypatch.setattr(lexiknot.cli, "build_table", unreachable)
    path = tmp_path / "knots.csv"
    path.write_text("name,alpha,beta,N,degC_b,degC_c,lex_b,lex_c_lo,lex_c_hi\n3_1,3,1,3,4,5,four,5,5\n")
    assert main(["table", "--diff", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lexiknot table: error: argument --diff: {path}: row 3_1, column lex_b: not an integer: 'four'\n"


def test_unknown_fraction_errors():
    with pytest.raises(SystemExit):
        main(["mc", "--fraction", "4/1"])


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/1", "1/1 is the unknot"),
        ("3/3", "3/3 is the unknot"),
        ("1", "1 is the unknot"),
        ("3/0", "3/0 is the unknot"),
        ("4/2", "4/2 has even numerator: a two-component link"),
    ],
)
@pytest.mark.parametrize("command", ["mc", "enumerate"])
def test_link_or_unknot_fraction_is_a_usage_error_quoting_it_as_typed(command, text, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--fraction", text])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"lexiknot {command}: error: argument --fraction: {message}"


def test_mc_answers_a_knot_beyond_sixteen_crossings(capsys):
    assert main(["mc", "--fraction", "17"]) == 0
    assert capsys.readouterr() == ("24\n", "")


def test_enumerate_refuses_a_knot_beyond_sixteen_crossings_by_its_budget(capsys):
    # 17/1 has 17 crossings; its default budget is its m_C of 24
    assert main(["enumerate", "--fraction", "17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "lexiknot enumerate: error: budgets beyond 16 crossings are out of range\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--x", "coeffs:0,-3,x", "--y", "cheb:4"],
        ["reduce", "--word", "2,a"],
        ["mc", "--fraction", "9/x"],
        ["enumerate", "--fraction", "4/x"],
        ["table", "--knots", "9_9"],
    ],
)
def test_malformed_argument_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith(f"lexiknot {argv[0]}: error: argument {argv[1]}")


@pytest.mark.parametrize(
    "budget, message",
    [("30", "budgets beyond 16 crossings are out of range"), ("3", "budget 3 below crossing number 6")],
)
def test_enumerate_budget_out_of_range_is_a_usage_error(budget, message, capsys):
    assert main(["enumerate", "--fraction", "11/3", "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lexiknot enumerate: error: {message}\n"


def test_table_missing_diff_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["table", "--knots", "3_1", "--diff", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lexiknot table: error: argument --diff: no such file: {missing}\n"


def test_table_repeated_knot_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--knots", "3_1,4_1,3_1", "--format", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "lexiknot table: error: argument --knots: knot(s) named twice: 3_1"


def test_curve_unwritable_svg_is_a_usage_error(tmp_path, capsys):
    for path in (tmp_path / "missing" / "trefoil.svg", tmp_path):
        assert main(["curve", "--x", "cheb:3", "--y", "cheb:4", "--svg", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"lexiknot curve: error: argument --svg: cannot write {path}: ")
        assert captured.err.count("\n") == 1


def test_reduce_explores_once(monkeypatch, capsys):
    import lexiknot.cli
    import lexiknot.planereduce

    calls = []
    search = lexiknot.planereduce.reduction_search

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(lexiknot.cli, "reduction_search", counted)
    monkeypatch.setattr(lexiknot.planereduce, "reduction_search", counted)
    assert main(["reduce", "--word", "2,2,3"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (
        "base (0,1,3) cost 3\nb >= 10  (reduction to (0,1,3) (base table degree at least (3,7)) + 3)\n"
    )


def test_reduce_reads_the_crossing_rule(capsys):
    assert main(["reduce", "--word", "0,3"]) == 0
    assert capsys.readouterr().out == "base (0,3) cost 0\nb >= 4  (crossings+1 past multiples of 3 (4))\n"


def test_table_failed_row_prints_its_traceback_on_stderr(monkeypatch, capsys):
    import lexiknot.report
    from lexiknot.enumeration import SearchExhausted

    def exhausted(rec):
        raise SearchExhausted(f"nothing for {rec.name}")

    monkeypatch.setattr(lexiknot.report, "degree_verdict", exhausted)
    assert main(["table", "--knots", "3_1", "--format", "json"]) == 2
    captured = capsys.readouterr()
    (row,) = json.loads(captured.out)
    assert row["status"] == "failed" and row["error"] == "SearchExhausted: nothing for 3_1"
    assert row["deg_C"] is None
    assert "traceback" not in row and "Traceback" not in captured.out
    lines = captured.err.splitlines()
    assert lines[0] == "3_1: FAILED: SearchExhausted: nothing for 3_1"
    assert lines[1] == "Traceback (most recent call last):"
    assert any("in exhausted" in line for line in lines)
    assert lines[-1] == "lexiknot.enumeration.SearchExhausted: nothing for 3_1"


_POLY = "cheb:N with N >= 0, or coeffs: followed by comma-separated rationals"
_WORD = "a comma-separated word of nonnegative integers such as 2,1,3"
_FRACTION = "A/B (or A) with integers A and B, not both 0"


@pytest.mark.parametrize(
    "argv, option, expected",
    [
        (["curve", "--x", "coeffs:0,-3,x", "--y", "cheb:4"], "--x", _POLY),
        (["curve", "--x", "cheb:3", "--y", "cheb:-1"], "--y", _POLY),
        (["curve", "--x", "cheb:3", "--y", "cheb:4", "--z", "coeffs:1/0"], "--z", _POLY),
        (["reduce", "--word", "2,a"], "--word", _WORD),
        (["reduce", "--word", "2,-1"], "--word", _WORD),
        (["mc", "--fraction", "9/x"], "--fraction", _FRACTION),
        (["enumerate", "--fraction", "0/0"], "--fraction", _FRACTION),
        (["reduce", "--word", "2,,1,3"], "--word", _WORD),
        (["curve", "--x", "coeffs:0,-3,,1", "--y", "cheb:4"], "--x", _POLY),
    ],
)
def test_argument_errors_say_what_was_expected(argv, option, expected, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    bad = argv[argv.index(option) + 1]
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"lexiknot {argv[0]}: error: argument {option}: expected {expected}, got {bad!r}"
    )
