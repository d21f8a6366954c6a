import json

import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_lists_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.metric_names()
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


def test_without_sources_exits_nonzero_and_prints_no_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", run.HERE / "no-such-checkout")
    assert run.main(["--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
