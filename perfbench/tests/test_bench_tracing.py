import pytest

import run
from tracing import Tracer, covered, metric_names, self_times
from workloads import load_reference


def test_self_time_subtracts_nested_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    assert covered(spans, {"b"}) == pytest.approx(5.0)
    assert covered(spans, {"a", "b"}) == pytest.approx(10.0)


def test_recursive_spans_are_covered_once():
    spans = [["f", 0.0, 4.0, -1], ["f", 1.0, 3.0, 0]]
    assert self_times(spans) == pytest.approx([2.0, 2.0])
    assert covered(spans, {"f"}) == pytest.approx(4.0)


def test_wrappers_record_parents_and_leaf_counts():
    tracer = Tracer()
    leaf = tracer.count("leaf", lambda: None)
    inner = tracer.span("inner", lambda: leaf())
    outer = tracer.span("outer", lambda: (inner(), leaf(), inner()))
    outer()
    leaf()
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counts == {("leaf", "inner"): 2, ("leaf", "outer"): 1, ("leaf", None): 1}
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_traced_worker_reports_every_layer_metric():
    witness = load_reference("embed.json")[0]  # (T3, T4) -> 3_1
    item = {"name": witness["name"], "x": witness["x"], "y": witness["y"]}
    *_, result = run.spawn("embed", [item], trace=True)
    layers = result["layers"]
    names = {name for name, _ in metric_names()} - {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
    assert set(layers) == names
    # curves and height import sign_at_root by name: both call sites are wrapped
    assert layers["poly.sign_at_root.calls"] > 0
    assert layers["curves.curve_crossings.calls"] == 2  # the item's and verify_embedding's
    assert layers["curves.crossings_found"] == 6
    assert layers["height.verify_embedding.calls"] == 1
    assert layers["height.crossing_signs.calls"] == 1
    assert layers["poly.refine.calls"] > 0
    assert layers["arith.catalog_load_s"] > 0 and layers["planereduce.base_table_load_s"] > 0
    assert layers["height.z_max_bits"] > 0
