import json

import pytest

import run
import workloads
from knotmath import cf_value, chebyshev_coeffs, same_class, two_bridge_classes


def test_class_counts_match_the_knot_tables():
    assert [len(two_bridge_classes(n)) for n in range(3, 11)] == [1, 1, 2, 3, 7, 12, 24, 45]


def test_independent_arithmetic():
    assert cf_value([2, 1, 3]) == (11, 4)
    assert same_class((11, 4), (11, 3))  # beta^-1 = 3 mod 11
    assert same_class((11, -3), (11, 3))  # mirror image
    assert not same_class((13, 2), (13, 5))
    assert same_class(cf_value([2, 1, -2, 1]), (1, 0))
    assert chebyshev_coeffs(3) == [0, -3, 0, 4]


@pytest.mark.parametrize("workload", ["queries", "curves"])
def test_seed_draws_the_inputs(workload):
    a = workloads.plan(workload, 7)
    assert a == workloads.plan(workload, 7)
    assert a != workloads.plan(workload, 8)
    json.dumps(a)  # the worker receives plain data only


@pytest.mark.parametrize("workload", ["table", "embed"])
def test_fixed_inputs_ignore_the_seed(workload):
    assert workloads.plan(workload, 7) == workloads.plan(workload, 8)


def test_queries_keep_the_stratum_mix():
    strata = workloads.query_strata()
    sizes = {name: len(fs) for name, fs in strata.items()}
    assert sizes == {"heavy": 28, "medium9": 19, "medium10": 16, "light": 6}
    quota = workloads.query_quota(strata, workloads.QUERIES_PER_RUN)
    assert quota == {"heavy": 3, "medium9": 2, "medium10": 2, "light": 1}
    for name, n in quota.items():  # within one item of the population share
        assert abs(n - workloads.QUERIES_PER_RUN * sizes[name] / 69) < 1
    assert workloads.query_quota(strata, 69) == sizes
    of = {f: s for s, fs in strata.items() for f in fs}
    for seed in range(5):
        drawn = [of[item["fraction"]] for item in workloads.plan("queries", seed)]
        assert {name: drawn.count(name) for name in quota} == quota


def test_curves_keep_the_degree_mix():
    items = workloads.plan("curves", 3)
    assert [i["b"] for i in items if i["kind"] == "chebyshev"] == list(workloads.CHEBYSHEV_B)
    degrees = sorted(len(i["y"]) - 1 for i in items if i["kind"] == "pool")
    assert degrees == sorted(list(workloads.RANDOM_DEGREES) * workloads.RANDOM_PER_DEGREE)


def test_corrupted_reference_row_fails_the_table():
    items = workloads.plan("table", 1)
    *_, result = run.spawn("table", items)
    reference = workloads.reference_for("table")
    assert run.judge("table", items, result, reference, []) == (0, 0)
    corrupted = reference.replace('"name": "6_2"', '"name": "6_2x"', 1)
    assert corrupted != reference
    problems = []
    assert run.judge("table", items, result, corrupted, problems) == (1, 0)
    assert problems


def test_query_checks():
    reference = workloads.reference_for("queries")
    fraction, ref = next(iter(reference.items()))
    item = {"fraction": fraction}
    good = dict(ref, replay_ok=True)
    assert workloads.check("queries", item, good, reference) == []
    assert workloads.check("queries", item, dict(good, diagrams=[[1, 1]]), reference)
    assert workloads.check("queries", item, dict(good, b_lower=good["b_upper"] + 1), reference)
    assert workloads.check("queries", item, dict(good, replay_ok=False), reference)
    wrong_row = dict(reference, **{fraction: dict(ref, c_upper=ref["c_upper"] + 3)})
    assert workloads.check("queries", item, good, wrong_row)


def test_curve_checks():
    reference = workloads.reference_for("curves")
    item = next(i for i in workloads.plan("curves", 1) if i["kind"] == "chebyshev")
    ref = reference["chebyshev"][str(item["b"])]
    good = {"crossings": ref["crossings"], "word": ref["word"], "mirror_word": ref["word"]}
    assert workloads.check("curves", item, good, reference) == []
    assert workloads.check("curves", item, dict(good, crossings=ref["crossings"] + 1), reference)
    assert workloads.check("curves", item, dict(good, mirror_word=[1]), reference)
    assert workloads.check("curves", item, {"error": "NonNodalError: x"}, reference)


def test_embed_mismatch_is_counted_apart_from_failures():
    reference = workloads.reference_for("embed")
    item = workloads.plan("embed", 1)[2]  # the 6_2 witness
    ref = next(w for w in reference if w["name"] == item["name"])
    out = {"knot": ref["knot"], "degrees": ref["degrees"], "diagram": [2, 1, -2, 1]}  # evaluates to 1/0
    assert workloads.check("embed", item, out, reference) == []
    assert workloads.diagram_mismatch(item, out, reference)
    assert not workloads.diagram_mismatch(item, dict(out, diagram=[2, 1, 3]), reference)


@pytest.mark.parametrize("slots, probes", [(8, 16), (152, 16), (15, 16), (1, 16), (20, 0)])
def test_setup_probes_are_spread_over_the_items(slots, probes):
    counts = run.probe_counts(slots, probes)
    assert len(counts) == slots and sum(counts) == probes
    assert max(counts) - min(counts) <= 1
    if slots > probes:  # never two probes together
        assert max(counts) <= 1
