"""Inputs and output checks of the four workloads.

This module runs in the benchmark's own process and never imports
lexiknot: it only generates inputs (from the seed and the reference files)
and judges the outputs the worker sends back.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from knotmath import cf_value, chebyshev_coeffs, same_class, two_bridge_classes

REFERENCE = Path(__file__).resolve().parent / "reference"

# Seconds one pass takes on the reference machine (2-core sandbox, Python
# 3.11).  A run repeats its items in as many whole passes as fit in
# --seconds, so the amount of work is the same on every run.
NOMINAL_PASS_S = {"table": 2.5, "queries": 18.5, "curves": 8.5, "embed": 6.5}
WORKLOADS = tuple(NOMINAL_PASS_S)

TABLE_ARGV = ["table", "--format", "json", "--diff", "src/lexiknot/data/knots.csv"]

# Query strata by crossing number and the Chebyshev b of the class, which
# sets the enumeration budget m_C and with it the cost: "heavy" is b = 14
# (m_C = 13, all ten-crossing), "medium9"/"medium10" are b = 13 (m_C = 12)
# and "light" is b <= 11.  A run draws QUERIES_PER_RUN classes, each stratum
# in proportion to its share of the 69 classes (query_quota), so that seeds
# change the classes but not the mix of costs.
STRATA = ("heavy", "medium9", "medium10", "light")
QUERIES_PER_RUN = 8

CHEBYSHEV_B = (10, 11, 13, 14, 16, 17, 19, 20, 22, 23, 25, 26)
RANDOM_X = [0, -3, 0, 1]  # t^3 - 3t
# Random curves per y-degree: the degree sets their cost, so every run has
# the same number of each degree.
RANDOM_DEGREES = range(5, 13)
RANDOM_PER_DEGREE = 8


def load_reference(name: str):
    return json.loads((REFERENCE / name).read_text())


def passes_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def plan(workload: str, seed: int) -> list[dict]:
    """The items of one run, each pass runs all of them; the same seed
    gives the same items."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table":
        return [{"argv": TABLE_ARGV}]
    if workload == "queries":
        strata = query_strata()
        quota = query_quota(strata, QUERIES_PER_RUN)
        return [{"fraction": f} for name in STRATA for f in rng.sample(strata[name], quota[name])]
    if workload == "curves":
        return _curves(rng)
    if workload == "embed":
        return [{"name": w["name"], "x": w["x"], "y": w["y"]} for w in load_reference("embed.json")]
    raise ValueError(f"unknown workload {workload!r}")


def query_strata() -> dict[str, list[str]]:
    reference = load_reference("queries.json")
    strata: dict[str, list[str]] = {name: [] for name in STRATA}
    for n in (9, 10):
        for alpha, beta in two_bridge_classes(n):
            fraction = f"{alpha}/{beta}"
            b = reference[fraction]["deg_C"][1]
            strata["heavy" if b >= 14 else f"medium{n}" if b == 13 else "light"].append(fraction)
    return strata


def query_quota(strata: dict[str, list[str]], total: int) -> dict[str, int]:
    """Classes to draw from each stratum, `total` in all, in proportion to
    the stratum sizes (largest remainder; ties go to the earlier stratum)."""
    size = sum(len(fs) for fs in strata.values())
    exact = {name: Fraction(total * len(fs), size) for name, fs in strata.items()}
    quota = {name: int(share) for name, share in exact.items()}
    by_remainder = sorted(strata, key=lambda name: quota[name] - exact[name])
    for name in by_remainder[: total - sum(quota.values())]:
        quota[name] += 1
    return quota


def _curves(rng: random.Random) -> list[dict]:
    x3 = chebyshev_coeffs(3)
    items = [{"kind": "chebyshev", "b": b, "x": x3, "y": chebyshev_coeffs(b)} for b in CHEBYSHEV_B]
    pool = load_reference("curves.json")["pool"]
    for d in RANDOM_DEGREES:
        of_degree = [i for i, entry in enumerate(pool) if len(entry["y"]) == d + 1]
        for i in rng.sample(of_degree, RANDOM_PER_DEGREE):
            items.append({"kind": "pool", "index": i, "x": RANDOM_X, "y": pool[i]["y"]})
    return items


# ---------------------------------------------------------------------------
# checks: each returns the list of problems found, empty when the output is right


def check(workload: str, item: dict, out: dict, reference) -> list[str]:
    if "error" in out:
        return [out["error"]]
    return CHECKS[workload](item, out, reference)


def _check_table(item, out, reference) -> list[str]:
    problems = []
    if out["exit"] != 0:
        problems.append(f"exit code {out['exit']}: {out['stderr'].strip()}")
    if out["stdout"] != reference:
        problems.append("JSON differs from the reference table")
    return problems


def _check_query(item, out, reference) -> list[str]:
    a, b = (int(t) for t in item["fraction"].split("/"))
    problems = [f"D{tuple(d)} is not in the class of {a}/{b}" for d in out["diagrams"] if not same_class(cf_value(d), (a, b))]
    if not out["b_lower"] <= out["b_upper"] <= out["deg_C"][1]:
        problems.append(f"b bounds out of order: {out['b_lower']} <= {out['b_upper']} <= {out['deg_C'][1]}")
    if not out["c_lower"] <= out["c_upper"]:
        problems.append(f"c range out of order: {out['c_lower']} > {out['c_upper']}")
    if not out["replay_ok"]:
        problems.append("a reduction trace does not replay to its base")
    ref = reference.get(item["fraction"])
    if ref is not None and ref != {k: out[k] for k in ref}:
        problems.append("verdict differs from the reference")
    return problems


def _check_curve(item, out, reference) -> list[str]:
    problems = []
    letters = sum(out["word"])
    if out["crossings"] != letters:
        problems.append(f"{out['crossings']} crossings but {letters} word letters")
    if item["kind"] == "chebyshev":
        if out["crossings"] != item["b"] - 1:
            problems.append(f"(T3,T{item['b']}) has {out['crossings']} crossings, not {item['b'] - 1}")
        ref = reference["chebyshev"][str(item["b"])]
    else:
        ref = reference["pool"][item["index"]]
    if "mirror_word" in out and out["mirror_word"] != out["word"]:
        problems.append(f"y -> -y changes the word {out['word']} to {out['mirror_word']}")
    if (out["crossings"], out["word"]) != (ref["crossings"], ref["word"]):
        problems.append(f"word {out['word']} differs from the reference {ref['word']}")
    return problems


def _check_embed(item, out, reference) -> list[str]:
    ref = next(w for w in reference if w["name"] == item["name"])
    problems = []
    if out["knot"] != ref["knot"]:
        problems.append(f"{item['name']} identified as {out['knot']}, not {ref['knot']}")
    if out["degrees"] != ref["degrees"]:
        problems.append(f"{item['name']} has degrees {out['degrees']}, not {ref['degrees']}")
    return problems


CHECKS = {"table": _check_table, "queries": _check_query, "curves": _check_curve, "embed": _check_embed}


def reference_for(workload: str):
    """The reference outputs: the exact table text, or parsed JSON."""
    if workload == "table":
        return (REFERENCE / "table.json").read_text()
    return load_reference(f"{workload}.json")


def diagram_mismatch(item: dict, out: dict, reference) -> bool:
    """Whether an embedding's extracted diagram lies outside the class of the
    knot it was identified as (evaluated here, independently of lexiknot)."""
    ref = next(w for w in reference if w["name"] == item["name"])
    return "diagram" not in out or not same_class(cf_value(out["diagram"]), tuple(ref["fraction"]))
