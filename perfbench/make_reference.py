"""Regenerate the reference outputs under perfbench/reference/.

    python3 perfbench/make_reference.py [table,queries,curves,embed]

The outputs are computed by the package in this checkout, through the same
worker code the benchmark times, so regenerate only when an output is
meant to change, and review the diff.  The queries reference covers all 69
nine- and ten-crossing classes and takes a few minutes.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import worker
from knotmath import chebyshev_coeffs, two_bridge_classes
from workloads import CHEBYSHEV_B, RANDOM_X, REFERENCE, TABLE_ARGV

POOL_SIZE = 400
POOL_SEED = "curves-pool"
EMBED_WITNESSES = (  # name, knot, degrees
    ("T3,T4", "3_1", [3, 4, 5]),
    ("T3,T5", "4_1", [3, 5, 7]),
    ("6_2 witness", "6_2", [3, 7, 11]),
    ("T3,T7", "6_3", None),
    ("T3,T8", "7_7", None),
)


def one(workload: str, item: dict, mirror_check: bool = False) -> dict:
    return worker.run_pass(workload, [item], mirror_check)["outputs"][0]


def _dump(data) -> str:
    """JSON with one list element or dict entry per line, nested one level."""
    if isinstance(data, list):
        return "[\n" + ",\n".join(json.dumps(v, sort_keys=True) for v in data) + "\n]"
    if isinstance(data, dict):
        lines = (f"{json.dumps(k)}: {_dump(v) if isinstance(v, list) else json.dumps(v, sort_keys=True)}" for k, v in data.items())
        return "{\n" + ",\n".join(lines) + "\n}"
    return json.dumps(data)


def write(name: str, data) -> None:
    text = data if isinstance(data, str) else _dump(data) + "\n"
    (REFERENCE / name).write_text(text)
    print(f"wrote {name}", file=sys.stderr)


def table() -> None:
    out = one("table", {"argv": TABLE_ARGV})
    if out.get("exit") != 0:
        raise SystemExit(f"table failed: {out}")
    write("table.json", out["stdout"])


def queries() -> None:
    ref = {}
    for n in (9, 10):
        for alpha, beta in two_bridge_classes(n):
            fraction = f"{alpha}/{beta}"
            out = one("queries", {"fraction": fraction})
            if "error" in out or not out.pop("replay_ok"):
                raise SystemExit(f"query {fraction} failed: {out}")
            ref[fraction] = out
            print(fraction, out["deg_C"], file=sys.stderr)
    write("queries.json", ref)


def _curve(x, y) -> dict:
    return one("curves", {"x": x, "y": y}, mirror_check=True)


def curves() -> None:
    cheb = {}
    for b in CHEBYSHEV_B:
        out = _curve(chebyshev_coeffs(3), chebyshev_coeffs(b))
        if "error" in out or out["crossings"] != b - 1 or out["mirror_word"] != out["word"]:
            raise SystemExit(f"(T3,T{b}) failed: {out}")
        cheb[str(b)] = {"crossings": out["crossings"], "word": out["word"]}
    rng = random.Random(POOL_SEED)
    pool, rejected, seen = [], [], set()
    while len(pool) < POOL_SIZE:
        d = rng.randint(5, 12)
        y = [rng.randint(-9, 9) for _ in range(d)] + [1]
        if tuple(y) in seen:
            continue
        seen.add(tuple(y))
        out = _curve(RANDOM_X, y)
        if out.get("error", "").startswith("NonNodalError"):
            rejected.append({"y": y, "error": out["error"]})
            continue
        if "error" in out or out["mirror_word"] != out["word"]:
            raise SystemExit(f"random curve {y} failed: {out}")
        pool.append({"y": y, "crossings": out["crossings"], "word": out["word"]})
    write("curves.json", {"chebyshev": cheb, "pool": pool, "pool_seed": POOL_SEED, "rejected_non_nodal": rejected})


def _witness_curves():
    lab = worker.lexiknot.curvelab
    t3 = lab.chebyshev(3)
    base = lab.add_triple_point(lab.PlaneCurve(t3, lab.chebyshev(4)), Fraction(-1, 2), Fraction(1))
    six_two = lab.perturb(base, Fraction(1, 1024))
    return {
        "T3,T4": (t3, lab.chebyshev(4)),
        "T3,T5": (t3, lab.chebyshev(5)),
        "6_2 witness": (six_two.x, six_two.y),
        "T3,T7": (t3, lab.chebyshev(7)),
        "T3,T8": (t3, lab.chebyshev(8)),
    }


def embed() -> None:
    curves_by_name = _witness_curves()
    catalog = worker.lexiknot.arith.default_catalog()
    ref = []
    for name, knot, degrees in EMBED_WITNESSES:
        x, y = curves_by_name[name]
        item = {"name": name, "x": [str(c) for c in x.coeffs], "y": [str(c) for c in y.coeffs]}
        out = one("embed", item)
        if out.get("knot") != knot or (degrees and out["degrees"] != degrees):
            raise SystemExit(f"witness {name} failed: {out}")
        fraction = catalog.get(knot).fraction
        ref.append({**item, "knot": knot, "degrees": out["degrees"], "fraction": [fraction.alpha, fraction.beta]})
    write("embed.json", ref)


def main() -> None:
    which = sys.argv[1].split(",") if len(sys.argv) > 1 else ["table", "queries", "curves", "embed"]
    worker._import_package()
    worker._load_tables()
    REFERENCE.mkdir(exist_ok=True)
    for name in which:
        {"table": table, "queries": queries, "curves": curves, "embed": embed}[name]()


if __name__ == "__main__":
    main()
