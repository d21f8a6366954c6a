"""One pass of a workload in a fresh interpreter.

Protocol (stdin/stdout, JSON lines):
  1. import lexiknot from the checkout's src/, load the catalog and the
     base table, then print READY, then run the speed kernel a few times
     and print its slowness (speed.py);
  2. read the pass's items from stdin, one JSON line each, and run and time
     each item as it arrives, printing DONE once it has run (the benchmark
     may start a set-up probe then, while this worker waits);
  3. at the end of stdin, summarize the outputs outside the timed section
     and print one JSON line with the timings and summaries.

Run with --setup-only to stop after step 1 (a set-up probe).
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe, setup_slowness

ROOT = Path(__file__).resolve().parent.parent
READY = "READY"
DONE = "DONE"

lexiknot = None  # the package under test, imported from the checkout by main()


def _import_package():
    global lexiknot
    sys.path.insert(0, str(ROOT / "src"))
    import lexiknot.cli
    import lexiknot.curvelab


def _load_tables():
    lexiknot.arith.default_catalog()
    lexiknot.planereduce.base_table()


# Each workload: prepare(item) -> argument built outside the timed section,
# run(argument) -> raw output (timed), summarize(item, argument, raw) -> JSON.


def _table_prepare(item):
    return item["argv"]


def _table_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lexiknot.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _table_summarize(item, argv, raw, mirror_check):
    code, out, err = raw
    return {"exit": code, "stdout": out, "stderr": err}


def _query_prepare(item):
    return item["fraction"]


def _query_run(fraction):
    arith = lexiknot.arith
    return lexiknot.planereduce.degree_verdict(arith.record_for_fraction(arith.parse_fraction(fraction)))


def _query_summarize(item, fraction, rep, mirror_check):
    return {
        "diagrams": [list(d.entries) for d in rep.diagrams],
        "b_lower": rep.b_lower,
        "b_upper": rep.b_upper,
        "c_lower": rep.c_lower,
        "c_upper": rep.c_upper,
        "deg_C": list(rep.deg_C),
        "status": rep.status,
        "replay_ok": all(t.replay().runs == t.base.runs for t in rep.traces),
    }


def _poly(coeffs):
    return lexiknot.curvelab.Polynomial([Fraction(c) for c in coeffs])


def _curve_prepare(item):
    return _poly(item["x"]), _poly(item["y"])


def _curve_run(xy):
    lab = lexiknot.curvelab
    curve = lab.PlaneCurve(*xy)
    cs = lab.curve_crossings(curve)
    return len(cs), lab.word_from_curve(curve, cs)


def _curve_summarize(item, xy, raw, mirror_check):
    crossings, word = raw
    out = {"crossings": crossings, "word": list(word.runs)}
    if mirror_check:
        x, y = xy
        out["mirror_word"] = list(_curve_run((x, -y))[1].runs)
    return out


def _embed_run(xy):
    lab = lexiknot.curvelab
    curve = lab.PlaneCurve(*xy)
    cs = lab.curve_crossings(curve)
    z, _ = lab.height_polynomial(cs, lab.alternating_overpasses(cs))
    d, rec = lab.verify_embedding(curve.x, curve.y, z)
    return curve, z, d, rec


def _embed_summarize(item, xy, raw, mirror_check):
    curve, z, d, rec = raw
    return {
        "knot": rec.name if rec else None,
        "degrees": [curve.x.degree, curve.y.degree, z.degree],
        "diagram": list(d.entries),
    }


WORKLOADS = {
    "table": (_table_prepare, _table_run, _table_summarize),
    "queries": (_query_prepare, _query_run, _query_summarize),
    "curves": (_curve_prepare, _curve_run, _curve_summarize),
    "embed": (_curve_prepare, _embed_run, _embed_summarize),
}


def run_pass(workload: str, items, mirror_check: bool = False, tracer=None, probe=None) -> dict:
    """Run and time the items, any iterable of them; pass_s is the sum of the
    item times, so a pause between items is not counted.

    With a speed probe (speed.SpeedProbe), the calibration kernel's time is
    taken out of each item, and the result also holds the pass's slowness."""
    prepare, run, summarize = WORKLOADS[workload]
    seen, args, raws, errors, item_s = [], [], [], [], []
    if probe is not None:
        probe.start()
    for item in items:
        seen.append(item)
        args.append(prepare(item))
        spent = probe.spent if probe is not None else 0.0
        t0 = perf_counter()
        try:
            raws.append(run(args[-1]))
            errors.append(None)
        except Exception as exc:  # an item that raises is counted as failed
            raws.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        item_s.append(perf_counter() - t0 - ((probe.spent if probe is not None else 0.0) - spent))
    if probe is not None:
        probe.stop()
    pass_s = sum(item_s)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # per-layer metrics of the timed section only, before the checks below
    layers = tracer.metrics(pass_s) if tracer is not None else None
    outputs = []
    for item, arg, raw, error in zip(seen, args, raws, errors):
        if error is None:
            try:
                outputs.append(summarize(item, arg, raw, mirror_check))
            except Exception as exc:
                outputs.append({"error": f"while checking: {type(exc).__name__}: {exc}"})
        else:
            outputs.append({"error": error})
    result = {"pass_s": pass_s, "item_s": item_s, "rss_kib": rss_kib, "outputs": outputs}
    if probe is not None:
        result["slowness"] = probe.slowness()
        result["speed_samples"] = len(probe.samples)
    if layers is not None:
        result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-calibration", action="store_true", help="time the pass without the speed kernel")
    parser.add_argument("--mirror-check", action="store_true", help="curves: also check that y -> -y keeps the word")
    args = parser.parse_args()

    _import_package()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    _load_tables()
    print(READY, flush=True)
    print(repr(setup_slowness()), flush=True)
    if args.setup_only:
        return 0
    # spans would count the calibration kernel as the program's time
    probe = None if args.trace or args.no_calibration else SpeedProbe(args.workload)
    print(json.dumps(run_pass(args.workload, _stdin_items(), args.mirror_check, tracer, probe)), flush=True)
    return 0


def _stdin_items():
    """The items, one JSON line each; DONE acknowledges an item once it has run."""
    for line in sys.stdin:
        yield json.loads(line)
        print(DONE, flush=True)


if __name__ == "__main__":
    raise SystemExit(main())
