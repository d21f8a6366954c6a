"""The lexiknot benchmark: end-to-end or per-layer metrics of one workload or all four.

    python3 perfbench/run.py [--workload table|queries|curves|embed|all] \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(perfbench/worker.py), one at a time: a closed loop with one client and no
threads.  The outputs of every item are checked; the last line printed is
one JSON object with the keys correct, attempted, failed and metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import stats
import tracing
import workloads
from worker import DONE, READY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# Set-up probes per untraced run, spread evenly over the run's items so
# that they sample the same stretch of time as the passes.
SETUP_PROBES = 16
RUN_TIMEOUT_S = 170

# Reported in the JSON, each with a bound in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class WorkerError(RuntimeError):
    """A worker process did not start or crashed."""


def _alarm(signum, frame):
    raise TimeoutError(f"workload still running after {RUN_TIMEOUT_S} s")


def spawn(workload: str, items=None, trace: bool = False, mirror_check: bool = False, after_item=None, calibrate: bool = True):
    """Run one worker; returns (set-up seconds, the slowness just after the
    set-up, pass result or None for a probe).

    after_item(), if given, is called after each item while the worker waits
    for the next one, so that only one process is busy at a time."""
    cmd = [sys.executable, str(WORKER), workload]
    if items is None:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    if mirror_check:
        cmd.append("--mirror-check")
    if not calibrate:
        cmd.append("--no-calibration")
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline()
        setup_s = perf_counter() - start
        if line.strip() != READY:
            raise WorkerError(f"{workload} worker failed during set-up (exit {proc.wait()})")
        setup_slowness = float(proc.stdout.readline())
        for item in items or ():
            proc.stdin.write(json.dumps(item) + "\n")
            proc.stdin.flush()
            if proc.stdout.readline().strip() != DONE:
                raise WorkerError(f"{workload} worker stopped during an item (exit {proc.wait()})")
            if after_item is not None:
                after_item()
        proc.stdin.close()
        out = proc.stdout.read()
        if proc.wait() != 0:
            raise WorkerError(f"{workload} worker exited with {proc.returncode}")
        return setup_s, setup_slowness, (json.loads(out.splitlines()[-1]) if items is not None else None)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()


def judge(workload: str, items: list, result: dict, reference, report: list) -> tuple[int, int]:
    """(failed, diagram mismatches) among one pass's items; problems go to report."""
    failed = mismatched = 0
    for item, out in zip(items, result["outputs"]):
        problems = workloads.check(workload, item, out, reference)
        if problems:
            failed += 1
            report.append(f"{workload} {json.dumps(item)[:120]}: " + "; ".join(problems))
        if workload == "embed" and workloads.diagram_mismatch(item, out, reference):
            mismatched += 1
    return failed, mismatched


def probe_counts(slots: int, probes: int) -> list[int]:
    """How many set-up probes follow each of `slots` items: `probes` in all,
    spread as evenly as whole numbers allow."""
    return [(i + 1) * probes // slots - i * probes // slots for i in range(slots)]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    items = workloads.plan(workload, seed)
    reference = workloads.reference_for(workload)
    passes = workloads.passes_for(workload, seconds)
    # Traced: untraced and traced passes of the same items, alternating and
    # equal in number; the difference of their medians is the tracing overhead.
    schedule = [False, True] * max(1, passes // 2) if trace else [False] * passes
    probes = iter(probe_counts(len(items) * passes, 0 if trace else SETUP_PROBES))
    setups, results, problems = [], [], []

    def probe():
        for _ in range(next(probes)):
            setups.append(spawn(workload)[:2])

    failed = mismatched = 0
    for i, traced in enumerate(schedule):
        mirror_check = i == 0 and workload == "curves"
        # a traced run compares traced and untraced passes, so neither is calibrated
        setup_s, setup_slowness, result = spawn(workload, items, traced, mirror_check, after_item=None if trace else probe, calibrate=not trace)
        f, m = judge(workload, items, result, reference, problems)
        failed += f
        mismatched += m
        results.append((traced, result))
        if not traced:
            setups.append((setup_s, setup_slowness))

    attempted = len(items) * len(schedule)
    untraced = [r for t, r in results if not t]
    summary = {
        "workload": workload,
        "seed": seed,
        "passes": len(schedule),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "diagram_mismatch": (mismatched, attempted) if workload == "embed" else None,
    }
    if trace:
        traced = [r for t, r in results if t]
        untraced_wall = statistics.median([r["pass_s"] for r in untraced])
        traced_wall = statistics.median([r["pass_s"] for r in traced])
        layers = {name: statistics.median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = untraced_wall
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        summary["metrics"] = {name: (layers[name], unit) for name, unit in tracing.metric_names()}
        return summary
    # Times at the reference speed (speed.py): each pass's and each set-up's
    # by the slowness measured in it or just after it.
    samples = sum(r["speed_samples"] for r in untraced)
    slowness = sum(r["slowness"] * r["speed_samples"] for r in untraced) / samples
    summary["setup_samples"] = len(setups)
    summary["measured"] = {"setup_s": statistics.median(s for s, _ in setups), "wall_s": statistics.median([r["pass_s"] for r in untraced])}
    summary["slowness"] = (slowness, samples)
    values = {
        "setup_s": statistics.median(s / k for s, k in setups),
        "wall_s": statistics.median([r["pass_s"] / r["slowness"] for r in untraced]),
        "peak_rss_mib": max(r["rss_kib"] for r in untraced) / 1024,
    }
    summary["metrics"] = {name: (values[name], unit) for name, unit in END_TO_END}
    # an item's latency is its median over the passes, each a fresh process
    item_s = [statistics.median(times) for times in zip(*([t / r["slowness"] for t in r["item_s"]] for r in untraced))]
    summary["item_p50_s"] = statistics.median(item_s)
    summary["item_tail"] = stats.tail(item_s)
    return summary


def render(summary: dict) -> list[str]:
    """Human-readable lines: every metric by name and unit, failures, notes."""
    lines = [f"# {summary['workload']} seed={summary['seed']} passes={summary['passes']} items={summary['attempted']}"]
    for name, (value, unit) in summary["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {summary['setup_samples']} fresh interpreters; measured {summary['measured'][name]:.6g} s)"
        elif name == "wall_s":
            note = f"  (median of {summary['passes']} passes; measured {summary['measured'][name]:.6g} s)"
        lines.append(f"{name} = {value:.6g} {unit}{note}")
    if "slowness" in summary:
        slowness, samples = summary["slowness"]
        lines.append(f"slowness = {slowness:.4g}  (mean calibration kernel time / reference, {samples} samples; times above are at the reference speed)")
    if "item_tail" in summary:
        tail_s, pct, n = summary["item_tail"]
        lines.append(f"item_p50_s = {summary['item_p50_s']:.6g} s  (n={n} items, each the median of {summary['passes']} passes)")
        fallback = ", fewer than 20 items: maximum" if pct == 100 else ""
        lines.append(f"item_tail_s = {tail_s:.6g} s  (p{pct:g}, n={n}{fallback})")
    lines.append(f"failed_frac = {summary['failed']}/{summary['attempted']} = {summary['failed'] / summary['attempted']:.6g}")
    if summary["diagram_mismatch"] is not None:
        m, n = summary["diagram_mismatch"]
        lines.append(f"diagram_mismatch_frac = {m}/{n} = {m / n:.6g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lexiknot benchmark")
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lexiknot" / "__init__.py").is_file():
        print(f"no lexiknot sources under {ROOT / 'src'}: run from a checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    signal.signal(signal.SIGALRM, _alarm)
    for name in names:
        signal.alarm(RUN_TIMEOUT_S)
        try:
            summary = run(name, args.seed, args.seconds, bool(args.trace))
        except (WorkerError, TimeoutError) as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 1
        finally:
            signal.alarm(0)
        for problem in summary["problems"][:20]:
            print(f"FAILED {problem}", file=sys.stderr)
        print("\n".join(render(summary)), flush=True)
        summaries.append(summary)
    # one workload: metrics by name; all of them: prefixed by the workload
    prefix = len(names) > 1
    result = {
        "correct": all(s["failed"] == 0 for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {
            (f"{s['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
            for s in summaries
            for name, (value, unit) in s["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
