"""Spans and counts around lexiknot's public functions, for the traced run.

Nothing here runs unless a worker is started with tracing on: `install`
replaces the listed functions, in every lexiknot module that holds them,
by wrappers that record a span (name, start, end, parent) or, for the hot
leaves, only a count keyed by the enclosing span.  The untraced run
executes the package unmodified.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

MODULES = {
    "arith": "lexiknot.arith",
    "diagram": "lexiknot.diagram",
    "enumeration": "lexiknot.enumeration",
    "planereduce": "lexiknot.planereduce",
    "report": "lexiknot.report",
    "cli": "lexiknot.cli",
    "curves": "lexiknot.curvelab.curves",
    "poly": "lexiknot.curvelab.poly",
    "height": "lexiknot.curvelab.height",
}

# (layer, attribute path in the module, span name)
SPANS = (
    ("arith", "Catalog.load", "arith.catalog_load"),
    ("enumeration", "m_C", "enumeration.m_C"),
    ("enumeration", "enumerate_simple_diagrams", "enumeration.enumerate_simple_diagrams"),
    ("planereduce", "BaseTable.load", "planereduce.base_table_load"),
    ("planereduce", "degree_verdict", "planereduce.degree_verdict"),
    ("planereduce", "reduction_search", "planereduce.reduction_search"),
    ("planereduce", "constructive_upper", "planereduce.constructive_upper"),
    ("planereduce", "b_lower_bound", "planereduce.b_lower_bound"),
    ("report", "build_table", "report.build_table"),
    ("report", "emit", "report.emit"),
    ("report", "diff_expected", "report.diff_expected"),
    ("cli", "main", "cli.main"),
    ("curves", "curve_crossings", "curves.curve_crossings"),
    ("curves", "word_from_curve", "curves.word_from_curve"),
    ("poly", "sign_at_root", "poly.sign_at_root"),
    ("poly", "sturm_sequence", "poly.sturm_sequence"),
    ("poly", "Polynomial.gcd", "poly.gcd"),
    ("poly", "isolate_real_roots", "poly.isolate_real_roots"),
    ("height", "height_polynomial", "height.height_polynomial"),
    ("height", "crossing_signs", "height.crossing_signs"),
    ("height", "crossing_handedness", "height.crossing_handedness"),
    ("height", "verify_embedding", "height.verify_embedding"),
)

# Hot leaves: called up to millions of times per pass, so counted only.
COUNTS = (
    ("arith", "cf_eval", "arith.cf_eval"),
    ("arith", "fraction_equivalent", "arith.fraction_equivalent"),
    ("diagram", "islets", "diagram.islets"),
    ("poly", "RootInterval.refine", "poly.refine"),
)

# Spans reported as one load time instead of calls and self time.
LOADS = {"arith.catalog_load": "arith.catalog_load_s", "planereduce.base_table_load": "planereduce.base_table_load_s"}

ENUMERATION = ("enumeration.m_C", "enumeration.enumerate_simple_diagrams")


def _z_bits(poly) -> int:
    return max((c.numerator.bit_length() + c.denominator.bit_length() for c in poly.coeffs), default=0)


class Tracer:
    """In-memory spans and counts of one worker process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self._names: list[str] = [None]  # name of the innermost open span
        self.counts: Counter = Counter()  # (leaf, enclosing span name) -> calls
        self.values: Counter = Counter()

    def span(self, name: str, fn, on_result=None):
        spans, open_, names = self.spans, self._open, self._names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, open_[-1] if open_ else -1])
            open_.append(idx)
            names.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                open_.pop()
                names.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, name: str, fn):
        counts, names = self.counts, self._names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name, names[-1]] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self):
        values = self.values

        def diagrams(result):
            values["enumeration.diagrams"] += len(result)

        def crossings(result):
            values["curves.crossings_found"] += len(result)

        def z_bits(result):
            values["height.z_max_bits"] = max(values["height.z_max_bits"], _z_bits(result[0]))

        return {
            "enumeration.enumerate_simple_diagrams": diagrams,
            "curves.curve_crossings": crossings,
            "height.height_polynomial": z_bits,
        }

    def install(self) -> None:
        """Wrap every listed function of the already imported lexiknot modules."""
        hooks = self._hooks()
        for layer, path, name in SPANS:
            _replace(MODULES[layer], path, lambda fn, n=name: self.span(n, fn, hooks.get(n)))
        for layer, path, name in COUNTS:
            _replace(MODULES[layer], path, lambda fn, n=name: self.count(n, fn))

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded, for a pass of wall_s seconds."""
        calls: Counter = Counter()
        selfs: Counter = Counter()
        for span, self_s in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            selfs[span[0]] += self_s
        out: dict[str, float] = {}
        for _, _, name in SPANS:
            if name in LOADS:
                out[LOADS[name]] = covered(self.spans, {name})
            else:
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.self_s"] = selfs[name]
        for _, _, name in COUNTS:
            out[f"{name}.calls"] = sum(n for (leaf, _), n in self.counts.items() if leaf == name)
        diagrams = self.values["enumeration.diagrams"]
        tested = self.counts["arith.fraction_equivalent", "enumeration.enumerate_simple_diagrams"]
        searches = out["planereduce.reduction_search.calls"] + out["planereduce.constructive_upper.calls"]
        out["enumeration.diagrams"] = diagrams
        out["enumeration.kept_ratio"] = diagrams / tested if tested else 0.0
        out["enumeration.kept_ratio.base"] = tested
        out["planereduce.bfs_per_diagram"] = searches / diagrams if diagrams else 0.0
        out["curves.crossings_found"] = self.values["curves.crossings_found"]
        out["height.z_max_bits"] = self.values["height.z_max_bits"]
        out["enumeration.share_of_wall"] = covered(self.spans, set(ENUMERATION)) / wall_s
        out["poly.sign_at_root.share_of_wall"] = covered(self.spans, {"poly.sign_at_root"}) / wall_s
        return out


def _replace(module_name: str, path: str, make) -> None:
    module = sys.modules[module_name]
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))
        return
    original = getattr(module, path)
    wrapper = make(original)
    for name, mod in list(sys.modules.items()):
        if name == "lexiknot" or name.startswith("lexiknot."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        busy = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                busy += c_end - c_start
                reach = c_end
        out.append(end - start - busy)
    return out


def covered(spans, names: set[str]) -> float:
    """Time inside spans named in `names`, counting nested ones once."""
    total = 0.0
    for s in spans:
        if s[0] not in names:
            continue
        parent = s[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += s[2] - s[1]
    return total


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports, in order."""
    out = []
    for _, _, name in SPANS:
        if name in LOADS:
            out.append((LOADS[name], "s"))
        else:
            out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{name}.calls", "count") for _, _, name in COUNTS]
    out += [
        ("enumeration.diagrams", "count"),
        ("enumeration.kept_ratio", "ratio"),
        ("enumeration.kept_ratio.base", "count"),
        ("planereduce.bfs_per_diagram", "ratio"),
        ("curves.crossings_found", "count"),
        ("height.z_max_bits", "bits"),
        ("enumeration.share_of_wall", "ratio"),
        ("poly.sign_at_root.share_of_wall", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return out
