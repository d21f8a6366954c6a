"""Enumeration of simple trigonal diagrams and Chebyshev degree bounds.

m_C(K) is the minimal length of a diagram D(e_1, ..., e_m) of K with all
e_i = +-1; the knot then has a Chebyshev diagram C(3, b) with b = m_C + 1
and a parametrization (T_3, T_b, C) with deg C + b = 3N.

Simple diagrams are enumerated as islet-free integer sequences whose
fraction matches the knot (mirror images included), pruned by boundary
conditions that slide isotopies always remove:

* a boundary region of a single twist can be untwisted through the plat
  closure, so |m_1|, |m_k| >= 2;
* a boundary double twist adjacent to an opposite-signed region slides
  off through the closure, so |m_1| = 2 forces m_1 m_2 > 0 (same at the
  other end);
* an interior single twist flanked by an opposite sign on either side
  unwinds (one-sided cousins of islets), so |m_i| = 1 needs both
  m_{i-1} m_i > 0 and m_i m_{i+1} > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import ceil, gcd
from typing import Iterator, Optional

from .arith import KnotRecord, cf_eval, fraction_equivalent
from .diagram import TrigonalDiagram, crossing_number, is_simple_candidate


class SearchExhausted(RuntimeError):
    """A bounded search found nothing within its cap."""


@dataclass(frozen=True)
class DegreeTriple:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if not (self.a < self.b < self.c):
            raise ValueError(f"degrees must increase: {self}")
        if gcd(self.a, self.b) != 1:
            raise ValueError(f"x- and y-degrees must be coprime: {self}")

    def __iter__(self):
        return iter((self.a, self.b, self.c))

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def m_C(k: KnotRecord, cap: Optional[int] = None) -> int:
    """Minimal length of a +-1 continued fraction hitting k's class.

    Exhaustive over the 2^m sign sequences per length; mirror images
    accepted since the lexicographic degree is mirror invariant.
    """
    if cap is None:
        cap = default_cap(k.crossing_number)
    target = k.fraction
    for m in range(1, cap + 1):
        for signs in product((1, -1), repeat=m):
            if fraction_equivalent(cf_eval(signs), target, include_mirror=True):
                return m
    raise SearchExhausted(f"no +-1 representation of {k.name} with length <= {cap}")


def default_cap(n: int) -> int:
    # ceil(3N/2) - 2 covers every catalog knot (the bound needs the ceiling
    # to hold for the trefoil, where m_C = 3).
    return max(n, ceil(3 * n / 2) - 2)


def chebyshev_degree(k: KnotRecord, cap: Optional[int] = None) -> DegreeTriple:
    """Upper bound (3, b, 3N - b) from the Chebyshev diagram C(3, b)."""
    return _chebyshev_triple(k, m_C(k, cap))


def _chebyshev_triple(k: KnotRecord, m: int) -> DegreeTriple:
    b = m + 1
    while gcd(3, b) != 1:
        b += 1
    return DegreeTriple(3, b, 3 * k.crossing_number - b)


def _passes_simple_filter(entries: tuple[int, ...]) -> bool:
    k = len(entries)
    if any(m == 0 for m in entries):
        return False
    if k == 1:
        return True
    if abs(entries[0]) == 1 or abs(entries[-1]) == 1:
        return False
    if abs(entries[0]) == 2 and entries[0] * entries[1] < 0:
        return False
    if abs(entries[-1]) == 2 and entries[-2] * entries[-1] < 0:
        return False
    for i in range(1, k - 1):
        if abs(entries[i]) == 1 and (
            entries[i - 1] * entries[i] < 0 or entries[i] * entries[i + 1] < 0
        ):
            return False
    return True


def _signed_sequences(budget: int) -> Iterator[tuple[int, ...]]:
    """All sequences of nonzero integers with sum |m_i| <= budget."""

    def rec(prefix: tuple[int, ...], left: int) -> Iterator[tuple[int, ...]]:
        if prefix:
            yield prefix
        for a in range(1, left + 1):
            for m in (a, -a):
                yield from rec(prefix + (m,), left - a)

    yield from rec((), budget)


def canonical_diagram(d: TrigonalDiagram) -> TrigonalDiagram:
    """Representative of {d, reversal, mirror, both}: lexicographically
    least entries, preferring a positive leading entry."""
    images = [d.entries, d.entries[::-1]]
    images += [tuple(-m for m in e) for e in images]
    best = min(images, key=lambda e: (0 if e[0] > 0 else 1, e))
    return TrigonalDiagram(best)


def enumerate_simple_diagrams(
    k: KnotRecord,
    budget: Optional[int] = None,
    strict: bool = False,
) -> list[TrigonalDiagram]:
    """All simple diagrams of k with at most ``budget`` crossings.

    Deduplicated by reversal and mirror; the default budget is m_C(k).
    ``strict`` swaps the boundary-aware filter for the bare slide-normal
    shape (|m_i| != 1 or m_{i-1} m_i > 0 for i >= 2), which admits more
    sequences.
    """
    if budget is None:
        budget = m_C(k)
    if budget < k.crossing_number:
        raise ValueError(f"budget {budget} below crossing number {k.crossing_number}")
    if budget > 16:
        raise ValueError("budgets beyond 16 crossings are out of range")
    target = k.fraction
    seen: set[tuple[int, ...]] = set()
    out: list[TrigonalDiagram] = []
    for entries in _signed_sequences(budget):
        # both filters reject islets
        if strict:
            if not is_simple_candidate(TrigonalDiagram(entries), strict=True):
                continue
        elif not _passes_simple_filter(entries):
            continue
        if not fraction_equivalent(cf_eval(entries), target, include_mirror=True):
            continue
        canon = canonical_diagram(TrigonalDiagram(entries))
        if canon.entries not in seen:
            seen.add(canon.entries)
            out.append(canon)
    out.sort(key=lambda d: (len(d.entries), d.entries))
    return out


# The published results list one simple diagram of 8_13 (29/8) with ten
# crossings, one above its minimal +-1 length; every other row fits in m_C.
_BUDGET_FLOOR = {(29, 8): 10}


def table_budget(k: KnotRecord) -> int:
    """Crossing budget that reproduces the published simple-diagram sets."""
    return _table_budget(k, m_C(k))


def _table_budget(k: KnotRecord, m: int) -> int:
    key = (k.fraction.alpha, k.fraction.beta)
    return max(m, _BUDGET_FLOOR.get(key, 0))


def diagram_summary(d: TrigonalDiagram) -> dict:
    return {
        "entries": list(d.entries),
        "sigma": d.sign_changes,
        "N": crossing_number(d),
        "sum_abs": d.sum_abs,
    }
