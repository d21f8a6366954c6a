"""Enumeration of simple trigonal diagrams and Chebyshev degree bounds.

m_C(K) is the minimal length of a diagram D(e_1, ..., e_m) of K with all
e_i = +-1; the knot then has a Chebyshev diagram C(3, b) with b = m_C + 1
and a parametrization (T_3, T_b, C) with deg C + b = 3N.

m_C and the simple diagrams come from one search that expands the knot's
fraction into the integer sequences of its class (mirror images included)
instead of testing candidates.  The simple diagrams are the islet-free
sequences that survive boundary conditions that slide isotopies remove:

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
from math import ceil, gcd
from typing import Iterator, Optional

from .arith import KnotRecord, SchubertFraction, fraction_equivalent
from .diagram import TrigonalDiagram, crossing_number


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
    """Minimal length of a +-1 continued fraction hitting k's class (mirror
    included): the first budget m with a class sequence of m entries, all +-1."""
    if cap is None:
        cap = default_cap(k.crossing_number)
    for m in range(1, cap + 1):
        if any(len(s) == m for s in _class_sequences(k.fraction, m)):
            return m
    raise SearchExhausted(f"no +-1 representation of {k.name} with length <= {cap}")


def default_cap(n: int) -> int:
    # ceil(3N/2) - 2 covers every catalog knot (the bound needs the ceiling
    # to hold for the trefoil, where m_C = 3).
    return max(n, ceil(3 * n / 2) - 2)


def chebyshev_degree(k: KnotRecord, m: int) -> DegreeTriple:
    """Upper bound (3, b, 3N - b) from the Chebyshev diagram C(3, b), given m = m_C(k)."""
    b = m + 1
    while gcd(3, b) != 1:
        b += 1
    return DegreeTriple(3, b, 3 * k.crossing_number - b)


def _passes_simple_filter(entries: tuple[int, ...]) -> bool:
    k = len(entries)
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


def _slide_normal(entries: tuple[int, ...]) -> bool:
    """The bare slide-normal shape: every |m_i| = 1 with i >= 2 has m_{i-1} m_i > 0.

    An islet's |m_i| = 1 has an opposite-signed left neighbor, so no
    islet passes, and class sequences have no zero entries to reject.
    """
    return all(abs(m) != 1 or prev * m > 0 for prev, m in zip(entries, entries[1:]))


def _class_sequences(f: SchubertFraction, budget: int) -> Iterator[tuple[int, ...]]:
    """Every nonzero sequence with sum |m_i| <= budget whose continued
    fraction lies in f's class (mirror included), each exactly once.

    If the tail has continuant pair (p', q'), (m, *tail) has (m p' + q', p'):
    the tails of the sequences with pair +-(p, q) have pair +-(q, p - m q).
    Sum |m_i| = s bounds |continuant| by Fibonacci F_{s+1}, reached by all ones.
    """
    if budget <= 0:
        return
    fib = [0, 1]
    while len(fib) <= budget + 1:
        fib.append(fib[-1] + fib[-2])

    def expand(p: int, q: int, left: int) -> Iterator[tuple[int, ...]]:
        """The sequences with pair +-(p, q) and sum |m_i| <= left."""
        if abs(q) == 1 and 0 < abs(p) <= left:
            yield (p * q,)
        for a in range(1, left):
            if abs(q) > fib[left - a + 1]:
                break
            for m in (a, -a):
                yield from ((m,) + tail for tail in expand(q, p - m * q, left - a))

    # a tail of budget - 1 has |q| <= F_budget; continuants are coprime and
    # p = alpha > 0 fixes the sign, so each sequence has exactly one q
    for q in range(-fib[budget], fib[budget] + 1):
        if fraction_equivalent(SchubertFraction.make(f.alpha, q), f, include_mirror=True):
            yield from expand(f.alpha, q, budget)


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
    keep = _slide_normal if strict else _passes_simple_filter
    found = {
        canonical_diagram(TrigonalDiagram(e)).entries
        for e in _class_sequences(k.fraction, budget)
        if keep(e)
    }
    return [TrigonalDiagram(e) for e in sorted(found, key=lambda e: (len(e), e))]


# The published results list one simple diagram of 8_13 (29/8) with ten
# crossings, one above its minimal +-1 length; every other row fits in m_C.
_BUDGET_FLOOR = {(29, 8): 10}


def table_budget(k: KnotRecord, m: int) -> int:
    """Crossing budget that reproduces the published simple-diagram sets, given m = m_C(k)."""
    key = (k.fraction.alpha, k.fraction.beta)
    return max(m, _BUDGET_FLOOR.get(key, 0))


def diagram_summary(d: TrigonalDiagram) -> dict:
    return {
        "entries": list(d.entries),
        "sigma": d.sign_changes,
        "N": crossing_number(d),
        "sum_abs": d.sum_abs,
    }
