"""Enumeration of simple trigonal diagrams and Chebyshev degree bounds.

m_C(K) is the minimal length of a diagram D(e_1, ..., e_m) of K with all
e_i = +-1; the knot then has a Chebyshev diagram C(3, b) with b = m_C + 1
and a parametrization (T_3, T_b, C) with deg C + b = 3N.

Both come from the knot's fraction, not from testing candidates.  m_C is
read off the Euclid quotients of each residue of the class, one pass
each, with no state and no limit on the knot.  The simple diagrams come
from one generator that expands alpha/beta alone, starting from the
integers q = beta (mod alpha) within the Fibonacci bound, which it
applies to the next two continuants of each prefix; the rest of the
class and its mirror are reversals and negations of these, left to
`_canonical_entries`.  It keeps only islet-free sequences that survive
the boundary conditions that slide isotopies remove, one rule
(`_simple_step`):

* a boundary region of a single twist can be untwisted through the plat
  closure, so |m_1|, |m_k| >= 2;
* a boundary double twist adjacent to an opposite-signed region slides
  off through the closure, so |m_1| = 2 forces m_1 m_2 > 0 (same at the
  other end);
* an interior single twist flanked by an opposite sign on either side
  unwinds (one-sided cousins of islets), so |m_i| = 1 needs both
  m_{i-1} m_i > 0 and m_i m_{i+1} > 0.

Each condition reads two adjacent entries, so the generator cuts a prefix
as soon as it breaks one and never builds a sequence it would drop.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional

from .arith import KnotRecord, SchubertFraction, class_residues
from .diagram import TrigonalDiagram, crossing_number


class SearchExhausted(RuntimeError):
    """A bounded search found nothing."""


class DegreeTriple(NamedTuple("DegreeTriple", [("a", int), ("b", int), ("c", int)])):
    """Degrees (a, b, c) of a polynomial knot, a < b < c with gcd(a, b) = 1."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        self = super().__new__(cls, a, b, c)
        if not (a < b < c):
            raise ValueError(f"degrees must increase: {self}")
        if gcd(a, b) != 1:
            raise ValueError(f"x- and y-degrees must be coprime: {self}")
        return self

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


MAX_CROSSINGS = 16  # the largest enumeration budget, the range its tests and CI check


def m_C(k: KnotRecord) -> int:
    """Minimal length of a +-1 continued fraction hitting k's class (mirror included).

    For a residue r of the class, with r/alpha = [0; a_1, ..., a_n] by
    Euclid's quotients, the shortest +-1 sequence with continued fraction
    alpha/q for some q = r (mod alpha) has length
    sum_{i<n} floor((3 a_i + o_i) / 2) + floor((3 a_n - 1 + o_n) / 2),
    where o_1 = 0 and o_{i+1} = o_i XOR (a_i is even); m_C is the least
    of these over the residues of the class and of its mirror.

    A +-1 sequence is a path in the Farey graph in which every three
    consecutive vertices form a triangle.  Around the i-th convergent it
    crosses a fan of a_i triangles, two triangles for every three steps,
    and o_i records whether it enters that fan with the pivot behind it
    or in front.  The class's freedom in q mod alpha lets the path start
    on any edge at 0.  Each residue costs one pass of Euclid's
    algorithm, so no crossing number is out of range.
    """
    return min(_pm1_length(k.fraction.alpha, r) for r in class_residues(k.fraction, include_mirror=True))


def _pm1_length(alpha: int, r: int) -> int:
    """Length of the shortest +-1 sequence of a fraction alpha/q, q = r (mod alpha), 0 < r < alpha."""
    length, phase, a, b = 0, 0, alpha, r
    while b:
        q, a, b = a // b, b, a % b
        length += (3 * q + phase - (b == 0)) // 2
        phase ^= q % 2 == 0
    return length


def chebyshev_degree(k: KnotRecord, m: int) -> DegreeTriple:
    """Upper bound (3, b, 3N - b) from the Chebyshev diagram C(3, b), b = m + 1, given m = m_C(k).

    b is never a multiple of 3: mod 2 the continuant alpha of a +-1
    sequence of length m is that of all ones, F_{m+1}, and F_{m+1} is odd,
    as alpha is for a knot, exactly when 3 does not divide m + 1.
    """
    b = m + 1
    return DegreeTriple(3, b, 3 * k.crossing_number - b)


def _simple_step(prev: int, m: int, first: bool, last: bool) -> bool:
    """The boundary-aware rule on the adjacent entries prev, m: prev = 0
    when m is the first entry, first when prev is, last when m is.

    A first or last entry has |m| >= 2 unless it is the only one; the
    two neighbours of a +-1 share its sign, and so does the inner
    neighbour of a +-2 at either end.
    """
    if prev == 0:
        return last or abs(m) >= 2
    if last and abs(m) == 1:
        return False
    tied = abs(m) == 1 or abs(prev) == 1 or (first and abs(prev) == 2) or (last and abs(m) == 2)
    return m * prev > 0 or not tied


def _class_sequences(f: SchubertFraction, budget: int) -> list[tuple[int, ...]]:
    """Every nonzero sequence with sum |m_i| <= budget whose continued
    fraction is alpha/beta itself and that passes the simple-diagram
    rule, each once.  Reversing [m_1..m_k] takes beta to (-1)^(k+1)
    beta^-1 and negating it takes beta to -beta, and the rule treats all
    four images alike, so these are the class and its mirror up to
    reversal and negation; a palindromic class (beta^2 = +-1) still
    yields both a sequence and its image, for `_canonical_entries`.

    If the tail has continuant pair (p', q'), (m, *tail) has (m p' + q', p'):
    the tails of the sequences with pair +-(p, q) have pair +-(q, p - m q).
    Sum |m_i| = s bounds |continuant| by Fibonacci F_{s+1}, reached by all
    ones.  An entry m = +-a with sum left still to spend is tried only
    when both continuants it leads to fit: q, that of a tail of sum
    <= left - a, within F_{left-a+1}, and p - m q, that of a tail of sum
    <= left - a - 1, within F_{left-a}; the cut subtrees hold no sequence,
    so the output and its order do not depend on the cut.  The rule is
    local, so a prefix is cut as soon as an entry breaks it.  The pass
    extends one shared prefix list and appends to one output list.
    """
    out: list[tuple[int, ...]] = []
    if budget <= 0:
        return out
    fib = [0, 1]
    while len(fib) <= budget + 1:
        fib.append(fib[-1] + fib[-2])
    prefix: list[int] = []

    def expand(p: int, q: int, left: int, prev: int, first: bool) -> None:
        """Append prefix + each allowed tail after prev with pair +-(p, q) and sum |m_i| <= left."""
        if abs(q) == 1 and 0 < abs(p) <= left and _simple_step(prev, p * q, first, True):
            out.append((*prefix, p * q))
        for a in range(1, left):
            if abs(q) > fib[left - a + 1]:
                break
            for m in (a, -a):
                # p - m q is the continuant of a tail of sum <= left - a - 1
                if abs(p - m * q) <= fib[left - a] and _simple_step(prev, m, first, False):
                    prefix.append(m)
                    expand(q, p - m * q, left - a, m, prev == 0)
                    prefix.pop()

    # a tail of budget - 1 has |q| <= F_budget; continuants are coprime and
    # p = alpha > 0 fixes the sign, so each sequence has exactly one q
    alpha, beta, bound = f.alpha, f.beta, fib[budget]
    for q in range(beta - (beta + bound) // alpha * alpha, bound + 1, alpha):
        expand(alpha, q, budget, 0, False)
    return out


def _canonical_entries(entries: tuple[int, ...]) -> tuple[int, ...]:
    """Least of {entries, reversal, negation, both}, preferring a positive leading entry."""
    images = [entries, entries[::-1]]
    images += [tuple([-m for m in e]) for e in images]
    return min(images, key=lambda e: (e[0] <= 0, e))


def enumerate_simple_diagrams(k: KnotRecord, budget: Optional[int] = None) -> list[TrigonalDiagram]:
    """All simple diagrams of k with at most ``budget`` crossings.

    Deduplicated by reversal and mirror; the default budget is m_C(k).
    """
    if budget is None:
        budget = m_C(k)
    if budget < k.crossing_number:
        raise ValueError(f"budget {budget} below crossing number {k.crossing_number}")
    if budget > MAX_CROSSINGS:
        raise ValueError(f"budgets beyond {MAX_CROSSINGS} crossings are out of range")
    found = {_canonical_entries(e) for e in _class_sequences(k.fraction, budget)}
    return [TrigonalDiagram(e) for e in sorted(found, key=lambda e: (len(e), e))]


# The published results list one simple diagram of 8_13 (29/8) with ten
# crossings, one above its minimal +-1 length; every other row fits in m_C.
# Keyed by class key, so that every fraction of 8_13 gets the floor.
_BUDGET_FLOOR = {SchubertFraction(29, 8): 10}


def table_budget(k: KnotRecord, m: int) -> int:
    """Crossing budget that reproduces the published simple-diagram sets, given m = m_C(k)."""
    return max(m, _BUDGET_FLOOR.get(k.fraction.key, 0))


def diagram_summary(d: TrigonalDiagram) -> dict:
    return {
        "entries": list(d.entries),
        "sigma": d.sign_changes,
        "N": crossing_number(d),
        "sum_abs": d.sum_abs,
    }
