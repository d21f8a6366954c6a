"""Enumeration of simple trigonal diagrams and Chebyshev degree bounds.

m_C(K) is the minimal length of a diagram D(e_1, ..., e_m) of K with all
e_i = +-1; the knot then has a Chebyshev diagram C(3, b) with b = m_C + 1
and a parametrization (T_3, T_b, C) with deg C + b = 3N.

Both come from the knot's fraction, not from testing candidates.  m_C is
a shortest path over continuant pairs; the breadth-first levels are the
same for every knot, so one record of them per process serves every call
and grows only as deep as a call asks.  The simple diagrams come from one
generator that expands the fraction into the integer sequences of its
class, starting from the integers q = beta^(+-1) (mod alpha) within the
Fibonacci bound, which it applies to the next two continuants of each
prefix.  The mirror image of a sequence is its negation, which the
conditions below treat alike, so the mirror class is left to
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

from math import ceil, gcd
from typing import NamedTuple, Optional

from .arith import KnotRecord, SchubertFraction, class_residues
from .diagram import TrigonalDiagram, crossing_number


class SearchExhausted(RuntimeError):
    """A bounded search found nothing within its cap."""


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


class _PairLevels:
    """The breadth-first levels of the +-1 continuant pairs, shared by
    every m_C call and built only as deep as one has asked.

    Level L holds the pairs +-(p, q), each kept as the one that is
    > (0, 0), that a +-1 sequence of length L reaches and no shorter one
    does; ``index(L)`` maps each p > 0 of level L to the residues q mod p
    of its pairs.  The last level's pairs and every pair reached so far
    are kept to extend the record by one more level.
    """

    def __init__(self):
        self.indexes: list[dict[int, set[int]]] = []
        self.last: set[tuple[int, int]] = set()
        self.seen: set[tuple[int, int]] = set()

    def index(self, length: int) -> dict[int, set[int]]:
        while len(self.indexes) < length:
            if self.indexes:
                # prepending m to a tail with pair (p, q) gives (m p + q, p)
                longer = ((m * p + q, p) for p, q in self.last for m in (1, -1))
                level = {pq if pq > (0, 0) else (-pq[0], -pq[1]) for pq in longer} - self.seen
            else:
                level = {(1, 1), (1, -1)}  # +-(m, 1) for the one-entry sequences (m)
            index: dict[int, set[int]] = {}
            for p, q in level:
                if p:
                    index.setdefault(p, set()).add(q % p)
            self.indexes.append(index)
            self.last = level
            self.seen |= level
        return self.indexes[length - 1]


_PAIR_LEVELS = _PairLevels()


def m_C(k: KnotRecord, cap: Optional[int] = None) -> int:
    """Minimal length of a +-1 continued fraction hitting k's class (mirror included).

    A shortest path over continuant pairs: a sequence starts at a pair
    (alpha, q) of the class, each entry m = +-1 steps +-(p, q) to
    +-(q, p - m q), and the last entry is one pair +-(1, +-1).  The
    breadth-first levels from that end are the same for every knot, so
    one record of them serves every call and is extended only as far as
    a call asks: the pairs first reached at length L are the continuant
    pairs of the +-1 sequences of length L with no shorter one, and m_C
    is the first L <= cap at which one of them lies in the class.
    """
    if cap is None:
        cap = default_cap(k.crossing_number)
    alpha = k.fraction.alpha
    residues = class_residues(k.fraction, include_mirror=True)
    for length in range(1, cap + 1):
        if not residues.isdisjoint(_PAIR_LEVELS.index(length).get(alpha, ())):
            return length
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
    fraction lies in f's class and that passes the simple-diagram rule,
    each once.  The mirror class holds exactly the negations of these,
    and the rule is invariant under negating every entry, so it is not
    expanded.

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
    alpha, bound = f.alpha, fib[budget]
    for r in sorted(class_residues(f)):
        for q in range(r - (r + bound) // alpha * alpha, bound + 1, alpha):
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
    if budget > 16:
        raise ValueError("budgets beyond 16 crossings are out of range")
    found = {_canonical_entries(e) for e in _class_sequences(k.fraction, budget)}
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
