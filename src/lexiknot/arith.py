"""Schubert fraction arithmetic and the two-bridge knot catalog.

A two-bridge link is classified by its Schubert fraction alpha/beta with
alpha >= 0 and gcd(alpha, beta) = 1.  Two fractions denote isotopic links
iff the alphas agree and beta' = beta^(+-1) (mod alpha); allowing in
addition beta' = -beta^(+-1) identifies a knot with its mirror image.
alpha is odd for a knot and even for a two-component link.

Continued fractions [m_1, ..., m_k] = m_1 + 1/(m_2 + 1/(... + 1/m_k)) are
evaluated through the 2x2 integer matrix recurrence, so zero and +-1
entries need no special casing and no division ever happens.

The module's records, `SchubertFraction` and `KnotRecord`, are
NamedTuples: immutable, equal and hashed as their fields.
"""

from __future__ import annotations

import csv
from functools import cache
from math import gcd
from typing import Iterator, NamedTuple, Optional, Sequence


class DegenerateFractionError(ValueError):
    """Raised when an operation needs alpha >= 2 but got an unknot/empty class."""


class SchubertFraction(NamedTuple):
    """A Schubert fraction alpha/beta in canonical form.

    ``alpha >= 0`` and, when ``alpha >= 2``, ``beta`` is reduced into
    ``[1, alpha - 1]``; the canonical residue determines the knot,
    chirality included.
    """

    alpha: int
    beta: int

    @classmethod
    def make(cls, p: int, q: int) -> "SchubertFraction":
        """Normalize the rational p/q (q may be negative or zero for 1/0)."""
        if p == 0 and q == 0:
            raise ValueError("0/0 is not a fraction")
        # carry the sign on q so that alpha stays nonnegative
        p, q = abs(p), q if p >= 0 else -q
        g = gcd(p, abs(q)) or 1
        p //= g
        q //= g
        if p == 0:
            return cls(0, 1)
        if p == 1:
            return cls(1, 0)
        return cls(p, q % p)

    def __str__(self) -> str:
        return f"{self.alpha}/{self.beta}"

    @property
    def is_link(self) -> bool:
        return self.alpha % 2 == 0


def parse_fraction(text: str) -> SchubertFraction:
    """Parse 'A/B' or a bare integer 'A' (meaning A/1)."""
    text = text.strip()
    if "/" in text:
        a, b = text.split("/", 1)
        return SchubertFraction.make(int(a), int(b))
    return SchubertFraction.make(int(text), 1)


def cf_eval_pair(seq: Sequence[int]) -> tuple[int, int]:
    """Raw convergent (p_k, q_k) of [m_1, ..., m_k], unnormalized.

    Uses p_i = m_i p_{i-1} + p_{i-2}, q_i = m_i q_{i-1} + q_{i-2} with
    (p_0, q_0) = (1, 0) and (p_{-1}, q_{-1}) = (0, 1).  Total on any
    nonempty integer sequence, zeros included.
    """
    if not seq:
        raise ValueError("empty continued fraction")
    p_prev, q_prev = 0, 1
    p, q = 1, 0
    for m in seq:
        p, p_prev = m * p + p_prev, p
        q, q_prev = m * q + q_prev, q
    return p, q


def cf_eval(seq: Sequence[int]) -> SchubertFraction:
    """Evaluate the continued fraction [m_1, ..., m_k] to its Schubert fraction."""
    return SchubertFraction.make(*cf_eval_pair(seq))


def cf_expand_positive(f: SchubertFraction) -> tuple[int, ...]:
    """All-positive continued fraction expansion of alpha/beta.

    Euclidean expansion of the canonical representative; the last entry
    is >= 2 whenever the expansion has more than one term, which makes
    the expansion unique.  cf_eval of the result returns f exactly.
    """
    if f.alpha <= 1:
        raise DegenerateFractionError(f"{f} has no positive expansion (alpha <= 1)")
    a, b = f.alpha, f.beta
    if b <= 0 or b >= a:
        raise DegenerateFractionError(f"{f} is not in canonical position 1 <= beta < alpha")
    out: list[int] = []
    while b:
        out.append(a // b)
        a, b = b, a % b
    return tuple(out)


def class_residues(f: SchubertFraction, include_mirror: bool = False) -> set[int]:
    """The residues beta' mod alpha with alpha/beta' equivalent to f, for alpha >= 1.

    They are beta and beta^-1 (mod alpha); with ``include_mirror`` also
    -beta and -beta^-1, which name the mirror image.
    """
    a = f.alpha
    out = {f.beta % a}
    try:
        out.add(pow(f.beta, -1, a))
    except ValueError:  # beta and alpha share a factor: no inverse
        pass
    if include_mirror:
        out |= {-r % a for r in out}
    return out


def fraction_equivalent(
    f1: SchubertFraction, f2: SchubertFraction, include_mirror: bool = False
) -> bool:
    """Two-bridge equivalence: alpha equal and beta' = beta^(+-1) (mod alpha).

    With ``include_mirror`` the classes beta' = -beta^(+-1) are accepted
    as well, identifying mirror images.
    """
    if f1.alpha != f2.alpha:
        return False
    return f1.alpha == 0 or f2.beta % f1.alpha in class_residues(f1, include_mirror)


class KnotRecord(NamedTuple):
    """One two-bridge knot: its name and Schubert fraction, and the
    crossing number of its reduced alternating diagram, the sum of the
    fraction's positive expansion.  Build it with `_knot_record`."""

    name: str
    fraction: SchubertFraction
    crossing_number: int


def _knot_record(name: str, f: SchubertFraction) -> KnotRecord:
    """The record of the knot f, named name, for alpha >= 2."""
    return KnotRecord(name, f, sum(cf_expand_positive(f)))


class Catalog:
    """The two-bridge knots with eight or fewer crossings, by name and
    fraction; the expected-result columns of knots.csv are not read here."""

    def __init__(self, records: Sequence[KnotRecord]):
        self.records = list(records)
        self._by_name = {r.name: r for r in self.records}

    @classmethod
    def load(cls) -> "Catalog":
        from importlib import resources  # only where a table is read: Python 3.12's imports inspect

        text = resources.files("lexiknot.data").joinpath("knots.csv").read_text()
        records = [
            _knot_record(row["name"], SchubertFraction.make(int(row["alpha"]), int(row["beta"])))
            for row in csv.DictReader(text.splitlines())
        ]
        return cls(records)

    def __iter__(self) -> Iterator[KnotRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def get(self, name: str) -> KnotRecord:
        return self._by_name[name]

    def names(self) -> list[str]:
        return [r.name for r in self.records]

    def lookup(self, f: SchubertFraction) -> Optional[KnotRecord]:
        """Find the record equivalent to f, mirror images included."""
        for rec in self.records:
            if fraction_equivalent(rec.fraction, f, include_mirror=True):
                return rec
        return None


@cache
def default_catalog() -> Catalog:
    return Catalog.load()


def catalog_lookup(f: SchubertFraction) -> Optional[KnotRecord]:
    return default_catalog().lookup(f)


def record_for_fraction(f: SchubertFraction) -> KnotRecord:
    """Catalog record for f, or one named by the fraction for an
    off-catalog knot."""
    if f.is_link:
        raise DegenerateFractionError(f"{f} has even numerator: a two-component link")
    if f.alpha <= 1:
        raise DegenerateFractionError(f"{f} is the unknot")
    return catalog_lookup(f) or _knot_record(str(f), f)
