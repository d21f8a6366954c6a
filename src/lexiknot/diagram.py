"""Signed trigonal diagrams D(m_1, ..., m_k).

The integer m_i counts the twists of the i-th region of Conway's open
form, signs following the alternating convention (for odd i the right
twist is positive, for even i it is negative).  The continued fraction
[m_1, ..., m_k] is the Schubert fraction of the plat closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .arith import (
    KnotRecord,
    SchubertFraction,
    catalog_lookup,
    cf_eval,
    cf_expand_positive,
    fraction_equivalent,
)


class IsletError(ValueError):
    """Raised when a crossing-count formula is applied to a diagram with islets."""


@dataclass(frozen=True)
class TrigonalDiagram:
    entries: tuple[int, ...]

    def __init__(self, entries: Sequence[int]):
        entries = tuple([int(m) for m in entries])
        if not entries:
            raise ValueError("a trigonal diagram needs at least one region")
        object.__setattr__(self, "entries", entries)

    def __str__(self) -> str:
        return "D(" + ",".join(str(m) for m in self.entries) + ")"

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def parse(cls, text: str) -> "TrigonalDiagram":
        return cls([int(tok) for tok in text.replace(" ", "").split(",") if tok])

    def text(self) -> str:
        return ",".join(str(m) for m in self.entries)

    def fraction(self) -> SchubertFraction:
        return cf_eval(self.entries)

    def reversed(self) -> "TrigonalDiagram":
        return TrigonalDiagram(self.entries[::-1])

    def negated(self) -> "TrigonalDiagram":
        return TrigonalDiagram(tuple(-m for m in self.entries))

    @property
    def sum_abs(self) -> int:
        return sum(abs(m) for m in self.entries)

    @property
    def sign_changes(self) -> int:
        e = self.entries
        return sum(1 for i in range(1, len(e)) if e[i - 1] * e[i] < 0)


def complexity(d: TrigonalDiagram) -> int:
    """k + sum |m_i|, Conway's complexity of the diagram."""
    return len(d.entries) + d.sum_abs


def islets(d: TrigonalDiagram) -> list[int]:
    """1-based interior indices i with |m_i| = 1 and both neighbors of opposite sign."""
    e = d.entries
    return [
        i + 1
        for i in range(1, len(e) - 1)
        if abs(e[i]) == 1 and e[i - 1] * e[i] < 0 and e[i] * e[i + 1] < 0
    ]


def crossing_number(d: TrigonalDiagram) -> int:
    """N = sum |m_i| - s for an islet-free diagram without zero entries."""
    if any(m == 0 for m in d.entries):
        raise IsletError(f"{d} has zero entries; crossing count undefined")
    if islets(d):
        raise IsletError(f"{d} has islets; the formula sum|m_i| - s does not apply")
    return d.sum_abs - d.sign_changes


def gauss_sign_changes(d: TrigonalDiagram) -> int:
    """Sign changes of the Gauss sequence: 2N + s - 1."""
    n = crossing_number(d)
    return 2 * n + d.sign_changes - 1


def lagrange_step(d: TrigonalDiagram, pos: int, eps: int) -> TrigonalDiagram:
    """One Lagrange isotopy D(x, m, -n, -y) -> D(x, m-eps, eps, n-eps, y).

    ``pos`` is the 1-based index of m; everything after it is read with
    flipped sign.  The Schubert fraction is preserved exactly.
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +-1")
    e = d.entries
    if not 1 <= pos <= len(e) - 1:
        raise ValueError(f"position {pos} does not leave room for the -n entry")
    x = e[: pos - 1]
    m = e[pos - 1]
    n = -e[pos]
    y = tuple(-v for v in e[pos + 1 :])
    return TrigonalDiagram(x + (m - eps, eps, n - eps) + y)


def conway_normal_form(d: TrigonalDiagram) -> tuple[TrigonalDiagram, bool]:
    """All-positive diagram of the same fraction class, plus a mirror flag.

    The flag reports whether the output only matches the input up to
    mirror image; with canonical fractions the match is exact and the
    flag stays False.
    """
    f = d.fraction()
    nf = TrigonalDiagram(cf_expand_positive(f))
    mirrored = not fraction_equivalent(f, nf.fraction(), include_mirror=False)
    return nf, mirrored


def is_simple_candidate(d: TrigonalDiagram, strict: bool = False) -> bool:
    """Necessary conditions for a simple diagram.

    Non-strict: no zero entries and no islet.  Strict additionally asks
    that every |m_i| = 1 with i >= 2 has m_{i-1} m_i > 0, the shape any
    diagram can be slid into.
    """
    e = d.entries
    if any(m == 0 for m in e):
        return False
    if islets(d):
        return False
    if strict:
        for i in range(1, len(e)):
            if abs(e[i]) == 1 and e[i - 1] * e[i] < 0:
                return False
    return True


def identify_knot(d: TrigonalDiagram) -> Optional[KnotRecord]:
    """Catalog record of the diagram's fraction class (mirror inclusive)."""
    return catalog_lookup(d.fraction())
