"""Signed trigonal diagrams D(m_1, ..., m_k).

The integer m_i counts the twists of the i-th region of Conway's open
form, signs following the alternating convention (for odd i the right
twist is positive, for even i it is negative).  The continued fraction
[m_1, ..., m_k] is the Schubert fraction of the plat closure.
"""

from __future__ import annotations

from typing import Sequence

from .arith import SchubertFraction, cf_eval
from .frozen import Frozen


class IsletError(ValueError):
    """Raised when a crossing-count formula is applied to a diagram with islets."""


class TrigonalDiagram(Frozen):
    """D(m_1, ..., m_k) for k >= 1, immutable, equal when the entries are."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[int]):
        entries = tuple([int(m) for m in entries])
        if not entries:
            raise ValueError("a trigonal diagram needs at least one region")
        object.__setattr__(self, "entries", entries)

    def __repr__(self) -> str:
        return f"TrigonalDiagram({self.entries})"

    def __str__(self) -> str:
        return "D(" + ",".join(str(m) for m in self.entries) + ")"

    def __len__(self) -> int:
        return len(self.entries)

    def text(self) -> str:
        return ",".join(str(m) for m in self.entries)

    def fraction(self) -> SchubertFraction:
        return cf_eval(self.entries)

    @property
    def sum_abs(self) -> int:
        return sum(abs(m) for m in self.entries)

    @property
    def sign_changes(self) -> int:
        e = self.entries
        return sum(1 for i in range(1, len(e)) if e[i - 1] * e[i] < 0)


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
