"""Plane trigonal words, the reduction R, and lexicographic-degree verdicts.

A plane word records the run lengths of the crossings of an unsigned
trigonal curve, alternating between the two crossing positions.  A
single zero at either end is significant: it marks that the word starts
or ends at the other position (the turning points of the cubic sit on
the other side of the strand they do in the zero-free form).  Interior
zeros and doubled boundary zeros are empty regions and collapse away.
Reflecting the curve vertically swaps the two crossing positions and
both turning-point sides at once, so it fixes every word: the encoding
is already flip-invariant, and reversal is the only residual symmetry.

The reduction R rewrites (u, m+1, 1, n+1, v) -> (u, m, n, v), removing
three crossings; a nodal curve of bidegree (3, d) realizing the left
word exists iff one of bidegree (3, d-3) realizes the right word, so
every R step is worth exactly 3 in the y-degree, in both directions.
A boundary variant (2, a, y) -> (0, a-1, y) applies the same reduction
across the left turning point of the cubic; it is what the degree
accounting of the results table exercises on words without interior
single-crossing runs.

Cost-free identifications between realizable words: reversal (a
parameter sign change preserves degrees) and a small curated list of
whole-word identities read off explicit low-degree curves:
(2,2) ~ (1,1,1,1), (3) ~ (1,1,1), (0,2) ~ (0,1,1), and the merging of
all one-crossing words.  Sub-word use of the curated identities is
unsound (it would collapse word classes with different minimal
degrees), so they apply to whole words only.  Braid exchanges (the two
resolutions of one triple point, which R takes to one word) and
boundary slides never feed a bound, so no move here makes them; the
word-class matcher that does, to compare curve words with diagram
words, is a test oracle in tests/wordclass.py.  Every move rewrites run
tuples, and each is written once.
"""

from __future__ import annotations

import csv
from collections import deque
from functools import cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .arith import KnotRecord
from .diagram import TrigonalDiagram
from .enumeration import (
    DegreeTriple,
    SearchExhausted,
    chebyshev_degree,
    enumerate_simple_diagrams,
    m_C,
    table_budget,
)
from .frozen import Frozen

Runs = tuple[int, ...]
Move = tuple[str, int, int]  # (kind, image index, position)


class MoveError(ValueError):
    """A rewrite was requested at a position where its pattern does not match."""


# ---------------------------------------------------------------------------
# words and normalization


class PlaneWord(Frozen):
    """Run-length word of an unsigned plane trigonal diagram; immutable,
    equal when the runs are."""

    __slots__ = ("runs",)

    def __init__(self, runs: Sequence[int]):
        runs = tuple(int(r) for r in runs)
        if any(r < 0 for r in runs):
            raise ValueError("run lengths are nonnegative")
        object.__setattr__(self, "runs", runs)

    def __repr__(self) -> str:
        return f"PlaneWord({self.runs})"

    def __str__(self) -> str:
        return "(" + ",".join(str(r) for r in self.runs) + ")" if self.runs else "()"

    @classmethod
    def parse(cls, text: str) -> "PlaneWord":
        """Comma-separated run lengths: '2,1,3'; an empty token is an
        error, and the empty text is the empty word."""
        text = text.replace(" ", "")
        return cls([int(t) for t in text.split(",")] if text else [])


def normalize_runs(runs: Runs) -> Runs:
    """Collapse interior zeros and doubled boundary zeros in one pass: a
    zero with a run on its left joins that run to the next one, and a
    word with no crossings is ()."""
    out: list[int] = []
    join = False
    for r in runs:
        if join:
            out[-1] += r
            join = False
        elif r == 0 and out:
            join = True
        else:
            out.append(r)
    if join:
        out.append(0)
    return tuple(out) if any(out) else ()


def word_images(runs: Runs) -> list[Runs]:
    """The degree-preserving images of a word: itself and its reversal."""
    runs = normalize_runs(runs)
    return [runs, runs[::-1]]


def canonical_runs(runs: Runs) -> Runs:
    runs = normalize_runs(runs)
    return min(runs, runs[::-1])  # the two images have one length


def letters_to_runs(letters: Sequence[int], trail0: bool) -> Runs:
    """Run word of a crossing-position sequence.

    The leading zero is structural (present exactly when the first
    crossing sits in the even position); the trailing marker is the
    extra bit a word carries beyond its letters.
    """
    runs: list[int] = []
    prev = None
    for p in letters:
        if p == prev:
            runs[-1] += 1
        else:
            if not runs and p == 1:
                runs.append(0)
            runs.append(1)
            prev = p
    if trail0:
        runs.append(0)
    return normalize_runs(tuple(runs))


def project(d: TrigonalDiagram) -> PlaneWord:
    """Unsigned projection |D|: the absolute values of the entries."""
    return PlaneWord(tuple(abs(m) for m in d.entries))


# ---------------------------------------------------------------------------
# moves


def _moves(runs: Runs) -> dict[tuple[str, int], Runs]:
    """The moves of the degree arithmetic on a word, keyed by kind and
    position, to their targets before normalization, in the order the
    searches take them: the curated identities ("ident", indexed into
    the sorted partner list), R at each window i where runs i, i+1, i+2
    read (>=1, 1, >=1), (.., a, 1, b, ..) -> (.., a-1, b-1, ..), and the
    boundary R ("Rb" at 0), (2, a, y) -> (0, a-1, y) for a >= 1."""
    out = {("ident", pos): tgt for pos, tgt in enumerate(_PARTNERS.get(runs, ()))}
    for i in range(len(runs) - 2):
        if runs[i] >= 1 and runs[i + 1] == 1 and runs[i + 2] >= 1:
            out["R", i] = runs[:i] + (runs[i] - 1, runs[i + 2] - 1) + runs[i + 3 :]
    if len(runs) >= 2 and runs[0] == 2 and runs[1] >= 1:
        out["Rb", 0] = (0, runs[1] - 1) + runs[2:]
    return out


def _move_target(runs: Runs, kind: str, pos: int) -> Runs:
    """The target of one move on a word, before normalization; a
    MoveError where the move does not apply."""
    tgt = _moves(runs).get((kind, pos))
    if tgt is None:
        raise MoveError(f"no {kind} move at position {pos} of {PlaneWord(runs)}")
    return tgt


def inverse_R(w: PlaneWord, split: tuple[int, int], branch: str) -> PlaneWord:
    """Insert three crossings: the two ways a resolved triple point splits.

    ``split = (i, m)`` divides run i into m + n.  Branch A produces
    (u, m+1, 1, n+1, v), branch B produces (u, m, 1, 1, 1, n, v); the
    crossing count rises by exactly 3 either way, and R at the
    insertion point takes both branches to the same word, the original
    with the split run reopened into the adjacent pair (m, n).
    """
    i, m = split
    runs = w.runs
    if not (0 <= i < len(runs)):
        raise MoveError(f"run index {i} out of range for {w}")
    if not (0 <= m <= runs[i]):
        raise MoveError(f"cannot take {m} crossings out of run {runs[i]}")
    n = runs[i] - m
    u, v = runs[:i], runs[i + 1 :]
    if branch == "A":
        return PlaneWord(u + (m + 1, 1, n + 1) + v)
    if branch == "B":
        return PlaneWord(u + (m, 1, 1, 1, n) + v)
    raise MoveError(f"unknown branch {branch!r}")


# whole-word identities between realizable words of equal degree
_IDENTITIES: list[set[Runs]] = [
    {(2, 2), (1, 1, 1, 1)},
    {(3,), (1, 1, 1)},
    {(0, 2), (0, 1, 1)},
    {(1,), (0, 1), (0, 1, 0)},  # all one-crossing words share their minimal curve
]


# each image of a curated word -> its partners, sorted as replay indexes them
# (the groups share no image)
_PARTNERS: dict[Runs, tuple[Runs, ...]] = {
    runs: tuple(sorted(images - {runs}))
    for images in ({img for g in group for img in word_images(g)} for group in _IDENTITIES)
    for runs in images
}


# ---------------------------------------------------------------------------
# base degrees


class BaseEntry(NamedTuple):
    runs: Runs
    b_exact: Optional[int]
    b_lower: int
    source: str


class BaseTable:
    """Known lexicographic data of fully reduced words, keyed by canonical class."""

    def __init__(self, entries: Iterable[BaseEntry]):
        self.entries: dict[Runs, BaseEntry] = {}
        for e in entries:
            key = canonical_runs(e.runs)
            if key in self.entries:
                rows = " and ".join("|".join(map(str, x.runs)) for x in (self.entries[key], e))
                raise ValueError(f"base rows {rows} name one word class {key}")
            self.entries[key] = e

    @classmethod
    def load(cls) -> "BaseTable":
        from importlib import resources  # only where a table is read: Python 3.12's imports inspect

        text = resources.files("lexiknot.data").joinpath("bases.csv").read_text()
        return cls(
            BaseEntry(
                tuple(int(t) for t in row["runs"].split("|") if t != ""),
                int(row["b_exact"]) if row["b_exact"] else None,
                int(row["b_lower"]),
                row["source"],
            )
            for row in csv.DictReader(text.splitlines())
        )

    def lookup(self, runs: Runs) -> Optional[BaseEntry]:
        return self.entries.get(canonical_runs(runs))


@cache
def base_table() -> BaseTable:
    return BaseTable.load()


def _crossing_rule(n: int) -> int:
    # a nodal (3,b) curve has at most b-1 crossings, and b is never a
    # multiple of 3 for a trigonal parametrization
    b = n + 1
    if b % 3 == 0:
        b += 1
    return b


def _two_run_exact(runs: Runs) -> Optional[int]:
    """Exact degree floor((3N-1)/2) of torus and twist words.

    Applies to normalized words of one or two positive runs without
    boundary zeros whose alternating diagram is a knot (odd
    continued-fraction numerator); those are the words with a known
    exact realization.
    """
    if not runs or 0 in runs or len(runs) > 2:
        return None
    if len(runs) == 1:
        alpha = runs[0]
    else:
        alpha = runs[0] * runs[1] + 1
    if alpha % 2 == 0:
        return None
    n = sum(runs)
    return (3 * n - 1) // 2


@cache
def _base(runs: Runs) -> tuple[int, str, Optional[int], int]:
    """What is known of a word without searching, from one table lookup:
    its best lower bound with the rule that fired, its exact degree if a
    realization is known, and its kind, the preference order when traces
    tie (0 for named entries, 1 for the one/two-run family, 2 otherwise).
    Memoized per word; the searches ask only about canonical words."""
    entry = base_table().lookup(runs)
    two = _two_run_exact(runs)
    lower = _crossing_rule(sum(runs))
    prov = f"crossings+1 past multiples of 3 ({lower})"
    if entry is not None and entry.b_lower >= lower:
        lower, prov = entry.b_lower, f"base table {entry.source}"
    if two is not None and two >= lower:
        lower, prov = two, "one/two-run exact degree"
    if entry is not None:
        return lower, prov, two if entry.b_exact is None else entry.b_exact, 0
    return lower, prov, two, 1 if two is not None else 2


# ---------------------------------------------------------------------------
# reduction search


class ReductionTrace(NamedTuple):
    """A replayable chain of moves from a word down to its base, and the
    constructive upper bound read off the same search."""

    source: PlaneWord
    steps: tuple[Move, ...]
    base: PlaneWord
    cost: int
    bound: int
    provenance: str  # the rule that gave bound for the source
    upper: Optional[int]  # least b_exact + cost over the explored words

    def replay(self) -> PlaneWord:
        w = canonical_runs(self.source.runs)
        for kind, img_idx, pos in self.steps:
            w = canonical_runs(_move_target(w[::-1] if img_idx else w, kind, pos))
        return PlaneWord(w)


# canonical word -> its (move, canonical target)s, filled as searches reach it
_SUCCESSORS: dict[Runs, tuple[tuple[Move, Runs], ...]] = {}


def _successors(runs: Runs) -> tuple[tuple[Move, Runs], ...]:
    """The moves of the degree arithmetic from a canonical word, those of
    `_moves` on image 0 (the word) and then on image 1 (its reversal),
    with their canonical targets.  Only the first move to a target is
    kept, the only one that can record it: an identity and an R step
    never share one, since R removes three crossings."""
    out: dict[Runs, Move] = {}
    for img_idx, img in enumerate((runs, runs[::-1])):
        for (kind, pos), tgt in _moves(img).items():
            out.setdefault(canonical_runs(tgt), (kind, img_idx, pos))
    return tuple((move, tgt) for tgt, move in out.items())


def _explore(w: PlaneWord) -> dict[Runs, Optional[tuple[Runs, Move]]]:
    """The canonical word classes reachable from w by `_successors`,
    each mapped to the (parent, move) that first reached it, and the
    start word to None.  Braid exchanges and boundary slides stay out of
    it, keeping every degree claim anchored to explicit curves.

    An R step removes three crossings and an identity none, so every
    path to a word costs sum(start) - sum(word) and the search is plain
    reachability.  Identities go to the front of the queue, which fixes
    the parent each word records.  Every search walks one graph,
    `_SUCCESSORS`, which gets a word's moves the first time any search
    reaches it.
    """
    start = canonical_runs(w.runs)
    parents: dict[Runs, Optional[tuple[Runs, Move]]] = {start: None}
    queue: deque[Runs] = deque([start])
    while queue:
        cur = queue.popleft()
        moves = _SUCCESSORS.get(cur)
        if moves is None:
            moves = _SUCCESSORS[cur] = _successors(cur)
        for move, tgt in moves:
            if tgt not in parents:
                parents[tgt] = (cur, move)
                (queue.appendleft if move[0] == "ident" else queue.append)(tgt)
    return parents


def reduction_search(w: PlaneWord) -> ReductionTrace:
    """Best provable reduction of w, and its constructive upper bound.

    Every R step is worth exactly 3 in degree in both directions, so any
    reachable word gives the valid bound (its own lower bound) + cost;
    the search keeps the largest.  A word that is itself a base (named
    entry or a one/two-run word) stays put: its own value is already the
    strongest consistent bound.  Ties prefer bases with named table
    entries, then fewer crossings, then shorter words.  The provenance
    is the source's own rule unless the reduction is stronger.  The
    same explored words give the upper bound: the least degree of an
    explicit curve for w, a realizable base's b_exact plus the cost of
    undoing the R steps that reach it.
    """
    parents = _explore(w)
    known = {runs: _base(runs) for runs in parents}
    start = target = canonical_runs(w.runs)
    n = sum(start)
    if known[start][3] > 1:

        def rank(runs: Runs):
            lower, _, _, kind = known[runs]
            return (-(lower + n - sum(runs)), kind, sum(runs), len(runs), runs)

        target = min(parents, key=rank)
    steps: list[Move] = []
    link = parents[target]
    while link is not None:
        steps.append(link[1])
        link = parents[link[0]]
    lower, prov = known[target][:2]
    cost = n - sum(target)
    if lower + cost == known[start][0]:
        prov = known[start][1]
    else:
        prov = f"reduction to {PlaneWord(target)} ({prov}) + {cost}"
    upper = min((b + n - sum(r) for r, (_, _, b, _) in known.items() if b is not None), default=None)
    return ReductionTrace(
        source=PlaneWord(normalize_runs(w.runs)),
        steps=tuple(reversed(steps)),
        base=PlaneWord(target),
        cost=cost,
        bound=lower + cost,
        provenance=prov,
        upper=upper,
    )


def constructive_upper(w: PlaneWord) -> Optional[int]:
    """Least degree of an explicit curve for w via reductions to
    realizable bases (each undone R step costs exactly 3)."""
    return reduction_search(w).upper


# ---------------------------------------------------------------------------
# bounds and verdicts


def b_lower_bound(w: PlaneWord) -> tuple[int, str]:
    """Max of the crossing rule, the one/two-run exact value, the base
    table and reduction bounds, with the rule that fired."""
    trace = reduction_search(w)
    return trace.bound, trace.provenance


class DegreeVerdict(NamedTuple):
    """Degree bounds of one knot and their proof.

    ``witness`` is the reduction trace whose ``upper`` set ``b_upper``,
    or None when the Chebyshev triple ``deg_C`` set it.  A row whose
    computation failed has status "failed", no bounds (all four None),
    no deg_C, no diagrams, and the error with its formatted traceback.
    """

    knot: KnotRecord
    b_lower: Optional[int]
    b_upper: Optional[int]
    c_lower: Optional[int]
    c_upper: Optional[int]
    status: str  # "exact" | "range" | "failed"
    deg_C: Optional[DegreeTriple]
    diagrams: tuple[TrigonalDiagram, ...] = ()
    traces: tuple[ReductionTrace, ...] = ()
    witness: Optional[ReductionTrace] = None
    error: Optional[str] = None
    traceback: Optional[str] = None

    @property
    def starred(self) -> bool:
        """The lexicographic degree beats deg_C; never on a failed row."""
        return self.status != "failed" and (self.b_upper, self.c_upper) < (self.deg_C.b, self.deg_C.c)


def degree_verdict(k: KnotRecord) -> DegreeVerdict:
    """Assemble lower and upper degree bounds for one catalog knot.

    One m_C search feeds both the Chebyshev triple and the enumeration
    budget, and one reduction search per simple diagram gives both its
    trace and its constructive upper bound.  The diagram's lower bound
    is trace.bound, the number b_lower_bound(w) returns: the start word
    is explored at cost 0, so the bound is never below the word's own.
    """
    n = k.crossing_number
    m = m_C(k)
    cheb = chebyshev_degree(k, m)
    budget = table_budget(k, m)
    diagrams = enumerate_simple_diagrams(k, budget=budget)
    if not diagrams:
        raise SearchExhausted(f"no simple diagram of {k.name} within {budget} crossings")

    b_upper, witness = cheb.b, None
    traces = tuple([reduction_search(project(d)) for d in diagrams])
    for trace in traces:
        if trace.upper is not None and trace.upper < b_upper:
            b_upper, witness = trace.upper, trace
    b_lower = min(t.bound for t in traces)

    b = b_upper
    c_hi = 3 * n - b
    c_floor = b + 1
    if b <= n + 1:
        # at b <= N+1 a realizing curve has at most N crossings, so its
        # diagram is islet-free and the Gauss sequence forces 2N-1 signs
        c_floor = max(c_floor, 2 * n - 1)
    candidates = [c for c in range(c_floor, c_hi + 1) if c % 3 != 0]
    c_lo = min(candidates) if candidates else c_hi
    status = "exact" if (b_lower == b_upper and len(candidates) <= 1) else "range"
    return DegreeVerdict(k, b_lower, b_upper, c_lo, c_hi, status, cheb, tuple(diagrams), traces, witness)
