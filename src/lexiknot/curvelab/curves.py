"""Crossings and words of plane trigonal polynomial curves, exactly.

For a curve (x, y) = (P(t), Q(t)) with deg P = 3, double points solve
P(t) = P(s), Q(t) = Q(s), t != s.  In the symmetric coordinates
u = t + s, v = ts the cubic equation is linear in v,

    v(u) = (p3 u^2 + p2 u + p1) / p3,

and reducing Q(t) - Q(s) by t - s gives a single polynomial W(u) whose
real roots with u^2 - 4 v(u) > 0 are the crossings.  That discriminant
is a concave quadratic, positive only between its roots r1 < r2, so W
is isolated only on the integer box [floor r1, ceil r2]: its roots
outside are solitary points (complex conjugate t, s) and are never
isolated.  Values on a branch pair reduce modulo z^2 - u z + v(u):
z^k = a_k(u) z + b_k(u), so the crossing x and the difference of a
height's values on the pair are polynomials in u.  Every discrete
decision of the crossings is exact: an integer enclosure over an
isolating interval that excludes 0, or a sign at a fold.

This layer runs on integers.  The pair reduction is Horner on the
polynomials' integer coefficients.  Each root of W carries one isolating
interval through the curve's questions.  It is halved until the
enclosure of the pair discriminant -(4/p3) x'(u/2) excludes 0 and then,
for a crossing, until that of E(u) = p3 x'(S - u) does, S the sum of
x's roots.  W is y'(c) at a root 2c of the first, c a fold, and
y(c) - y(S - 2c) over 3c - S at a root S - c of the second, so the fold
data, W's signs there read in Q(sqrt(Delta)), raise first where a
halving would not end, and no sign at a root is asked.  E's sign puts
the crossing's parameters on the branches _A, _B, _C that the folds
c1 < c2 cut the parameter line into (`_crossings`).  The clash loop
then only separates the parameters over integer enclosures: for an
isolating interval (a/d, b/d) of u, t < s are enclosed over
den_D d^2 2^33, with sqrt of the discriminant bounded by isqrt on the
reduced radicand at this module's scale 2^32.  Enclosures of different
crossings are compared after rescaling to the lcm of their
denominators, so every comparison is exact, and a `Crossing` keeps the
loop's last enclosures over their denominator: no rational is built
for a parameter.  No x is enclosed: x is strictly monotone in t on each
branch, and any two crossings share a branch, so their x-order is their
parameters' order there, reversed where x falls.  A triple point stalls
the loop, since its crossings share parameters.

The letters and the turns need no further sign.  Over the band between
the folds the curve is a 3-strand braid along x (Orevkov's view of a
trigonal curve), so a crossing's letter is which two of the three
y-ordered branches it swaps, and its turn is which of its two strands
comes from above.  The order is known just right of the left fold, and
each crossing, in x-order, swaps two adjacent branches, so the word's
runs are the blocks of crossings that swap one pair of branches
(`word_from_curve`).

A `PlaneCurve` is one object per value and caches only its crossings,
computed once while the curve is alive; the fold data are read once,
inside that computation.  The crossings are a tuple of `Crossing`
records in x-order, one per double point, each carrying the branches of
its two parameters and their ranks among all of them.  The ranks are
checked to be the order by branch and then by x along each branch,
backwards where x falls, so the ranks that place the Gauss sequence and
the branches that the word and the knot determinant's walk read
(`height._determinant`) are one structure.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import groupby
from math import gcd, isqrt, lcm
from typing import NamedTuple, Optional, Sequence

from ..frozen import Frozen
from ..planereduce import PlaneWord
from .poly import (
    Polynomial,
    RootInterval,
    _enclose,
    _product,
    _squarefree_isolation,
    isolate_real_roots,
    signs_at_quadratic_roots,
    signs_at_roots,
)


class NonNodalError(ValueError):
    """The curve has a tangency, a multiple point beyond a node, or
    crossings that could not be separated."""


class NotTrigonalError(ValueError):
    """The x-coordinate is not a cubic with two distinct real folds."""


BOTTOM, TOP = 0, 1  # crossing positions: third strand above vs below
# the branches of the parameter line cut by the folds c1 < c2: t < c1,
# c1 < t < c2 and t > c2; x is monotone on each
_A, _B, _C = 0, 1, 2


class PlaneCurve(Frozen):
    """The plane curve (x, y), x a cubic with two real folds and deg y >= 2.

    One object per value: while a curve with these coordinates is alive,
    `PlaneCurve(x, y)` returns it, so its crossings are computed once
    and cached in the instance dict.  Nothing cached
    refers back to the curve, so reference counting frees it, and its
    registry entry, as soon as its last holder drops it.  Immutable and
    equal when x and y are.
    """

    _live: "weakref.WeakValueDictionary[tuple[Polynomial, Polynomial], PlaneCurve]" = weakref.WeakValueDictionary()

    def __new__(cls, x: Polynomial, y: Polynomial):
        curve = cls._live.get((x, y))
        if curve is not None:
            return curve
        curve = object.__new__(cls)
        object.__setattr__(curve, "x", x)
        object.__setattr__(curve, "y", y)
        if x.degree != 3:
            raise NotTrigonalError(f"x-degree {x.degree}, need a cubic")
        if y.degree < 2:
            raise NotTrigonalError(f"y-degree {y.degree}, need at least 2")
        p = x.cs  # x' = p1 + 2 p2 t + 3 p3 t^2 has discriminant 4 (p2^2 - 3 p1 p3)
        if p[2] * p[2] <= 3 * p[1] * p[3]:
            raise NotTrigonalError("the cubic needs two distinct real critical points")
        cls._live[x, y] = curve
        return curve

    def _key(self) -> tuple:
        return self.x, self.y

    @property
    def bidegree(self) -> tuple[int, int]:
        return (3, self.y.degree)

    @cached_property
    def crossings(self) -> tuple["Crossing", ...]:
        """The curve's double points (`curve_crossings`), computed once."""
        return _crossings(self)


class Crossing(NamedTuple):
    """One double point: u, an isolated root of the symmetric polynomial;
    integer bounds (lo, hi) on its parameters t < s, both over the
    positive den, so lo / den <= t <= hi / den; its letter, BOTTOM or
    TOP; its turn, +1 when the strand of t is above that of s just left
    of the crossing and -1 when it is below; its ranks, the positions of
    t and of s among the curve's 2n crossing parameters in increasing
    order; and its branches, those of t and of s (_A, _B or _C).  The
    turn times the over/under sign is the crossing's twist sense."""

    u: RootInterval
    t: tuple[int, int]
    s: tuple[int, int]
    den: int
    letter: int
    turn: int
    ranks: tuple[int, int]
    branches: tuple[int, int]


def _pair_reduction(q: Polynomial, x: Polynomial):
    """a_k, b_k with z^k = a_k z + b_k modulo z^2 - u z + v(u), v from x.

    Returns (A, B) for q itself: q(z) = A(u) z + B(u), coefficients
    exact rationals.  On a crossing pair t, s this reads
    q(t) - q(s) = (t - s) A(u), and for two polynomials f, g
    f(t) g(s) - f(s) g(t) = (t - s) (A_f B_g - B_f A_g).

    Horner on integers: v = V / delta with V = (p1, p2, p3), delta = p3
    for the cubic x = p / den.  With q = cs / den of degree n, (A z + B) z
    + c reduces to (u A + B) z + (c - v A), and after j steps delta^j
    (A, B) are integer lists: after n steps, A and B over den delta^n.
    """
    V, delta = x.cs[1:], x.cs[3]
    cs, den = q.cs, q.den
    A, B, dp = [], cs[-1:], 1
    for c in reversed(cs[:-1]):
        dp *= delta
        uab = [0] + A + [0] * (len(B) - len(A) - 1)
        for i, x in enumerate(B):
            uab[i] += x
        A, B = [delta * x for x in uab], [-x for x in _product(V, A)] or [0]
        B[0] += c * dp
    return Polynomial.from_integers(A, den * dp), Polynomial.from_integers(B, den * dp)


def _pair_discriminant(x: Polynomial) -> Polynomial:
    """u^2 - 4 v(u) = -(4/p3) x'(u/2), from the cubic x's integers."""
    return Polynomial.from_integers((-4 * x.cs[1], -4 * x.cs[2], -3 * x.cs[3]), x.cs[3])


def _third_strand_quadratic(x: Polynomial) -> Polynomial:
    """E(u) = 3 p3^2 u^2 + 4 p2 p3 u + p2^2 + p1 p3 = p3 x'(S - u) den, S the
    sum of the roots of x = p / den: its roots S - c2 < S - c1 are the u of
    the pairs (c, S - 2c) of a fold c and the third strand, its vertex c1 + c2."""
    _, p1, p2, p3 = x.cs
    return Polynomial.from_integers((p2 * p2 + p1 * p3, 4 * p2 * p3, 3 * p3 * p3))


_MAX_CLASH_ROUNDS = 64  # rounds of interval halving to separate crossings
_SQRT_BITS = 32  # square roots are bounded to 2^-32 of the radicand's reduced denominator


def _sqrt_bounds(n: int, den: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^32 den sqrt(n / den) <= hi, for n >= 0, den > 0.

    The floor of the square root is taken on the reduced radicand
    n' / den', as isqrt(n' den' 2^64) over den' 2^32, and then written
    over den 2^32; hi - lo is den / den'.
    """
    g = gcd(n, den)
    r = isqrt((n // g) * (den // g) << 2 * _SQRT_BITS)
    return r * g, (r + 1) * g


def _disc_box(disc: Polynomial) -> tuple[int, int]:
    """(floor r1, ceil r2) for the roots r1 < r2 of the pair discriminant.

    disc = D / den_D is a quadratic with negative lead, and its roots are
    real and distinct, twice the folds' parameters, so it is positive
    exactly on (r1, r2).  With Delta = c1^2 - 4 c0 c2 > 0 and
    q = ceil(sqrt(Delta)), r1, r2 = (c1 -+ sqrt(Delta)) / (-2 c2), and
    flooring the numerators before the division by -2 c2 > 0 keeps the
    floor and the ceiling exact.
    """
    c0, c1, c2 = disc.cs
    q = isqrt(c1 * c1 - 4 * c0 * c2 - 1) + 1
    return (c1 - q) // (-2 * c2), -((-c1 - q) // (-2 * c2))


def curve_crossings(curve: PlaneCurve) -> tuple[Crossing, ...]:
    """All double points, certified simple, as a tuple sorted by x.

    They are computed once per curve, on the first call, and cached as
    `curve.crossings`; every later call returns that same tuple.
    """
    return curve.crossings


def _crossings(curve: PlaneCurve) -> tuple[Crossing, ...]:
    """The computation behind `PlaneCurve.crossings`.

    W, the pair discriminant and E are built here, once per curve.  W is
    isolated once, and only on the integer box around the roots of the
    pair discriminant (`_disc_box`): a real root of W outside it is a
    solitary point and is never isolated, and the few solitary roots
    inside it are dropped by the discriminant's sign.  The remainder
    chain is that of the whole of W, so it also gives the tangency test.
    The fold data are read next, and only here (`_fold_sides`): they
    raise on a cusp and on a third strand through a fold point, the only
    places where the discriminant or E vanishes at a root of W, so each
    halving below ends.  Each root is halved until the discriminant's
    enclosure excludes 0 and, for a crossing, until E's does.  On a pair
    t < s the third root of x(z) = x(t) is S - u, so t is on _A exactly
    when u < S - c1 and s on _C exactly when u > S - c2, the roots of E:
    the pair is (_A, _C) where E < 0, and where E > 0, (_A, _B) left of
    E's vertex c1 + c2 and (_B, _C) right of it.  The root goes on to
    the clash loop with the discriminant's enclosure, which the square
    roots of t and s start from, so no halving is repeated.  Each round
    of that loop halves the u-interval of every crossing whose parameter
    interval meets another, and encloses only those again.

    Each round sorts the parameters once (`_overlapping`), and the order
    of the round that finds no clash gives their ranks, which each
    `Crossing` carries and which, on a branch two crossings share, give
    their x-order.  The ranks must then be the order by branch and,
    along each branch, by x-index, which runs backwards where x falls:
    an O(n) check of consecutive parameters that compares two
    independent readings.  The letters and the turns are read off the
    bottom-to-top order of the branches in x-order (`_letters`).

    Raises NonNodalError for tangencies (multiple roots of the
    symmetric polynomial, real or not), a cusp or a third branch meeting
    a fold, crossing parameters that could not be separated (a triple
    point stalls there), ranks that are not the order by branch and x,
    or a branch order that no nodal curve has.
    """
    W = _pair_reduction(curve.y, curve.x)[0]
    if W.is_zero():
        raise NonNodalError("symmetric system degenerates; y is a function of x")
    disc = _pair_discriminant(curve.x)
    squarefree, roots = _squarefree_isolation(W, _disc_box(disc))
    if squarefree.degree < W.degree:
        raise NonNodalError("tangency: the symmetric polynomial has a multiple root")

    left, right = _fold_sides(curve.x, W)  # raises where a halving below would not end
    D, den_D = disc.cs, disc.den
    E = _third_strand_quadratic(curve.x).cs
    kept: list[RootInterval] = []
    enc, branches = [], []
    for r in roots:
        while (e := _enclose(D, r.a, r.b, r.d))[0] <= 0 <= e[1]:
            r = r.refine()
        if e[0] > 0:
            while (f := _enclose(E, r.a, r.b, r.d))[0] <= 0 <= f[1]:
                r = r.refine()
            kept.append(r)
            enc.append(_enclosures(den_D, r, _enclose(D, r.a, r.b, r.d)))
            left_of_vertex = 2 * E[2] * r.a + E[1] * r.d < 0  # E'(u) < 0
            branches.append((_A, _C) if f[1] < 0 else (_A, _B) if left_of_vertex else (_B, _C))

    # refine until the parameter intervals are pairwise disjoint
    for _ in range(_MAX_CLASH_ROUNDS):
        flat, hit = _overlapping(_rescaled(enc))
        clash = {k // 2 for k in hit}
        if not clash:
            break
        for i in clash:
            kept[i] = r = kept[i].refine()
            enc[i] = _enclosures(den_D, r, _enclose(D, r.a, r.b, r.d))
    else:
        r = kept[min(clash)]
        message = f"crossing parameters near u in ({float(r.lo):.4f}, {float(r.hi):.4f}) could not be separated"
        raise NonNodalError(f"non-nodal configuration: {message} — a triple point?")

    rank = {k: position for position, k in enumerate(flat)}
    up = curve.x.cs[-1] > 0
    rises = (up, not up, up)  # whether x rises with t on _A, _B, _C

    def left_of(i: int, j: int) -> int:
        b = next(b for b in branches[i] if b in branches[j])
        before = rank[2 * i + branches[i].index(b)] < rank[2 * j + branches[j].index(b)]
        return -1 if before == rises[b] else 1

    order = sorted(range(len(kept)), key=cmp_to_key(left_of))
    at = {i: position for position, i in enumerate(order)}
    steps = []  # (branch, x-index) of each parameter in rank order, the index negated where x falls
    for k in flat:
        b = branches[k // 2][k % 2]
        steps.append((b, at[k // 2] if rises[b] else -at[k // 2]))
    if any(p >= q for p, q in zip(steps, steps[1:])):
        raise NonNodalError("the parameter order is not the order by branch and then by x along each branch")
    letters = _letters(left, right, [branches[i] for i in order])
    return tuple(
        Crossing(kept[i], *enc[i], letter, turn, (rank[2 * i], rank[2 * i + 1]), branches[i])
        for i, (letter, turn) in zip(order, letters)
    )


def _letters(
    start: tuple[int, ...], end: tuple[int, ...], branches: Sequence[tuple[int, int]]
) -> list[tuple[int, int]]:
    """(letter, turn) of crossings in x-order from the branches of their
    parameters t < s.

    ``start`` is the bottom-to-top order of the branches just right of
    the left fold, and ``end`` just left of the right fold.  A crossing
    swaps two y-adjacent branches; its letter is BOTTOM exactly when the
    third branch is on top, and its turn is +1 exactly when t's branch
    is the upper one before the swap.  NonNodalError if a crossing joins
    two branches that are not adjacent, or the order reached at the
    right fold is not that fold's.
    """
    order, letters = list(start), []
    for bt, bs in branches:
        i, j = order.index(bt), order.index(bs)
        if abs(i - j) != 1:
            raise NonNodalError(f"a crossing joins branches {bt} and {bs}, which are not adjacent in {order}")
        order[i], order[j] = bs, bt
        letters.append((BOTTOM if min(i, j) == 0 else TOP, 1 if i > j else -1))
    if tuple(order) != end:
        raise NonNodalError(f"the branch order {order} at the right fold is not the fold's {list(end)}")
    return letters


def _enclosures(den_D: int, r: RootInterval, D: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int], int]:
    """(t, s, den): the crossing isolated by r = (a/d, b/d), with the
    integer enclosures of its parameters t < s over den = den_D d^2 2^33,
    from u and the positive enclosure D of d^2 D(u) over r, the pair
    discriminant being the quadratic D(u) / den_D."""
    a, b, d = r.a, r.b, r.d
    scale = den_D * d * d
    slo = _sqrt_bounds(D[0], scale)[0]
    shi = _sqrt_bounds(D[1], scale)[1]
    # u's ends over den_D d^2 2^32; halving puts t and s over one more 2
    ua, ub = (a * den_D * d) << _SQRT_BITS, (b * den_D * d) << _SQRT_BITS
    return (ua - shi, ub - slo), (ua + slo, ub + shi), scale << (_SQRT_BITS + 1)


def _rescaled(enc) -> list[tuple[int, int]]:
    """The flat t, s intervals of all crossings as integers over one
    denominator: each crossing's are rescaled from its den to the lcm of
    all of them, so comparing them compares the rationals exactly."""
    common = lcm(*[e[2] for e in enc])
    params = []
    for t, s, den in enc:
        f = common // den
        params.append((t[0] * f, t[1] * f))
        params.append((s[0] * f, s[1] * f))
    return params


def _overlapping(ivs: Sequence[tuple[int, int]]) -> tuple[list[int], set[int]]:
    """The indices of the closed intervals by their lower ends, from one
    sort, and the indices of those that meet another one."""
    order = sorted(range(len(ivs)), key=lambda i: ivs[i][0])
    hit: set[int] = set()
    reach = -1  # the interval with the largest upper end so far
    for b in order:
        if reach >= 0 and ivs[b][0] <= ivs[reach][1]:
            hit.update((reach, b))
        if reach < 0 or ivs[b][1] > ivs[reach][1]:
            reach = b
    return order, hit


def _fold_pairs(x: Polynomial) -> tuple[tuple[int, int], tuple[int, int]]:
    """The branch pairs, in increasing order, that the left and the right
    fold join.  The left fold is x's local minimum: c2, where _B and _C
    merge, when x's lead is positive, and c1, where _A and _B merge, else."""
    return ((_B, _C), (_A, _B)) if x.cs[3] > 0 else ((_A, _B), (_B, _C))


def _fold_sides(x: Polynomial, W: Polynomial) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The bottom-to-top branch orders just right of the left fold and
    just left of the right fold, off x and W, without refinement.

    At the fold c1 the branches _A and _B merge, beside _C, and at c2 _B
    and _C merge, beside _A.  Next to a fold c, inside the band, the
    pair's branch of larger parameter is on top exactly when
    y'(c) = W(2c) > 0, (c, c) being a pair with u = 2c, and the pair is
    above the third strand exactly when y(c) - y(S - 2c) =
    (3c - S) W(S - c) > 0, (c, S - 2c) being a pair with u = S - c;
    3c - S is negative at c1 and positive at c2.  So both are W's signs
    at the roots of a quadratic, 2 c1 < 2 c2 of the pair discriminant and
    S - c2 < S - c1 of E (`_third_strand_quadratic`), read in
    Q(sqrt(Delta)) (`signs_at_quadratic_roots`); `_fold_pairs` says
    which fold is the left one.

    NonNodalError when the third strand meets a fold point, or y'
    vanishes there (a cusp).
    """
    slopes = signs_at_quadratic_roots(W, _pair_discriminant(x))
    far, near = signs_at_quadratic_roots(W, _third_strand_quadratic(x))
    orders = {}
    for side, slope, pair, third in zip((-near, far), slopes, ((_A, _B), (_B, _C)), (_C, _A)):
        if side == 0:
            raise NonNodalError("fold pair meets the third strand")
        if slope == 0:
            raise NonNodalError("cusp: y' vanishes at a fold")
        lo, hi = pair if slope > 0 else pair[::-1]
        orders[pair] = (third, lo, hi) if side > 0 else (lo, hi, third)
    left, right = _fold_pairs(x)
    return orders[left], orders[right]


def word_from_curve(curve: PlaneCurve, cs: Optional[tuple[Crossing, ...]] = None) -> PlaneWord:
    """Run-length word of the curve's diagram, off its crossings' branches.

    The runs are the lengths of the maximal blocks of crossings, in
    x-order, that swap one pair of branches: a swap leaves that pair in
    the same two y-positions, so such a block is one letter.  The word
    starts with a 0 when the first crossing swaps the pair that the left
    fold joins (`_fold_pairs`), and ends with a 0 when the last crossing
    swaps the pair that the right fold joins: a boundary zero marks a
    turning point on the side of its nearest crossing.  No letter is
    read, so the word is invariant under the vertical flip, which keeps
    every branch.  A curve with no crossings has the word ().  A ``cs``
    other than the curve's own crossings tuple is a ValueError.
    """
    # The word is read off the crossings the curve caches; ``cs`` stays
    # only because the benchmark's worker (perfbench/worker.py) passes it.
    if cs is None:
        cs = curve.crossings
    elif cs is not curve.crossings:
        raise ValueError("the crossings are not the curve's own")
    if not cs:
        return PlaneWord(())
    left, right = _fold_pairs(curve.x)
    runs = [len(tuple(block)) for _, block in groupby(c.branches for c in cs)]
    return PlaneWord([0] * (cs[0].branches == left) + runs + [0] * (cs[-1].branches == right))


def add_triple_point(curve: PlaneCurve, x0: Fraction, yshift: Fraction) -> PlaneCurve:
    """(x, y) -> (x, (x - x0)(y + yshift)): same nodes plus a triple
    point where the line x = x0 meets the shifted curve."""
    x0, yshift = Fraction(x0), Fraction(yshift)
    line = curve.x - Polynomial.const(x0)
    if len(isolate_real_roots(line)) != 3:
        raise NonNodalError(f"x = {x0} does not meet the curve in three strands")
    shifted = curve.y + Polynomial.const(yshift)
    if line.gcd(shifted).degree >= 1:
        raise NonNodalError(f"a strand over x = {x0} has zero shifted height")
    crossing_x = _pair_reduction(curve.x, curve.x)[1]
    if 0 in signs_at_roots(crossing_x - Polynomial.const(x0), [c.u for c in curve_crossings(curve)]):
        raise NonNodalError(f"x = {x0} passes through a crossing")
    return PlaneCurve(curve.x, line * shifted)


def perturb(curve: PlaneCurve, eps: Fraction) -> PlaneCurve:
    """Reparametrize the x-coordinate by t -> t + eps, keeping y."""
    if eps == 0:
        raise ValueError("eps must be nonzero")
    return PlaneCurve(curve.x.compose(Polynomial([Fraction(eps), 1])), curve.y)

