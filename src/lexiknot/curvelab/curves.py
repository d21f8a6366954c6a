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
enclosure of the pair discriminant -(4/p3) x'(u/2) excludes 0, and the
clash loop starts from there.  That discriminant vanishes only at twice
a fold c, where W is a positive multiple of y'(c), and the fold data,
read first, raise on a cusp, so no sign at a root is asked.  The clash
loop separates the crossings' parameters over integer enclosures: for
an isolating interval (a/d, b/d) of u, t < s are enclosed over
den_D d^2 2^33, with sqrt of the discriminant bounded by isqrt on the
reduced radicand at this module's scale 2^32.  Enclosures of
different crossings are compared after rescaling to the lcm of their
d, so every comparison is exact, and the rational intervals a
`Crossing` reports are built once, after the loop.  The loop also
halves until x' has one sign on each parameter enclosure, which puts
each parameter on one of the three branches that the folds c1 < c2
cut the parameter line into.  No x is enclosed: x is strictly
monotone in t on each branch, and any two crossings share a branch, so
their x-order is their parameters' order there, reversed where x falls.
A triple point stalls the loop, since its crossings share parameters.

The letters and the turns need no further sign.  Over the band
between the folds the curve is a 3-strand braid along x (Orevkov's view
of a trigonal curve), so a crossing's letter is which two of the three
y-ordered branches it swaps, and its turn is which of its two strands
comes from above.  The order is known just right of the left fold, and
each crossing, in x-order, swaps two adjacent branches.  The fold data
are exact and refinement-free.  The fold height minus the third
strand's, y(t) - y(S - 2t) with S the sum of x's roots, and y' are
reduced modulo the quadratic x' by Horner in Z[t]/(x'), which composes
nothing and divides nothing, and the signs of the degree-one remainders
at the roots of x' are read in Q(sqrt(Delta)).

A `PlaneCurve` is one object per value, and its crossings are a cached
property of it: they are computed once, however many callers ask for
them through `curve_crossings` while the curve is alive.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd, isqrt, lcm
from typing import NamedTuple, Optional, Sequence

from ..frozen import Frozen
from ..planereduce import PlaneWord, letters_to_runs
from .poly import (
    Polynomial,
    RootInterval,
    _enclose,
    _product,
    _remainder_mod_quadratic,
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
    `PlaneCurve(x, y)` returns it, so what is derived from the curve (its
    folds, its symmetric-coordinate data, its crossings) is computed once
    and cached in the instance dict.  Nothing cached refers back to the
    curve, so reference counting frees it, and its registry entry, as
    soon as its last holder drops it.  Immutable and equal when x and y
    are.
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
    def crossings(self) -> "CrossingSet":
        """The curve's double points (`curve_crossings`), computed once."""
        return _crossings(self)

    @cached_property
    def _folds(self) -> tuple["_Fold", "_Fold"]:
        """The left and the right fold (`_fold_sides`), found once."""
        return _fold_sides(self)

    @cached_property
    def _eliminator(self) -> "_Eliminator":
        """The curve's symmetric-coordinate data, built once."""
        return _Eliminator(self)


class Crossing(NamedTuple):
    """One double point: u, an isolated root of the symmetric polynomial;
    rational bounds on its parameters t < s; its letter, BOTTOM or TOP;
    and its turn, +1 when the strand of t is above that of s just left
    of the crossing and -1 when it is below.  The turn times the
    over/under sign is the crossing's twist sense."""

    u: RootInterval
    t: tuple[Fraction, Fraction]
    s: tuple[Fraction, Fraction]
    letter: int
    turn: int


class CrossingSet(Frozen):
    """A curve's crossings sorted by x; per crossing, the positions of its
    two parameters in the global t-order; and the parameters' rational
    bounds in that order.  Immutable, equal when all three are; its
    length is the number of crossings.  It holds no reference to its
    curve, which caches it."""

    __slots__ = ("crossings", "param_order", "param_bounds")

    def __init__(
        self,
        crossings: tuple[Crossing, ...],
        param_order: tuple[tuple[int, int], ...],
        param_bounds: tuple[tuple[Fraction, Fraction], ...],
    ):
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "param_order", param_order)
        object.__setattr__(self, "param_bounds", param_bounds)

    def __len__(self) -> int:
        return len(self.crossings)


def _pair_reduction(q: Polynomial, v: Polynomial):
    """a_k, b_k with z^k = a_k z + b_k modulo z^2 - u z + v(u).

    Returns (A, B) for q itself: q(z) = A(u) z + B(u), coefficients
    exact rationals.  On a crossing pair t, s this reads
    q(t) - q(s) = (t - s) A(u), and for two polynomials f, g
    f(t) g(s) - f(s) g(t) = (t - s) (A_f B_g - B_f A_g).

    Horner on integers: with q = cs / den of degree n and v = V / delta,
    (A z + B) z + c reduces to (u A + B) z + (c - v A), and after j
    steps delta^j (A, B) are integer lists: after n steps, A and B over
    den delta^n.
    """
    V, delta = v.cs, v.den
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


class _Eliminator:
    """Shared symmetric-coordinate data for one curve; the pair
    discriminant u^2 - 4 v(u) is -(4/p3) x'(u/2), from x's integers."""

    def __init__(self, curve: PlaneCurve):
        p = curve.x.cs
        # v(u) = (p3 u^2 + p2 u + p1)/p3, where x's denominator cancels
        self.v = Polynomial.from_integers(p[1:], p[3])
        self.W = _pair_reduction(curve.y, self.v)[0]  # vanishes exactly at crossings
        self.dx = curve.x.derivative()  # its sign puts a parameter on a branch
        self.disc = Polynomial.from_integers((-4 * p[1], -4 * p[2], -3 * p[3]), p[3])


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


def curve_crossings(curve: PlaneCurve) -> CrossingSet:
    """All double points, certified simple and sorted by x.

    They are computed once per curve, on the first call, and cached as
    `curve.crossings`; every later call returns that same set.
    """
    return curve.crossings


def _crossings(curve: PlaneCurve) -> CrossingSet:
    """The computation behind `PlaneCurve.crossings`.

    W is isolated once, and only on the integer box around the roots of
    the pair discriminant (`_disc_box`): a real root of W outside it is
    a solitary point and is never isolated, and the few solitary roots
    inside it are dropped by the discriminant's sign.  The remainder
    chain is that of the whole of W, so it also gives the tangency test.
    The fold data are read next, and raise on a cusp, the only place
    where the discriminant vanishes at a root of W.  Each root is then
    halved until the discriminant's enclosure excludes 0, and carried
    from there to the clash loop with that enclosure, which the square
    roots of t and s start from, so no halving is repeated.  Each round
    of that loop halves the u-interval of every crossing whose parameter
    interval meets another, or on one of whose parameter intervals x'
    may vanish, and encloses only those again.

    So each parameter is put on one branch, once: t < s puts t on _A
    when x'(t) has the sign of x's lead and on _B otherwise, and s on _C
    when x'(s) has that sign and on _B otherwise.  The fold data are
    found before the loop: a crossing at a fold point raises there, so
    the loop never halves towards a root of x'.  One sort of the
    parameters gives their ranks, which are `param_order` and, on a
    branch two crossings share, their x-order.  The letters and the
    turns are then read off the bottom-to-top order of the branches in
    x-order (`_letters`).

    Raises NonNodalError for tangencies (multiple roots of the
    symmetric polynomial, real or not), a cusp or a third branch meeting
    a fold, crossing parameters that could not be separated (a triple
    point stalls there), or a branch order that no nodal curve has.
    """
    el = curve._eliminator
    W = el.W
    if W.is_zero():
        raise NonNodalError("symmetric system degenerates; y is a function of x")
    squarefree, roots = _squarefree_isolation(W, _disc_box(el.disc))
    if squarefree.degree < W.degree:
        raise NonNodalError("tangency: the symmetric polynomial has a multiple root")

    left, right = curve._folds  # raises on a cusp, so each halving below ends
    kept: list[RootInterval] = []
    enc = []
    for r in roots:
        while (e := _enclose(el.disc.cs, r.a, r.b, r.d))[0] <= 0 <= e[1]:
            r = r.refine()
        if e[0] > 0:
            kept.append(r)
            enc.append(_enclosures(el, r, e))

    # refine until the parameter intervals are pairwise disjoint and every
    # parameter is on a branch; a branch, once decided on an enclosure of
    # the parameter, stays
    branches = [_branches(el, e) for e in enc]
    for _ in range(_MAX_CLASH_ROUNDS):
        params = _rescaled(enc)
        clash = {k // 2 for k in _overlapping(params)}
        clash.update(i for i, b in enumerate(branches) if b is None)
        if not clash:
            break
        for i in clash:
            kept[i] = r = kept[i].refine()
            enc[i] = _enclosures(el, r, _enclose(el.disc.cs, r.a, r.b, r.d))
            if branches[i] is None:
                branches[i] = _branches(el, enc[i])
    else:
        r = kept[min(clash)]
        message = f"crossing parameters near u in ({float(r.lo):.4f}, {float(r.hi):.4f}) could not be separated"
        raise NonNodalError(f"non-nodal configuration: {message} — a triple point?")

    flat = sorted(range(len(params)), key=lambda k: params[k][0])
    rank = sorted(range(len(flat)), key=flat.__getitem__)  # rank[k]: the position of k in flat
    up = curve.x.cs[-1] > 0
    rises = (up, not up, up)  # whether x rises with t on _A, _B, _C

    def left_of(i: int, j: int) -> int:
        b = next(b for b in branches[i] if b in branches[j])
        before = rank[2 * i + branches[i].index(b)] < rank[2 * j + branches[j].index(b)]
        return -1 if before == rises[b] else 1

    order = sorted(range(len(kept)), key=cmp_to_key(left_of))
    letters = _letters(left.order, right.order, [branches[i] for i in order])
    ivs = [_intervals(el, e) for e in enc]
    crossings = tuple(
        Crossing(u=kept[i], t=ivs[i][0], s=ivs[i][1], letter=letter, turn=turn)
        for i, (letter, turn) in zip(order, letters)
    )
    return CrossingSet(
        crossings=crossings,
        param_order=tuple((rank[2 * i], rank[2 * i + 1]) for i in order),
        param_bounds=tuple(ivs[k // 2][k % 2] for k in flat),
    )


def _branches(el: _Eliminator, e) -> Optional[tuple[int, int]]:
    """The branches of one crossing's parameters t < s, from the sign of
    x' on their integer enclosures; None while x' may vanish on one."""
    d, t, s = e
    den_p = (el.disc.den * d * d) << (_SQRT_BITS + 1)
    dx = el.dx.cs
    out = []
    for (lo, hi), outer in zip((t, s), (_A, _C)):
        vlo, vhi = _enclose(dx, lo, hi, den_p)
        if vlo <= 0 <= vhi:
            return None
        out.append(outer if (vlo > 0) == (dx[-1] > 0) else _B)
    return out[0], out[1]


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


def _enclosures(el: _Eliminator, r: RootInterval, D: tuple[int, int]) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """(d, t, s): the crossing isolated by r = (a/d, b/d), with the
    integer enclosures of its parameters t < s over den_D d^2 2^33, from
    u and the positive enclosure D of d^2 D(u) over r, the pair
    discriminant being a quadratic cleared as D / den_D."""
    a, b, d = r.a, r.b, r.d
    den = el.disc.den
    scale = den * d * d
    slo = _sqrt_bounds(D[0], scale)[0]
    shi = _sqrt_bounds(D[1], scale)[1]
    # u's ends over den_D d^2 2^32; halving puts t and s over one more 2
    ua, ub = (a * den * d) << _SQRT_BITS, (b * den * d) << _SQRT_BITS
    return d, (ua - shi, ub - slo), (ua + slo, ub + shi)


def _rescaled(enc) -> list[tuple[int, int]]:
    """The flat t, s intervals of all crossings as integers over one
    denominator: each crossing's are rescaled from its d to the lcm of
    all the d, so comparing them compares the rationals exactly."""
    common = lcm(*[e[0] for e in enc])
    params = []
    for d, t, s in enc:
        f = (common // d) ** 2
        params.append((t[0] * f, t[1] * f))
        params.append((s[0] * f, s[1] * f))
    return params


def _intervals(el: _Eliminator, e) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """The rational t- and s-intervals of one crossing's enclosures."""
    d, t, s = e
    den_p = (el.disc.den * d * d) << (_SQRT_BITS + 1)
    return (Fraction(t[0], den_p), Fraction(t[1], den_p)), (Fraction(s[0], den_p), Fraction(s[1], den_p))


def _overlapping(ivs: Sequence[tuple[int, int]]) -> set[int]:
    """Indices of the closed intervals that meet another one."""
    hit: set[int] = set()
    reach = -1  # the interval with the largest upper end so far
    for b in sorted(range(len(ivs)), key=lambda i: ivs[i][0]):
        if reach >= 0 and ivs[b][0] <= ivs[reach][1]:
            hit.update((reach, b))
        if reach < 0 or ivs[b][1] > ivs[reach][1]:
            reach = b
    return hit


class _Fold(NamedTuple):
    """One fold: the position (BOTTOM or TOP) of its merging pair against
    the third strand, and the bottom-to-top order of the three branches
    beside it, inside the band."""

    side: int
    order: tuple[int, int, int]


def _fold_sides(curve: PlaneCurve) -> tuple[_Fold, _Fold]:
    """The left and the right fold, exactly and without refinement.

    At the fold c1 the branches _A and _B merge, beside _C, and at c2 _B
    and _C merge, beside _A.  Next to a fold c, inside the band, the
    pair's branch of larger parameter is on top exactly when y'(c) > 0,
    and the pair is above the third strand exactly when the fold height
    minus the third strand's height, reduced modulo x' by Horner
    (`_fold_height_remainder`), is positive.  Both signs are read at the
    roots of the quadratic x' in Q(sqrt(Delta))
    (`signs_at_quadratic_roots`).  The left fold is the local minimum of
    x: c2 when x's lead is positive, c1 when it is negative.

    NonNodalError when the third strand meets a fold point, or y'
    vanishes there (a cusp).
    """
    dx, y = curve._eliminator.dx, curve.y
    h = Polynomial.from_integers(_fold_height_remainder(curve.x, y))
    folds = []
    for side, slope, pair, third in zip(
        signs_at_quadratic_roots(h, dx), signs_at_quadratic_roots(y.derivative(), dx), ((_A, _B), (_B, _C)), (_C, _A)
    ):
        if side == 0:
            raise NonNodalError("fold pair meets the third strand")
        if slope == 0:
            raise NonNodalError("cusp: y' vanishes at a fold")
        lo, hi = pair if slope > 0 else pair[::-1]
        if side > 0:
            folds.append(_Fold(TOP, (third, lo, hi)))
        else:
            folds.append(_Fold(BOTTOM, (lo, hi, third)))
    if curve.x.cs[3] > 0:
        return folds[1], folds[0]
    return folds[0], folds[1]


def _fold_height_remainder(x: Polynomial, y: Polynomial) -> tuple[int, int]:
    """(r0, r1) with r0 + r1 t a positive multiple of y(t) - y(S - 2t)
    modulo x', S the sum of x's roots, with no composition: at a fold c,
    S - 2c is the third root of x(z) = x(c).  Horner in Z[t]/(x') reads
    y at t and at S - 2t = (-p2 - 2 p3 t) / p3, both over the one
    denominator |p3|, so the two remainders share their multiplier."""
    p, cs, dx = x.cs, y.primitive, x.derivative().primitive
    e = abs(p[3])
    near = _remainder_mod_quadratic(cs, (0, e, e), dx)
    far = _remainder_mod_quadratic(cs, (-p[2] if p[3] > 0 else p[2], -2 * e, e), dx)
    return near[0] - far[0], near[1] - far[1]


def word_from_curve(curve: PlaneCurve, cs: Optional[CrossingSet] = None) -> PlaneWord:
    """Run-length word of the curve's diagram.

    The presentation is normalized through the vertical-flip freedom: a
    crossing's letter is read as TOP exactly when it is on the left fold
    pair's side, and the trailing marker is set when the last crossing
    is on the right fold pair's side.  So boundary zeros appear exactly
    when a turning point sits on the same side as its nearest crossing.
    A ``cs`` other than the curve's own crossing set is a ValueError.
    """
    # The word is read off the crossings the curve caches; ``cs`` stays
    # only because the benchmark's worker (perfbench/worker.py) passes it.
    if cs is None:
        cs = curve.crossings
    elif cs is not curve.crossings:
        raise ValueError("the crossing set is not the curve's own")
    left, right = (f.side for f in curve._folds)
    letters = [TOP if c.letter == left else BOTTOM for c in cs.crossings]
    return PlaneWord(letters_to_runs(letters, bool(cs.crossings) and cs.crossings[-1].letter == right))


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
    el = curve._eliminator
    cs = curve_crossings(curve)
    crossing_x = _pair_reduction(curve.x, el.v)[1]
    if 0 in signs_at_roots(crossing_x - Polynomial.const(x0), [c.u for c in cs.crossings]):
        raise NonNodalError(f"x = {x0} passes through a crossing")
    return PlaneCurve(curve.x, line * shifted)


def perturb(curve: PlaneCurve, eps: Fraction) -> PlaneCurve:
    """Reparametrize the x-coordinate by t -> t + eps, keeping y."""
    if eps == 0:
        raise ValueError("eps must be nonzero")
    return PlaneCurve(curve.x.shift(Fraction(eps)), curve.y)


def perturb_auto(
    curve: PlaneCurve,
    positive: bool = True,
    start: Fraction = Fraction(1, 16),
    expect_nodes: Optional[int] = None,
) -> tuple[PlaneCurve, Fraction]:
    """Perturb with automatically chosen eps.

    Halves eps from ``start`` until the crossing count hits the expected
    node count and the extracted word agrees twice in a row.
    """
    eps = Fraction(start) if positive else -Fraction(start)
    last_word = None
    for _ in range(24):
        cand = perturb(curve, eps)
        try:
            cs = curve_crossings(cand)
            if expect_nodes is not None and len(cs) != expect_nodes:
                raise NonNodalError("wrong node count")
            word = word_from_curve(cand)
        except NonNodalError:
            eps /= 2
            last_word = None
            continue
        if last_word is not None and word.runs == last_word:
            return cand, eps
        last_word = word.runs
        eps /= 2
    raise NonNodalError("perturbation did not stabilize")
