"""Crossing sets from the integer enclosure loop against a Fraction oracle.

The oracle is the Fraction form of `curve_crossings`' schedule: W is
isolated on the integer box [floor r1, ceil r2] around the roots of the
pair discriminant, derived here on its own from the Fraction
coefficients; each root is refined until an interval Horner enclosure
of the pair discriminant excludes 0, which decides its sign, and a
crossing's further until the enclosure of x'(S - u), S the sum of x's
roots, excludes 0; the clash loop starts from those intervals.  That
loop halves every crossing whose parameter interval meets another's.
It uses interval Horner on rational coefficients, square-root bounds
on the reduced radicand, and a pairwise overlap test.  Both must return
the same rationals, not merely containing ones; a `Crossing`'s integer
enclosures are read over its den for that (`heightref.intervals`).

The x-order is checked apart from that schedule: the oracle refines
copies of the u-intervals until interval Horner enclosures of the
crossing x(u) are disjoint, and the crossings must come in increasing x.
So are the branches: copies of each crossing's u-interval are refined
until x' has one sign on both parameter enclosures.
"""

import random
from collections import Counter
from fractions import Fraction
from math import floor, isqrt

import pytest

from lexiknot.curvelab import NonNodalError, PlaneCurve, Polynomial, add_triple_point, chebyshev, curve_crossings, perturb
from lexiknot.curvelab.curves import _A, _B, _C, _pair_reduction
from lexiknot.curvelab.poly import _squarefree_isolation
from heightref import intervals

T3 = chebyshev(3)


def sqrt_bounds(x: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) <= hi with hi - lo about 2^-32."""
    n, d = x.numerator, x.denominator
    r = isqrt(n * d << 64)
    return Fraction(r, d << 32), Fraction(r + 1, d << 32)


def disc_box(disc: Polynomial) -> tuple[int, int]:
    """(floor r1, ceil r2) for the roots r1 < r2 of the concave quadratic
    disc: approximated through isqrt, then settled by exact signs, since
    an integer n left of the vertex has n <= r1 iff disc(n) <= 0, and one
    right of it has n >= r2 iff disc(n) <= 0."""
    c0, c1, c2 = disc.coeffs
    assert c2 < 0
    vertex = -c1 / (2 * c2)
    half_width = sqrt_bounds(c1 * c1 - 4 * c0 * c2)[0] / (-2 * c2)
    lo, hi = floor(vertex - half_width), -floor(-vertex - half_width)
    while disc(lo) > 0:
        lo -= 1
    while lo + 1 <= vertex and disc(lo + 1) <= 0:
        lo += 1
    while disc(hi) > 0:
        hi += 1
    while hi - 1 >= vertex and disc(hi - 1) <= 0:
        hi -= 1
    return lo, hi


def interval_horner(p: Polynomial, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    elo = ehi = Fraction(0)
    for c in reversed(p.coeffs):
        cands = (elo * lo, elo * hi, ehi * lo, ehi * hi)
        elo, ehi = min(cands) + c, max(cands) + c
    return elo, ehi


def nonzero_sign(p, r):
    """The sign of p at r's root, where it is nonzero, and the interval it
    was decided on: r is halved until the interval Horner enclosure of p
    excludes 0."""
    while True:
        lo, hi = interval_horner(p, r.lo, r.hi)
        if lo > 0 or hi < 0:
            return (lo > 0) - (hi < 0), r
        r = r.refine()


def pair_discriminant(curve: PlaneCurve) -> Polynomial:
    """u^2 - 4 v(u), v(u) = (p3 u^2 + p2 u + p1) / p3."""
    _, p1, p2, p3 = curve.x.coeffs
    return Polynomial([-4 * p1 / p3, -4 * p2 / p3, -3])


def enclosures(disc, r):
    dlo, dhi = interval_horner(disc, r.lo, r.hi)
    slo = sqrt_bounds(max(dlo, Fraction(0)))[0]
    shi = sqrt_bounds(dhi)[1]
    t_iv = ((r.lo - shi) / 2, (r.hi - slo) / 2)
    s_iv = ((r.lo + slo) / 2, (r.hi + shi) / 2)
    return t_iv, s_iv


def x_order(curve: PlaneCurve, us) -> list[int]:
    """Indices of the crossings isolated by ``us`` in increasing x.

    With z^2 = u z - v, z^3 = (u^2 - v) z - u v, so at v = v(u) the
    cubic x(z) = p0 + p1 z + p2 z^2 + p3 z^3 reduces to
    x(u) = p0 - v(u) (p2 + p3 u), the coefficient of z vanishing.  Copies
    of the intervals are halved until their enclosures of x(u) are
    disjoint."""
    p0, p1, p2, p3 = curve.x.coeffs
    x = Polynomial.const(p0) - Polynomial([p1 / p3, p2 / p3, 1]) * Polynomial([p2, p3])
    us = list(us)
    for _ in range(64):
        xs = [interval_horner(x, r.lo, r.hi) for r in us]
        clash = overlapping(xs)
        if not clash:
            return sorted(range(len(us)), key=lambda i: xs[i][0])
        for i in clash:
            us[i] = us[i].refine()
    raise AssertionError("the oracle could not separate the crossings' x")


def overlapping(ivs) -> set[int]:
    return {i for i, a in enumerate(ivs) for j, b in enumerate(ivs) if i != j and a[0] <= b[1] and b[0] <= a[1]}


def oracle_crossings(curve: PlaneCurve):
    disc = pair_discriminant(curve)
    _, _, p2, p3 = curve.x.coeffs
    third = curve.x.derivative().compose(Polynomial([-p2 / p3, -1]))  # x'(S - u)
    roots = _squarefree_isolation(_pair_reduction(curve.y, curve.x)[0], disc_box(disc))[1]
    kept = [nonzero_sign(third, r)[1] for sg, r in (nonzero_sign(disc, r) for r in roots) if sg > 0]
    enc = [enclosures(disc, r) for r in kept]
    for _ in range(64):
        clash = {k // 2 for k in overlapping([iv for e in enc for iv in e])}
        if not clash:
            break
        for i in clash:
            kept[i] = kept[i].refine()
            enc[i] = enclosures(disc, kept[i])
    else:
        raise AssertionError("the oracle could not separate the crossings")
    order = x_order(curve, kept)
    bounds = [iv for e in enc for iv in e]
    flat = sorted(range(len(bounds)), key=lambda k: bounds[k][0])
    rank = {k: position for position, k in enumerate(flat)}
    return (
        [((kept[i].lo, kept[i].hi), enc[i][0], enc[i][1]) for i in order],
        tuple((rank[2 * i], rank[2 * i + 1]) for i in order),
        tuple(bounds[k] for k in flat),
    )


def oracle_branches(curve: PlaneCurve, u) -> tuple[int, int]:
    """The branches of the parameters t < s of the crossing isolated by u:
    a copy of u is halved until the interval Horner enclosure of x' on
    both parameter enclosures excludes 0.  x' has the sign of x's lead on
    _A, left of the folds, and on _C, right of them, and the other on _B."""
    disc, dx = pair_discriminant(curve), curve.x.derivative()
    up = curve.x.coeffs[3] > 0
    for _ in range(64):
        signs = [interval_horner(dx, *iv) for iv in enclosures(disc, u)]
        if all(lo > 0 or hi < 0 for lo, hi in signs):
            (t_lo, _), (s_lo, _) = signs
            return _A if (t_lo > 0) == up else _B, _C if (s_lo > 0) == up else _B
        u = u.refine()
    raise AssertionError("x' kept a zero on a parameter enclosure")


def q7(x0: Fraction) -> PlaneCurve:
    return add_triple_point(PlaneCurve(T3, chebyshev(4)), x0, Fraction(1))


CURVES = {  # name: (curve, its number of crossings)
    **{f"(T3,T{b})": (PlaneCurve(T3, chebyshev(b)), b - 1) for b in (4, 7, 10, 13)},
    "6_2 witness": (perturb(q7(Fraction(-1, 2)), Fraction(1, 1024)), 6),
    # a rational, non-unit lead: v(u) and the discriminant carry denominators
    "x = 2/3 t^3 - t": (
        PlaneCurve(Polynomial([0, -1, 0, Fraction(2, 3)]), chebyshev(7).compose(Polynomial([0, Fraction(2, 3)]))),
        6,
    ),
    # irrational discriminant roots +-sqrt(8/3) in the box [-2, 2]: W has a
    # solitary root near -1.935, isolated inside the box and dropped by its sign
    "x = t^3 - 2t": (PlaneCurve(Polynomial([0, -2, 0, 1]), Polynomial([0, -1, 1, 2, -3, 1])), 2),
}


@pytest.mark.parametrize("name", CURVES)
def test_crossing_sets_equal_the_fraction_oracle(name):
    curve, count = CURVES[name]
    cs = curve_crossings(curve)
    crossings, param_order, param_bounds = oracle_crossings(curve)
    assert len(cs) == count
    # the oracle lists its crossings in increasing x
    assert [((c.u.lo, c.u.hi), *intervals(c)) for c in cs] == crossings
    assert tuple(c.ranks for c in cs) == param_order
    # each crossing lists its parameters t < s, so every pair increases
    assert all(a < b for a, b in (c.ranks for c in cs))
    # the bounds placed at their ranks are the oracle's, in parameter order
    bounds = [None] * (2 * len(cs))
    for c in cs:
        bounds[c.ranks[0]], bounds[c.ranks[1]] = intervals(c)
    assert tuple(bounds) == param_bounds


def branch_oracle_family():
    """The curves above, each also reparametrized by t -> -t, which gives
    x a negative lead, and 100 seeded curves: x is T3 or T3 + t^2/4, of
    either sign, and y a Chebyshev polynomial of degree 4 to 14 moved by
    a cubic with coefficients in eighths; the ones that are not nodal are
    skipped."""
    reverse = Polynomial([0, -1])
    for curve, _ in CURVES.values():
        yield curve
        yield PlaneCurve(curve.x.compose(reverse), curve.y.compose(reverse))
    rng = random.Random(58)
    skew = T3 + Polynomial([0, 0, Fraction(1, 4)])
    xs = (T3, -T3, skew, -skew)
    for _ in range(100):
        y = chebyshev(rng.randint(4, 14)) + Polynomial([Fraction(rng.randint(-3, 3), 8) for _ in range(4)])
        yield PlaneCurve(rng.choice(xs), y)


def test_branches_equal_the_sign_of_x_prime():
    # the branches are read off E(u) = p3 x'(S - u) on u alone; the oracle
    # reads them off x' on the parameters, on both sides of each fold
    pairs = Counter()
    for curve in branch_oracle_family():
        try:
            cs = curve_crossings(curve)
        except NonNodalError:
            continue
        assert [c.branches for c in cs] == [oracle_branches(curve, c.u) for c in cs], (curve.x, curve.y)
        pairs.update(c.branches for c in cs)
    assert sum(pairs.values()) > 500 and len(pairs) == 3
