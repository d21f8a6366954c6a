"""Heights built on Fractions, a test oracle for `height_polynomial`.

Each crossing's parameter intervals are read as reduced Fractions and
sorted, carrying their Gauss signs with them, so no rank is used; each
gap where the sign changes gets the dyadic of least denominator found
by a Fraction search; and the height is the product of the linear
factors t - r as Fraction polynomials, negated when its sign at the
first parameter is wrong.  The package builds the same height on
integers, placed by the crossings' ranks.  Not collected by pytest.
"""

from fractions import Fraction

from lexiknot.curvelab import Polynomial


def intervals(c) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """A crossing's t- and s-intervals as rationals."""
    return tuple((Fraction(lo, c.den), Fraction(hi, c.den)) for lo, hi in (c.t, c.s))


def from_roots(roots) -> Polynomial:
    """prod (t - r) over the rationals r, one Fraction factor per root."""
    p = Polynomial.const(1)
    for r in roots:
        p = p * Polynomial([-Fraction(r), 1])
    return p


def simplest_dyadic(lo: Fraction, hi: Fraction) -> Fraction:
    """The dyadic rational strictly between lo < hi with the least
    denominator; of several integers, the one nearest 0."""
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -simplest_dyadic(-hi, -lo)
    d = 1
    while True:
        n = lo.numerator * d // lo.denominator + 1  # the least n with n / d > lo
        if n * hi.denominator < hi.numerator * d:
            return Fraction(n, d)
        d *= 2


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def reference_height(cs, over_at) -> tuple[Polynomial, int]:
    """(z, degree) for the overpass choices ``over_at``, one per crossing:
    +1 at the earlier parameter of a crossing whose earlier strand is
    over, -1 at its later one, and the reverse otherwise."""
    if len(over_at) != len(cs):
        raise ValueError("one overpass choice per crossing required")
    if not cs:
        return Polynomial.const(1), 0
    marked = []
    for c, over in zip(cs, over_at):
        t, s = intervals(c)
        sign = 1 if over else -1
        marked += [(t, sign), (s, -sign)]
    marked.sort()
    bounds = [iv for iv, _ in marked]
    signs = [sign for _, sign in marked]
    if any(a[1] >= b[0] for a, b in zip(bounds, bounds[1:])):
        raise ValueError("the parameter intervals overlap")
    roots = [
        simplest_dyadic(a[1], b[0]) for a, b, sa, sb in zip(bounds, bounds[1:], signs, signs[1:]) if sa != sb
    ]
    z = from_roots(roots)
    if _sign(z(bounds[0][0])) != signs[0]:
        z = -z
    for (lo, hi), g in zip(bounds, signs):
        if not _sign(z(lo)) == _sign(z(hi)) == g:
            raise ValueError(f"the height has the wrong sign on [{lo}, {hi}]")
    return z, len(roots)
