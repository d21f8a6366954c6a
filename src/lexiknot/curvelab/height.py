"""Height polynomials and verification of full space embeddings.

Given the plane curve and a choice of overpass at every crossing, a
height polynomial with one prescribed sign per crossing parameter is
built from linear factors between consecutive parameter intervals, each
at the dyadic rational of least denominator in the gap, which keeps the
coefficients small; its degree is the number of sign changes in the
Gauss sequence.  All sign checks are exact: by construction the roots
lie strictly between the parameter intervals, so evaluating at a
rational endpoint decides each sign, on integers.

Verification works on the caller's curve object (`PlaneCurve` keeps one
object per value), so its crossings are computed once.  It reads the
over/under sign of every crossing with one `signs_at_roots` call: its
coprimality certificate modulo a prime rules out exact vanishing at all
the crossings at once, with a rational gcd only where it fails, and
`sign_at_root`'s mean value test on integers over a bisected dyadic
isolating interval gives each sign.  No other sign at a root is taken
here.  The twist sense is unoriented: it is the over/under sign times
the crossing's turn, which strand comes from above just left of the
crossing, read off the branch order by `curve_crossings`.  (That
product equals the crossing sign with both strands turned to run
towards +x, the over/under sign times the tangent determinant's sign
times x'(t) x'(s); the tests check it against that definition.)  The
diagram's entries are the twist senses summed over the regions of the
curve's word.  The knot is named by the class of the diagram's
fraction, checked against the determinant, the integer |det| of a Fox
coloring minor computed by fraction-free elimination.  No floating
point decides anything.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from ..arith import KnotRecord
from ..diagram import TrigonalDiagram, identify_knot
from .curves import CrossingSet, PlaneCurve, _pair_reduction, curve_crossings, word_from_curve
from .poly import Polynomial, _sign, _value, signs_at_roots


class HeightError(ValueError):
    """A prescribed-sign height could not be built or verified."""


class EmbeddingError(ValueError):
    """The z-coordinate fails to separate some crossing."""


def alternating_overpasses(cs: CrossingSet) -> list[bool]:
    """Overpass choices whose Gauss sequence alternates along the curve.

    Returns, per crossing, whether the earlier parameter is the
    overpass.  Fails if the parameter interleaving is incompatible with
    a strictly alternating sequence.
    """
    if any(a % 2 == b % 2 for a, b in cs.param_order):
        raise HeightError("parameter interleaving admits no alternating Gauss sequence")
    return [a % 2 == 0 for a, _ in cs.param_order]


def gauss_sequence(cs: CrossingSet, over_at: Sequence[bool]) -> list[int]:
    """Signs +-1 at the 2m crossing parameters in parameter order."""
    signs = [0] * (2 * len(cs.crossings))
    for i, (first, second) in enumerate(cs.param_order):
        s = 1 if over_at[i] else -1
        signs[first] = s
        signs[second] = -s
    return signs


def height_polynomial(cs: CrossingSet, over_at: Sequence[bool]) -> tuple[Polynomial, int]:
    """Polynomial with the prescribed sign at every crossing parameter.

    Built as +-prod(t - r_j) with one root in the gap of each consecutive
    parameter pair where the sign changes, at the dyadic rational of
    least denominator there (`_simplest_dyadic`); the degree equals
    the sign-change count.  Verified a posteriori, exactly.  Without
    crossings any height will do: the constant 1, with no sign change.
    """
    if len(over_at) != len(cs.crossings):
        raise HeightError("one overpass choice per crossing required")
    if not cs.crossings:
        return Polynomial.const(1), 0
    signs = gauss_sequence(cs, over_at)
    bounds = cs.param_bounds
    roots: list[Fraction] = []
    for k in range(len(signs) - 1):
        if signs[k] != signs[k + 1]:
            roots.append(_simplest_dyadic(bounds[k][1], bounds[k + 1][0]))
    c = Polynomial.from_roots(roots)
    if _sign_on_interval(c, bounds[0]) != signs[0]:
        c = -c
    for k, g in enumerate(signs):
        if _sign_on_interval(c, bounds[k]) != g:
            raise HeightError(f"sign verification failed at parameter {k}")
    return c, len(roots)


def _simplest_dyadic(lo: Fraction, hi: Fraction) -> Fraction:
    """The dyadic rational strictly between lo < hi with the least
    denominator; of several integers, the one nearest 0."""
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -_simplest_dyadic(-hi, -lo)
    d = 1
    while True:
        n = lo.numerator * d // lo.denominator + 1  # the least n with n / d > lo
        if n * hi.denominator < hi.numerator * d:
            return Fraction(n, d)
        d *= 2


def _sign_on_interval(p: Polynomial, iv: tuple[Fraction, Fraction]) -> int:
    """The sign of p at both ends of iv, read from integers: the sign of
    p(n / d) is that of d^deg p * den * p(n / d) for d > 0."""
    s_lo, s_hi = (_sign(_value(p.cs, e.numerator, e.denominator)) for e in iv)
    if s_lo != s_hi or s_lo == 0:
        raise HeightError("height polynomial has a root inside a parameter interval")
    return s_lo


def crossing_signs(curve: PlaneCurve, z: Polynomial) -> list[int]:
    """+1 where the earlier-parameter strand passes over, else -1, exactly,
    at each of the curve's crossings (`curve_crossings`).

    z(t) - z(s) = (t - s) Zh(u) on a crossing pair, and t < s, so the
    sign is read off -Zh at the isolated symmetric coordinate.
    """
    cs = curve.crossings
    Zh, _ = _pair_reduction(z, curve._eliminator.v)
    out = []
    for c, s in zip(cs.crossings, signs_at_roots(Zh, [c.u for c in cs.crossings])):
        if s == 0:
            raise EmbeddingError(
                f"z does not separate the crossing near u in "
                f"({float(c.u.lo):.4f}, {float(c.u.hi):.4f})"
            )
        out.append(-s)
    return out


def crossing_handedness(curve: PlaneCurve, z: Polynomial) -> list[int]:
    """Geometric twist sense of each crossing, in x-order, exactly.

    The twist sense is unoriented: it is the crossing sign with both
    strands turned to run towards +x.  With t < s the parameters of the
    crossing, it is crossing_signs(curve, z), the sign of z(t) - z(s),
    times the crossing's turn: +1 when t's strand comes from above just
    left of the crossing, -1 when it comes from below.
    """
    return _hands(curve.crossings, crossing_signs(curve, z))


def _hands(cs: CrossingSet, overs: Sequence[int]) -> list[int]:
    """Handedness from the crossing signs and the crossings' turns."""
    return [over * c.turn for over, c in zip(overs, cs.crossings)]


def _signed_entries(curve: PlaneCurve, hands: Sequence[int]) -> list[int]:
    """Signed run entries of the diagram in x-order.

    The twist senses are split along the runs of the curve's word
    (`word_from_curve`), and region i's entry is (-1)^i times the sum of
    its twist senses: odd regions count right twists positively, even
    regions negatively.  The twists of one region are powers of one
    braid generator, and sigma^a sigma^b = sigma^(a+b), so a region
    whose twists differ in sense counts their sum, which may be 0
    (`cf_eval` accepts interior zeros).  A boundary zero of the word is an empty region, so
    it is a 0 entry at either end; without the trailing one the plat
    closes on the wrong side of the last region, and the fraction
    numerator differs from the knot determinant.
    """
    entries, k = [], 0
    for i, run in enumerate(word_from_curve(curve).runs):
        entries.append((-1) ** i * sum(hands[k : k + run]))
        k += run
    return entries


def _determinant(cs: CrossingSet, overs: Sequence[int]) -> int:
    """Knot determinant: |det| of a minor of the Fox coloring matrix.

    The diagram is the curve's own Gauss structure, closed through
    infinity (which adds no crossing on the sphere), so no
    normal-position assumption enters.  An arc runs from one underpass
    to the next in parameter order; crossing i contributes the row
    2 over_arc - under_in - under_out.  Any (n-1)-minor of this n x n
    integer matrix has the determinant as its absolute value.
    """
    n = len(cs.crossings)
    # parameter positions of each crossing's overpass and underpass
    visits = [p if o > 0 else p[::-1] for p, o in zip(cs.param_order, overs)]
    unders = {u for _, u in visits}
    # arc of the segment leaving each parameter position; the last
    # segment runs through infinity back into arc 0
    arc_after, arc = [], 0
    for k in range(2 * n):
        arc += k in unders
        arc_after.append(arc % n)
    rows = []
    for o, u in visits:
        row = [0] * n
        row[arc_after[o]] += 2
        row[arc_after[u - 1]] -= 1  # index -1 is the segment through infinity
        row[arc_after[u]] -= 1
        rows.append(row[1:])
    return abs(_bareiss_det(rows[1:]))


def _bareiss_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss 1968): every division is exact, entries stay minors."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def verify_embedding(
    x: Polynomial, y: Polynomial, z: Polynomial
) -> tuple[TrigonalDiagram, Optional[KnotRecord]]:
    """Extract the signed trigonal diagram of (x, y, z) and identify the knot.

    The xy-projection must be nodal and z must separate every crossing,
    which is checked exactly.  The plane curve is the one its caller
    built, if that is still alive, so its crossings are not computed
    again.  The knot is named by the class of the diagram's fraction
    (`identify_knot`); None when the catalog has no such class, as for
    the unknot.  The fraction's numerator must equal the knot
    determinant, an integer Fox coloring minor of the curve's own Gauss
    structure that assumes nothing about how the closure arc through
    infinity sits relative to the folds; EmbeddingError when they
    differ.  A curve without crossings is the unknot, which has no
    trigonal diagram: that raises EmbeddingError too.
    """
    curve = PlaneCurve(x, y)
    cs = curve_crossings(curve)
    if not cs.crossings:
        raise EmbeddingError("the curve has no crossings: it is the unknot, which has no trigonal diagram")
    overs = crossing_signs(curve, z)
    d = TrigonalDiagram(_signed_entries(curve, _hands(cs, overs)))
    alpha, det = d.fraction().alpha, _determinant(cs, overs)
    if alpha != det:
        raise EmbeddingError(f"the diagram {d} has fraction numerator {alpha}, but the knot determinant is {det}")
    return d, identify_knot(d)
