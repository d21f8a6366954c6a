"""Height polynomials and verification of full space embeddings.

Given the plane curve and a choice of overpass at every crossing, a
height polynomial with one prescribed sign per crossing parameter is
built from linear factors between consecutive parameter intervals, each
at the dyadic rational of least denominator in the gap, which keeps the
coefficients small; its degree is the number of sign changes in the
Gauss sequence.  The Gauss sequence and the parameter intervals are
placed by each `Crossing`'s ranks, the positions of its parameters
t < s in the curve's parameter order, so nothing is sorted.  The
height is built on integers: each gap's dyadic n / 2^j is read off the
integer ends of its two intervals, each over its crossing's den, and
the height is the integer product of the factors 2^j t - n over the
product of the 2^j.  The roots are the height's certificate, and it is
never evaluated: integer comparisons show that consecutive intervals
are strictly ordered and that each root lies strictly inside its gap,
so no root meets an interval, and the height's sign on each interval
is its leading sign times (-1) to the number of roots above it, the
prescribed sign by construction.

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
curve's word.  The knot is the record of the diagram's fraction, named
as everywhere else by `record_for_fraction` (None for the unknot), and
that fraction is checked against the knot determinant, found by
carrying Fox colours along the curve's three branches in x-order, one
step per crossing.  That walk reads each crossing's branches and
over/under sign and x's leading sign, but no letter, turn or fold
order, so it checks what the fraction is read from.  No floating point
decides anything.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence

from ..arith import KnotRecord, record_for_fraction
from ..diagram import TrigonalDiagram
from .curves import Crossing, PlaneCurve, _fold_pairs, _pair_reduction, curve_crossings, word_from_curve
from .poly import Polynomial, _product, signs_at_roots


class HeightError(ValueError):
    """A prescribed-sign height could not be built or verified."""


class EmbeddingError(ValueError):
    """The z-coordinate fails to separate some crossing."""


def alternating_overpasses(cs: Sequence[Crossing]) -> list[bool]:
    """Overpass choices whose Gauss sequence alternates along the curve.

    Returns, per crossing, whether the earlier parameter is the
    overpass, read off the parity of its rank.  Fails if the parameter
    interleaving is incompatible with a strictly alternating sequence.
    """
    if any(a % 2 == b % 2 for a, b in (c.ranks for c in cs)):
        raise HeightError("parameter interleaving admits no alternating Gauss sequence")
    return [c.ranks[0] % 2 == 0 for c in cs]


def gauss_sequence(cs: Sequence[Crossing], over_at: Sequence[bool]) -> list[int]:
    """Signs +-1 at the 2n crossing parameters in parameter order, placed
    at the crossings' ranks; HeightError unless there is one overpass
    choice per crossing."""
    if len(over_at) != len(cs):
        raise HeightError("one overpass choice per crossing required")
    signs = [0] * (2 * len(cs))
    for c, over in zip(cs, over_at):
        s = 1 if over else -1
        signs[c.ranks[0]], signs[c.ranks[1]] = s, -s
    return signs


def height_polynomial(cs: Sequence[Crossing], over_at: Sequence[bool]) -> tuple[Polynomial, int]:
    """Polynomial with the prescribed sign at every crossing parameter.

    Built as +-prod(t - r_j) with one root in the gap of each consecutive
    parameter pair where the sign changes, at the dyadic rational of
    least denominator there (`_simplest_dyadic`); the degree equals
    the sign-change count.  Each crossing's ranks put its two parameter
    intervals in parameter order, so nothing is sorted, and the product
    of the factors 2^j t - n is taken on integers.  Every factor is
    negative below its root, so the sign at the first parameter fixes
    the overall sign.  Certified, not evaluated: HeightError unless
    every interval ends strictly below the next one begins and every
    root lies strictly inside its gap, all compared on integers.  Then
    no root meets an interval (each contains its parameter, so
    lo <= hi), and the sign on each is the prescribed one.  Without
    crossings any height will do: the constant 1, with no sign change.
    HeightError unless there is one overpass choice per crossing
    (`gauss_sequence`).
    """
    signs = gauss_sequence(cs, over_at)
    if not cs:
        return Polynomial.const(1), 0
    ivs = [None] * len(signs)  # (lo, hi, den) in parameter order
    for c in cs:
        ivs[c.ranks[0]], ivs[c.ranks[1]] = (*c.t, c.den), (*c.s, c.den)
    gaps = list(zip(ivs, ivs[1:]))
    for k, (a, b) in enumerate(gaps):
        if a[1] * b[2] >= b[0] * a[2]:
            raise HeightError(f"parameter intervals {k} and {k + 1} are not strictly ordered")
    degree = sum(sa != sb for sa, sb in zip(signs, signs[1:]))
    zs, den = [-signs[0] if degree % 2 else signs[0]], 1
    for k, (a, b) in enumerate(gaps):
        if signs[k] != signs[k + 1]:
            n, e = _simplest_dyadic(a[1], a[2], b[0], b[2])
            if not (a[1] * e < n * a[2] and n * b[2] < b[0] * e):
                raise HeightError(f"the root {n}/{e} is not strictly between parameter intervals {k} and {k + 1}")
            zs = _product(zs, (-n, e))
            den *= e
    return Polynomial.from_integers(zs, den), degree


def _simplest_dyadic(a: int, p: int, b: int, q: int) -> tuple[int, int]:
    """(n, 2^j): the dyadic rational strictly between a / p < b / q, for
    p, q > 0, with the least denominator; of several integers, the one
    nearest 0.  n / 2^j is in lowest terms.  The caller has checked
    a / p < b / q: without it the search never ends."""
    if a < 0 < b:
        return 0, 1
    if b <= 0:
        n, d = _simplest_dyadic(-b, q, -a, p)
        return -n, d
    d = 1
    while True:
        n = a * d // p + 1  # the least n with n / d > a / p
        if n * q < b * d:
            return n, d
        d *= 2


def crossing_signs(curve: PlaneCurve, z: Polynomial) -> list[int]:
    """+1 where the earlier-parameter strand passes over, else -1, exactly,
    at each of the curve's crossings (`curve_crossings`).

    z(t) - z(s) = (t - s) Zh(u) on a crossing pair, and t < s, so the
    sign is read off -Zh at the isolated symmetric coordinate.
    """
    cs = curve.crossings
    Zh, _ = _pair_reduction(z, curve.x)
    out = []
    for c, s in zip(cs, signs_at_roots(Zh, [c.u for c in cs])):
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


def _hands(cs: Sequence[Crossing], overs: Sequence[int]) -> list[int]:
    """Handedness from the crossing signs and the crossings' turns."""
    return [over * c.turn for over, c in zip(overs, cs)]


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


def _determinant(curve: PlaneCurve, overs: Sequence[int]) -> int:
    """Knot determinant, by Fox colours carried along the curve's three
    branches in x-order.

    Between the folds the curve is a 3-strand braid along x, one strand
    per branch, and the closure arc through infinity joins the third
    branches of the two folds, the branches that leave the band.  Just
    right of the left fold, its joined pair (`_fold_pairs`) has colour 1
    and the third branch colour 0.  At each crossing, in x-order, the
    under branch takes 2 over - under, the over branch being t's where
    ``overs`` is +1.  A colouring closes when, at the right fold, the
    joined pair agrees and the third branch is back at 0.  Colourings
    are linear in the two starting colours and the constant ones always
    close, so the determinant is the gcd of the two closing defects.
    Only the branches and the sign of x's lead are read: no letter, turn
    or fold order.
    """
    left, (p, q) = _fold_pairs(curve.x)
    colour = [int(b in left) for b in range(3)]
    for c, over in zip(curve.crossings, overs):
        o, u = c.branches if over > 0 else c.branches[::-1]
        colour[u] = 2 * colour[o] - colour[u]
    return gcd(colour[p] - colour[q], colour[3 - p - q])  # 3 - p - q: the branch beside the right fold's pair


def verify_embedding(
    x: Polynomial, y: Polynomial, z: Polynomial
) -> tuple[TrigonalDiagram, Optional[KnotRecord]]:
    """Extract the signed trigonal diagram of (x, y, z) and identify the knot.

    The xy-projection must be nodal and z must separate every crossing,
    which is checked exactly.  The plane curve is the one its caller
    built, if that is still alive, so its crossings are not computed
    again.  The knot is the record of the diagram's fraction
    (`record_for_fraction`): its catalog row, or off the catalog a
    record named by its class key; None only for the unknot, alpha = 1.
    The fraction's numerator must equal the knot determinant, read by
    Fox colours along the curve's branches (`_determinant`), which read
    no letter or turn; EmbeddingError when they differ.  A curve
    without crossings is the unknot, which has no trigonal diagram:
    that raises EmbeddingError too.
    """
    curve = PlaneCurve(x, y)
    cs = curve_crossings(curve)
    if not cs:
        raise EmbeddingError("the curve has no crossings: it is the unknot, which has no trigonal diagram")
    overs = crossing_signs(curve, z)
    d = TrigonalDiagram(_signed_entries(curve, _hands(cs, overs)))
    f, det = d.fraction(), _determinant(curve, overs)
    if f.alpha != det:
        raise EmbeddingError(f"the diagram {d} has fraction numerator {f.alpha}, but the knot determinant is {det}")
    return d, None if f.alpha == 1 else record_for_fraction(f)
