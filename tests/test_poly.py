from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexiknot.curvelab.curves import _sqrt_bounds
from lexiknot.curvelab.poly import (
    Polynomial,
    _pseudo_divide,
    _squarefree_isolation,
    chebyshev,
    isolate_real_roots,
    sign_at_root,
    signs_at_roots,
)
from heightref import from_roots

P = Polynomial


def refined_below(r, width):
    """Halve an isolating interval until it is narrower than width."""
    while r.hi - r.lo >= width:
        r = r.refine()
    return r


class TestChebyshev:
    def test_small(self):
        assert chebyshev(2).coeffs == (-1, 0, 2)
        assert chebyshev(3).coeffs == (0, -3, 0, 4)
        assert chebyshev(4).coeffs == (1, 0, -8, 0, 8)

    def test_defining_property_on_samples(self):
        # T_n(T_m) = T_m(T_n) = T_{mn}
        t12 = chebyshev(3).compose(chebyshev(4))
        assert t12.coeffs == chebyshev(12).coeffs


class TestArithmetic:
    def test_divmod(self):
        # pseudo-division on integers: m a = q b + r with m > 0, deg r < deg b
        a, b = (2, 0, -3, 1), (-1, 2)
        m, q, r = _pseudo_divide(a, b)
        assert (m, q, r) == (8, [-5, -10, 4], [11])
        assert P(a) * P.const(m) == P(q) * P(b) + P(r)

    def test_gcd_of_common_factor(self):
        f = P([-1, 1]) * P([2, 1])
        g = P([-1, 1]) * P([5, 3])
        assert f.gcd(g).coeffs == P([-1, 1]).coeffs

    def test_compose_with_a_shift(self):
        p = P([0, 0, 1])  # t^2
        assert p.compose(P([3, 1])).coeffs == (9, 6, 1)

    def test_parse(self):
        assert P.parse("0,-3,0,1").coeffs == (0, -3, 0, 1)
        assert P.parse("").is_zero()
        for text in ("0,-3,,1", ",1", "1,"):
            with pytest.raises(ValueError):
                P.parse(text)


class TestRoots:
    def test_isolation_counts(self):
        p = from_roots([-2, Fraction(1, 3), 5])
        roots = isolate_real_roots(p)
        assert len(roots) == 3
        for r, expect in zip(roots, (-2, Fraction(1, 3), 5)):
            assert r.lo < expect < r.hi

    def test_no_real_roots(self):
        assert isolate_real_roots(P([1, 0, 1])) == []

    def test_multiple_roots_isolated_once(self):
        p = from_roots([1, 1, 2])
        assert len(isolate_real_roots(p)) == 2

    def test_isolating_polynomial_is_squarefree(self):
        roots = isolate_real_roots(P([-1, 1]) * P([-1, 1]) * P([1, 1]))  # (t - 1)^2 (t + 1)
        assert len(roots) == 2
        for r in roots:
            assert r.poly.degree == 2
            assert r.poly(1) == 0 and r.poly(-1) == 0

    def test_isolation_computes_no_gcd(self, monkeypatch):
        # one remainder chain of (p, p') per isolation; its last element
        # gives the squarefree part
        def forbidden(self, other):
            raise AssertionError("isolate_real_roots computed a gcd")

        monkeypatch.setattr(P, "gcd", forbidden)
        assert len(isolate_real_roots(chebyshev(7))) == 7
        assert len(isolate_real_roots(from_roots([1, 1, 2, 2, 2, -3]))) == 3

    def test_isolation_on_a_box(self):
        # only the roots in the box, and a root at an end is moved inside
        # by widening that end; the squarefree part is still the whole one
        p = from_roots([-5, 1, 1, Fraction(5, 2), 3, 7])
        sf, roots = _squarefree_isolation(p, (1, 3))
        assert sf.degree == 5
        assert len(roots) == 3
        for r, x in zip(roots, (1, Fraction(5, 2), 3)):
            assert r.lo < x < r.hi
        assert roots[0].lo >= 0 and roots[-1].hi <= 4
        assert _squarefree_isolation(p, (-4, 0))[1] == []

    def test_count_roots(self):
        # isolation counts the roots, and signs of t - c at them count
        # those above c
        roots = isolate_real_roots(from_roots([-1, 0, 1]))
        assert len(roots) == 3
        assert signs_at_roots(P([Fraction(-1, 2), 1]), roots) == [-1, -1, 1]

    def test_sign_at_root(self):
        p = from_roots([2])  # root t = 2
        root = isolate_real_roots(P([-4, 0, 1]))[1]  # sqrt(4)... root 2 of t^2-4
        h = P([-1, 1])  # t - 1, positive at 2
        assert sign_at_root(h, root) == 1
        assert sign_at_root(P([3, -1]), root) == 1  # 3 - t at 2 -> 1
        assert signs_at_roots(P([-4, 0, 1]), [root]) == [0]
        assert p(2) == 0

    def test_sign_at_root_builds_no_sturm_chain(self, monkeypatch):
        import lexiknot.curvelab.poly as poly

        roots = isolate_real_roots(chebyshev(7))

        def forbidden(p):
            raise AssertionError("sign_at_root built a Sturm chain")

        monkeypatch.setattr(poly, "sturm_sequence", forbidden)
        h = chebyshev(5) - P([Fraction(1, 3)])  # T_5 = 1/3 at no root of T_7
        tight = [refined_below(r, Fraction(1, 10**12)) for r in roots]
        expected = [1 if h(r.mid) > 0 else -1 for r in tight]
        assert [sign_at_root(h, r) for r in roots] == signs_at_roots(h, roots) == expected
        assert signs_at_roots(chebyshev(21), roots) == [0] * 7  # T_7 divides T_21

    def test_signs_at_roots_certify_each_pair_once(self, monkeypatch):
        import lexiknot.curvelab.poly as poly

        W = from_roots([-3, 1, 2]) * P([-2, 0, 1])  # roots -3, -sqrt 2, 1, sqrt 2, 2
        roots = isolate_real_roots(W)
        other = isolate_real_roots(P([-5, 0, 1]))  # +-sqrt 5, a second W
        certified, gcds = [], []
        coprime, gcd = poly._coprime_mod_prime, P.gcd
        monkeypatch.setattr(poly, "_coprime_mod_prime", lambda f, g: certified.append(g) or coprime(f, g))
        monkeypatch.setattr(P, "gcd", lambda a, b: gcds.append(b) or gcd(a, b))
        cases = (
            (from_roots([2, 5]) * P([-2, 0, 1]), [1, 0, -1, 0, 0]),  # zero at +-sqrt 2 and 2
            (P([Fraction(1, 2), 1]), [-1, -1, 1, 1, 1]),
            (P([0]), [0] * 5),
        )
        for h, signs in cases:
            certified.clear()
            gcds.clear()
            assert signs_at_roots(h, roots) == signs
            assert len(certified) == (0 if h.is_zero() else 1)  # one per call, whatever the root count
            assert len(gcds) <= len(certified)
        assert signs_at_roots(P([1, 1]), []) == []
        with pytest.raises(ValueError, match="one polynomial"):
            signs_at_roots(P([1, 1]), roots + other)

    def test_signs_at_roots_check_the_roots_before_a_zero_h(self):
        roots = isolate_real_roots(P([-2, 0, 1])) + isolate_real_roots(P([-5, 0, 1]))
        with pytest.raises(ValueError, match="one polynomial"):
            signs_at_roots(P([]), roots)

    def test_a_root_where_h_vanishes_asks_no_sign_at_it(self, monkeypatch):
        import lexiknot.curvelab.poly as poly

        roots = isolate_real_roots(from_roots([-3, 1, 2]) * P([-2, 0, 1]))  # -3, -sqrt 2, 1, sqrt 2, 2
        asked, sign = [], poly.sign_at_root
        monkeypatch.setattr(poly, "sign_at_root", lambda h, r: asked.append(r) or sign(h, r))
        assert signs_at_roots(from_roots([1]) * P([-2, 0, 1]), roots) == [-1, 0, 0, 0, 1]
        assert asked == [roots[0], roots[4]]

    def test_sign_at_root_raises_where_h_vanishes(self):
        roots = isolate_real_roots(P([-2, 0, 1]))
        for h in (P([-2, 0, 1]), P([-4, 0, 2]) * P([3, 1])):
            with pytest.raises(RuntimeError, match="vanish at the root"):
                sign_at_root(h, roots[1])
        # and only there: t - floor(sqrt(2) 2^k) / 2^k is nonzero at sqrt(2),
        # and at k = 260 the mean value test needs more halvings than the cap
        for bits in (200, 260):
            h = P([-Fraction(isqrt(2 << 2 * bits), 1 << bits), 1])
            assert signs_at_roots(h, roots) == [sign_at_root(h, r) for r in roots] == [-1, 1]
        with pytest.raises(ValueError, match="zero polynomial"):
            sign_at_root(P([]), roots[0])

    @pytest.mark.parametrize("p, bisection", [(from_roots(range(1, 16)), 57), (chebyshev(25), 35)])
    def test_sign_grid_costs_no_extra_chain_evaluation(self, p, bisection, monkeypatch):
        # Wilkinson-15 and T25 on their Cauchy boxes hold too many roots
        # for the grid's cost rule at first, and then some grid tries fail:
        # still no more Sturm-chain evaluations than bisection alone took
        import lexiknot.curvelab.poly as poly

        variations, calls = poly._variations, []
        monkeypatch.setattr(poly, "_variations", lambda *a: calls.append(a) or variations(*a))
        assert len(isolate_real_roots(p)) == p.degree
        assert len(calls) <= bisection

    def test_refinement(self):
        root = isolate_real_roots(P([-2, 0, 1]))[1]  # sqrt(2)
        tight = refined_below(root, Fraction(1, 10**6))
        assert tight.hi - tight.lo < Fraction(1, 10**6)
        assert tight.lo < Fraction(141421356, 10**8) < tight.hi


# A plain Fraction reference: tuples of Fraction coefficients, ascending,
# without trailing zeros.


def ref(cs) -> tuple[Fraction, ...]:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_compose(a, b):
    out = ()
    for c in reversed(a):
        out = ref_add(ref_mul(out, b), (c,))
    return out


def ref_gcd(a, b):
    """Monic gcd by Euclid's algorithm on Fractions."""
    while b:
        r = list(a)
        while len(r) >= len(b):
            q = r[-1] / b[-1]
            s = len(r) - len(b)
            for i, c in enumerate(b):
                r[s + i] -= q * c
            r = list(ref(r[:-1]))
        a, b = b, ref(r)
    return tuple(c / a[-1] for c in a)


def in_normal_form(p: Polynomial) -> bool:
    return p.den > 0 and gcd(p.den, *p.cs) == 1 and (not p.cs or p.cs[-1] != 0)


rationals = st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=12))
coefficient_lists = st.lists(rationals, max_size=6)


@settings(max_examples=150, deadline=None)
@given(coefficient_lists, coefficient_lists, rationals, st.integers(-5, 5).filter(bool))
@example([Fraction(1, 2), 0, 0], [0, 0], Fraction(0), -1)  # trailing zeros, a zero polynomial
@example([Fraction(2, 3), Fraction(-4, 3)], [Fraction(1, 6), Fraction(1, 3)], Fraction(-3, 2), 4)
def test_integer_polynomial_matches_a_fraction_reference(a, b, c, k):
    p, q = P(a), P(b)
    ra, rb, c = ref(a), ref(b), Fraction(c)
    results = [
        (p, ra),
        (p + q, ref_add(ra, rb)),
        (p - q, ref_add(ra, tuple(-x for x in rb))),
        (-p, tuple(-x for x in ra)),
        (p * q, ref_mul(ra, rb)),
        (p * P.const(c), ref(x * c for x in ra)),
        (p.derivative(), ref(i * x for i, x in enumerate(ra))[1:] if ra else ()),
        (p.compose(q), ref_compose(ra, rb)),
        (p.compose(P([c, 1])), ref_compose(ra, (c, Fraction(1)))),
    ]
    if ra or rb:
        results.append((p.gcd(q), ref_gcd(ra, rb)))
    for got, want in results:
        # the integer pair is the normal form of the rationals, so equal
        # polynomials compare and hash equal however they were built
        assert got.coeffs == want and got.degree == len(want) - 1
        assert in_normal_form(got)
        assert got.coeffs == tuple(Fraction(x, got.den) for x in got.cs)
        same = P(list(want) + [0])
        assert got == same and hash(got) == hash(same)
        scaled = P.from_integers([k * x for x in got.cs], k * got.den)
        assert scaled == got and hash(scaled) == hash(got) and in_normal_form(scaled)
    assert p(c) == sum((x * c**i for i, x in enumerate(ra)), Fraction(0))
    assert (p == q) == (ra == rb)
    if ra:
        assert p.coeffs[-1] == ra[-1]


def test_sqrt_bounds():
    # integer bounds over den 2^32, the isqrt taken on the reduced radicand
    # whatever common factor n and den carry
    for x in (Fraction(2), Fraction(9), Fraction(1, 4), Fraction(0), Fraction(7, 12)):
        for k in (1, 3, 1 << 20):
            n, den = x.numerator * k, x.denominator * k
            ilo, ihi = _sqrt_bounds(n, den)
            lo, hi = Fraction(ilo, den << 32), Fraction(ihi, den << 32)
            assert lo * lo <= x <= hi * hi
            assert hi - lo == Fraction(1, x.denominator << 32) <= Fraction(1, 1 << 30)
            assert (lo, hi) == (Fraction(ilo // k, x.denominator << 32), Fraction(ihi // k, x.denominator << 32))
    with pytest.raises(ValueError):
        _sqrt_bounds(-1, 1)
