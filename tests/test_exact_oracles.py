"""The exact primitives of the curve lab against sympy as an independent oracle."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lexiknot.curvelab import poly as poly_module
from lexiknot.curvelab.curves import _disc_box, _pair_discriminant, _pair_reduction
from lexiknot.curvelab.poly import (
    Polynomial,
    RootInterval,
    _enclose,
    _pseudo_divide,
    _squarefree_isolation,
    _value,
    chebyshev,
    isolate_real_roots,
    sign_at_root,
    signs_at_quadratic_roots,
    signs_at_roots,
)
from foxref import bareiss_det
from heightref import from_roots

sympy = pytest.importorskip("sympy")
t, s = sympy.symbols("t s")
small = st.integers(-6, 6)
rational = st.one_of(small, st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))
PRIME = (1 << 61) - 1  # the modulus of the coprimality certificate in signs_at_roots


def _sympy_poly(p: Polynomial):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], t)


def _at(p: Polynomial, point):
    return _sympy_poly(p).as_expr().subs(t, point)


def _real_roots(p: Polynomial) -> list:
    return sorted(set(sympy.real_roots(_sympy_poly(p))), key=lambda r: sympy.N(r, 30))


def _sympy_sign(h: Polynomial, root) -> int:
    """Exact zero test through the minimal polynomial, else a 60-digit value."""
    if h.is_zero():
        return 0
    minpoly = sympy.Poly(sympy.minimal_polynomial(root, t), t)
    if _sympy_poly(h).rem(minpoly).is_zero:
        return 0
    return int(sympy.sign(sympy.N(_sympy_poly(h).as_expr().subs(t, root), 60)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(small, min_size=2, max_size=4),
    st.lists(small, min_size=1, max_size=4),
    st.lists(small, min_size=1, max_size=5),
    st.booleans(),
)
def test_roots_and_signs_agree_with_sympy(f_coeffs, g_coeffs, h_coeffs, share):
    # W = f g, and h shares the factor f with W when `share`, so exact
    # zeros and repeated roots are drawn as well as nonzero signs
    f, g, h = Polynomial(f_coeffs), Polynomial(g_coeffs), Polynomial(h_coeffs)
    W = f * g
    if W.degree < 1:
        return
    if share:
        h = h * f
    roots = isolate_real_roots(W)
    expected = _real_roots(W)
    assert len(roots) == len(expected)
    for r, rho in zip(roots, expected):
        assert r.lo < rho < r.hi
    assert signs_at_roots(h, roots) == [_sympy_sign(h, rho) for rho in expected]


def _same(p: Polynomial, expected) -> bool:
    return sympy.expand(_sympy_poly(p).as_expr() - expected.as_expr()) == 0


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _assert_isolating(r: RootInterval) -> None:
    """(a/d, b/d) with a < b, d a power of two, and sa the sign of W at a/d."""
    assert r.d > 0 and r.d & (r.d - 1) == 0
    assert r.a < r.b
    assert r.sa == _sign(_value(r.poly.primitive, r.a, r.d)) != 0
    assert (r.lo, r.hi, r.mid) == (Fraction(r.a, r.d), Fraction(r.b, r.d), Fraction(r.a + r.b, 2 * r.d))


@settings(max_examples=60, deadline=None)
@given(st.lists(small, min_size=2, max_size=8), st.integers(0, 5))
@example([-1, 4], 5)  # W = 4u - 1: the fourth halving lands on the root 1/4
def test_isolating_endpoints_are_dyadic_and_enclose_the_roots(coeffs, halvings):
    # every interval keeps its invariants and its root under any number
    # of halvings
    W = Polynomial(coeffs)
    assume(W.degree >= 1)
    roots, expected = isolate_real_roots(W), _real_roots(W)
    assert len(roots) == len(expected)
    for r, rho in zip(roots, expected):
        for _ in range(halvings + 1):
            _assert_isolating(r)
            assert r.lo < rho < r.hi
            r = r.refine()


def _fraction(q) -> Fraction:
    return Fraction(int(q.p), int(q.q))


def _checked_isolation(W: Polynomial, box=None) -> tuple[list[RootInterval], int]:
    """W's roots isolated on the box (all of them when None) and the
    Sturm-chain evaluations it took, checked against sympy's own exact
    isolation of W's squarefree part (`Poly.intervals`, the one
    `real_roots` is built on): the intervals are sorted and disjoint,
    each holds exactly one real root, and every root in the closed box
    lies in one of them."""
    evaluations = []
    variations = poly_module._variations
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly_module, "_variations", lambda *a: evaluations.append(a) or variations(*a))
        roots = _squarefree_isolation(W, box)[1]
    P = _sympy_poly(W).sqf_part()
    oracle = [(_fraction(a), _fraction(b)) for (a, b), _ in P.intervals()]
    assert len(oracle) == len(sympy.real_roots(P))

    def sign_of(f, q: Fraction) -> int:
        return int(sympy.sign(f.eval(sympy.Rational(q.numerator, q.denominator))))

    def side(k: int, q: Fraction) -> int:
        """The sign of oracle root k minus q.  sympy's interval [a, b] is
        a rational root when a = b, and otherwise holds its root in the
        open (a, b), where the ends may be other, rational, roots; so for
        q inside, the root is below q exactly when P's sign just right of
        a, read off P' when P(a) = 0, differs from its sign at q."""
        a, b = oracle[k]
        if a == b:
            return (a > q) - (a < q)
        if not a < q < b:
            return 1 if q <= a else -1
        sq = sign_of(P, q)
        if sq == 0:
            return 0
        return -1 if (sign_of(P, a) or sign_of(P.diff(t), a)) != sq else 1

    for r in roots:
        _assert_isolating(r)
    assert all(r.hi <= n.lo for r, n in zip(roots, roots[1:]))
    held = [[k for k in range(len(oracle)) if side(k, r.lo) > 0 > side(k, r.hi)] for r in roots]
    assert all(len(ks) == 1 for ks in held), held
    in_box = [k for k in range(len(oracle)) if box is None or side(k, box[0]) >= 0 >= side(k, box[1])]
    assert set(in_box) <= {ks[0] for ks in held}
    return roots, len(evaluations)


def test_grid_isolation_of_t3_tb_agrees_with_sympy():
    # the dyadic sign grid certifies W's roots on the discriminant box
    # with fewer chain evaluations than bisection alone needs: past the
    # two box-end counts, k roots take k - 1 midpoint evaluations by
    # bisection, and far fewer here
    T3 = chebyshev(3)
    for b in range(2, 33):
        roots, evaluations = _checked_isolation(_pair_reduction(chebyshev(b), T3)[0], _disc_box(_pair_discriminant(T3)))
        assert len(roots) == (0 if b % 3 == 0 else b - 1)
        if len(roots) >= 6:
            assert evaluations - 2 < len(roots) - 1, (b, evaluations)


@settings(max_examples=60, deadline=None)
@given(st.lists(small, min_size=2, max_size=12), st.one_of(st.none(), st.tuples(st.integers(-4, 3), st.integers(1, 5))))
@example([0, -6, 0, 1, 0, 0, 0, 0, 1], None)
def test_isolation_of_random_polynomials_agrees_with_sympy(coeffs, box):
    W = Polynomial(coeffs)
    assume(W.degree >= 1)
    _checked_isolation(W, None if box is None else (box[0], box[0] + box[1]))


@pytest.mark.parametrize(
    "W, box",
    [
        # roots on grid points: the grid meets a root, so it cannot certify
        (from_roots([Fraction(k, 8) for k in (1, 2, 3)] + [3, 4, 5, 6]), (0, 1)),
        (from_roots([-1, 0, 1]) * Polynomial([1, 0, 1]) * Polynomial([2, 0, 1]), None),
        # clustered roots: a cell of the grid holds several
        (from_roots([Fraction(k, 1000) for k in (1, 2, 3)] + [2, 3, 4, 5]), (0, 1)),
        (from_roots([Fraction(k, 1000) for k in range(-3, 4)] + [2, 3]), None),
        # too many roots for the cost rule at first: Wilkinson-15 and T25
        (from_roots(range(1, 16)), None),
        (chebyshev(25), None),
    ],
)
def test_isolation_falls_back_to_bisection_and_agrees_with_sympy(W, box):
    roots, evaluations = _checked_isolation(W, box)
    assert roots and evaluations > 2  # at least one midpoint split


def test_refine_shrinks_around_a_root_hit_exactly_by_the_midpoint():
    # W = 4u - 1 on (0, 1/2): the midpoint 1/4 is the root, and the
    # interval shrinks symmetrically around it to (3/16, 5/16)
    r = RootInterval(Polynomial([-1, 4]), 0, 1, 2, -1).refine()
    assert (r.a, r.b, r.d, r.sa) == (3, 5, 16, -1)
    _assert_isolating(r)


def _forbidden_gcd(a, b):
    raise AssertionError("the coprimality certificate fell back to a rational gcd")


@settings(max_examples=60, deadline=None)
@given(st.lists(small, min_size=2, max_size=5), st.lists(small, min_size=1, max_size=5))
def test_certificate_decides_coprime_pairs_without_a_rational_gcd(w_coeffs, h_coeffs):
    # the resultant of two such small polynomials is below 2^61 - 1 in
    # absolute value (Hadamard), so a nonzero one is a unit modulo the
    # prime and the certificate cannot fail on a coprime pair
    W, h = Polynomial(w_coeffs), Polynomial(h_coeffs)
    assume(W.degree >= 1 and not h.is_zero())
    assume(sympy.gcd(_sympy_poly(W), _sympy_poly(h)).degree() == 0)
    roots, expected = isolate_real_roots(W), _real_roots(W)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polynomial, "gcd", _forbidden_gcd)
        assert signs_at_roots(h, roots) == [_sympy_sign(h, rho) for rho in expected]


def _signs_and_gcds(h: Polynomial, W: Polynomial) -> tuple[list[int], list[int], int]:
    calls = []
    gcd = Polynomial.gcd
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polynomial, "gcd", lambda a, b: calls.append(a) or gcd(a, b))
        signs = signs_at_roots(h, isolate_real_roots(W))
    return signs, [_sympy_sign(h, rho) for rho in _real_roots(W)], len(calls)


def test_certificate_falls_back_when_the_prime_divides_a_lead():
    # h = (2^61 - 1) t + 1 loses its degree modulo the prime
    W = Polynomial([-2, 0, 1])
    signs, expected, gcds = _signs_and_gcds(Polynomial([1, PRIME]), W)
    assert signs == expected == [-1, 1]
    assert gcds == 1  # one per call, whatever the root count
    signs, expected, gcds = _signs_and_gcds(W, Polynomial([1, PRIME]))  # W at -1/p
    assert signs == expected == [-1]
    assert gcds == 1
    # here the images modulo p are coprime although h and W share p t + 1:
    # only the fallback sees the zero at -1/p
    shared = Polynomial([1, PRIME])
    signs, expected, gcds = _signs_and_gcds(shared * Polynomial([2, 1]), shared * Polynomial([-1, 1]))
    assert signs == expected == [0, 1]
    assert gcds == 1


def test_certificate_falls_back_on_a_factor_shared_only_modulo_the_prime():
    # h = W + p t equals W modulo p, yet gcd(h, W) = gcd(p t, W) = 1 over Q
    W = Polynomial([-2, 0, 1])
    signs, expected, gcds = _signs_and_gcds(W + Polynomial([0, PRIME]), W)
    assert signs == expected == [-1, 1]
    assert gcds == 1


def test_a_shared_factor_gives_zero():
    W = from_roots([5]) * Polynomial([-2, 0, 1])
    h = from_roots([-3]) * Polynomial([-2, 0, 1])
    signs, expected, gcds = _signs_and_gcds(h, W)
    assert signs == expected == [0, 0, 1]
    assert gcds == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(small, min_size=1, max_size=6), st.lists(small, min_size=1, max_size=5))
def test_division_gcd_and_values_agree_with_sympy(a_coeffs, b_coeffs):
    a = Polynomial(a_coeffs) * Polynomial.const(Fraction(1, 3))
    b = Polynomial(b_coeffs)
    assume(not b.is_zero())
    # pseudo-division, which Sturm chains and gcds run on: m a = q b + r
    # with an integer m > 0 and deg r < deg b, so q/m and r/m are the
    # rational quotient and remainder
    m, q, r = _pseudo_divide(a.primitive, b.primitive)
    assert m > 0 and len(r) < len(b.primitive)
    ap, bp, qp, rp = (Polynomial(c) for c in (a.primitive, b.primitive, q, r))
    assert ap * Polynomial.const(m) == qp * bp + rp
    sq, sr = sympy.div(_sympy_poly(ap), _sympy_poly(bp))
    assert _same(qp * Polynomial.const(Fraction(1, m)), sq) and _same(rp * Polynomial.const(Fraction(1, m)), sr)
    assert _same(a * b, _sympy_poly(a) * _sympy_poly(b))
    expected = sympy.gcd(_sympy_poly(a), _sympy_poly(b))
    assert _same(a.gcd(b), expected.monic() if not expected.is_zero else expected)
    for x in (Fraction(-7, 4), Fraction(0), Fraction(5, 3)):
        assert a(x) == _at(a, sympy.Rational(x.numerator, x.denominator))


@settings(max_examples=60, deadline=None)
@given(st.lists(small, min_size=1, max_size=6), st.integers(-40, 40), st.integers(0, 40), st.integers(0, 4))
def test_interval_enclosure_is_interval_horner(coeffs, lo_num, width, k):
    # the integer enclosure over [a/d, b/d] is the Fraction interval
    # Horner scaled by den d^n: equal, not just containing
    p = Polynomial(coeffs) * Polynomial.const(Fraction(1, 5))
    assume(not p.is_zero())
    d = 1 << k
    lo, hi = Fraction(lo_num, d), Fraction(lo_num + width, d)
    elo = ehi = Fraction(0)
    for c in reversed(p.coeffs):
        cands = (elo * lo, elo * hi, ehi * lo, ehi * hi)
        elo, ehi = min(cands) + c, max(cands) + c
    # the integer form cs / den is p's coefficients, the primitive part
    # is cs over its content, and reading the cached views changes
    # neither equality nor hash
    fresh = Polynomial(p.coeffs)
    cs, den = p.cs, p.den
    assert tuple(Fraction(c, den) for c in cs) == p.coeffs and den > 0
    content = abs(sympy.gcd_list(list(cs)))
    assert p.primitive == tuple(c // content for c in cs) and abs(sympy.gcd_list(list(p.primitive))) == 1
    assert p == fresh and hash(p) == hash(fresh) and {p: 1}[fresh] == 1
    ilo, ihi = _enclose(cs, lo_num, lo_num + width, d)
    scale = den * d**p.degree
    assert (Fraction(ilo, scale), Fraction(ihi, scale)) == (elo, ehi)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_bareiss_matches_sympy(rows):
    expected = sympy.Matrix(rows).det() if rows else 1
    assert bareiss_det(rows) == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(rational, min_size=4, max_size=4), st.lists(rational, min_size=3, max_size=6))
@example([0, 0, 1, 2], [0, 1, -2, 1])  # x = 2t^3 + t^2: v has denominator 2
@example([0, -1, 0, Fraction(2, 3)], [Fraction(1, 2), 0, 3, 0, Fraction(-5, 7)])
def test_pair_reductions_hold_modulo_the_crossing_condition(x_coeffs, q_coeffs):
    # a crossing pair t != s solves C = (x(t) - x(s))/(t - s) = 0, and in
    # Q[t, s] modulo C: q(t) - q(s) = (t - s) A_q(t + s), and the tangent
    # determinant numerator N of the curve-lab turn oracle satisfies
    # q'(t) x'(s) - q'(s) x'(t) = (t - s) N(t + s)
    x, q = Polynomial(x_coeffs), Polynomial(q_coeffs)
    assume(x.degree == 3 and x.coeffs[2] ** 2 > 3 * x.coeffs[1] * x.coeffs[3] and q.degree >= 2)
    A_q, _ = _pair_reduction(q, x)
    dq, dx = q.derivative(), x.derivative()
    A_y, B_y = _pair_reduction(dq, x)
    A_x, B_x = _pair_reduction(dx, x)
    N = A_y * B_x - B_y * A_x
    C = sympy.cancel((_at(x, t) - _at(x, s)) / (t - s))
    for expr in (
        _at(q, t) - _at(q, s) - (t - s) * _at(A_q, t + s),
        _at(dq, t) * _at(dx, s) - _at(dq, s) * _at(dx, t) - (t - s) * _at(N, t + s),
    ):
        _, remainder = sympy.reduced(sympy.expand(expr), [C], t, s)
        assert remainder == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(rational, min_size=0, max_size=6), st.lists(rational, min_size=0, max_size=4))
@example([1, 2, 3], [Fraction(1, 3), Fraction(-2, 5)])
@example([Fraction(1, 2), 0, 0, 4], [])  # a zero inner polynomial: p(0)
def test_compose_agrees_with_sympy(p_coeffs, inner_coeffs):
    p, inner = Polynomial(p_coeffs), Polynomial(inner_coeffs)
    expected = _sympy_poly(p).as_expr().subs(t, _sympy_poly(inner).as_expr())
    assert sympy.expand(_sympy_poly(p.compose(inner)).as_expr() - expected) == 0


@pytest.mark.parametrize("h, sign", [(Polynomial([-1, 8]), 1), (Polynomial([1, -8]), -1)])
def test_sign_at_a_root_hit_exactly_by_a_midpoint(h, sign):
    # W = 4u - 1 on (0, 1/2): the first midpoint 1/4 is the root itself,
    # and h = +-(8u - 1) has an enclosure over (0, 1/2) that meets 0
    W = Polynomial([-1, 4])
    root = RootInterval(W, 0, 1, 2, -1)
    lo, hi = _enclose(h.cs, 0, 1, 2)
    assert lo < 0 < hi
    assert sign_at_root(h, root) == signs_at_roots(h, [root])[0] == _sympy_sign(h, sympy.Rational(1, 4)) == sign


def _check_quadratic_signs(h: Polynomial, q: Polynomial) -> tuple[int, int]:
    roots = _real_roots(q)
    assert len(roots) == 2
    signs = signs_at_quadratic_roots(h, q)
    assert signs == tuple(_sympy_sign(h, r) for r in roots), (h, q, roots)
    return signs


@settings(max_examples=80, deadline=None)
@given(st.lists(small, min_size=0, max_size=8), small, small, st.integers(-6, 6).filter(bool), st.booleans())
@example([1, 1], -1, 3, -1, False)  # lead < 0: the smaller root takes +sqrt(Delta)
@example([0, 1], 0, 2, -1, True)  # h = t q: 0 at both roots
def test_signs_at_quadratic_roots_agree_with_sympy(h_coeffs, c, b, a, times_q):
    # q = a t^2 + b t + c of either lead sign, with an irrational or a
    # perfect-square discriminant; h a multiple of q when `times_q`
    q = Polynomial([c, b, a])
    assume(b * b - 4 * a * c > 0)
    h = Polynomial(h_coeffs)
    if times_q:
        h = h * q
    signs = _check_quadratic_signs(h, q)
    if times_q:
        assert signs == (0, 0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(small, min_size=0, max_size=6),
    st.tuples(small, st.integers(1, 4)),
    st.tuples(small, st.integers(1, 4)),
    st.integers(-3, 3).filter(bool),
    st.sampled_from((None, 0, 1)),
)
@example([1], (1, 1), (2, 1), -1, 0)  # lead < 0, h vanishes at the smaller root
@example([1], (1, 1), (2, 1), -1, 1)  # lead < 0, h vanishes at the larger root
def test_signs_at_rational_folds_agree_with_sympy(h_coeffs, r1, r2, lead, shared):
    # q = lead (d1 t - n1)(d2 t - n2) has rational roots, as the folds of
    # every x of the curves workload do; h shares the factor of root
    # `shared` with q, so its sign there is 0
    roots = [Fraction(*r1), Fraction(*r2)]
    assume(roots[0] != roots[1])
    factors = [Polynomial([-r.numerator, r.denominator]) for r in roots]
    q = factors[0] * factors[1] * Polynomial([lead])
    h = Polynomial(h_coeffs)
    if shared is not None:
        h = h * factors[shared]
    signs = _check_quadratic_signs(h, q)
    if shared is not None:
        assert signs[sorted(roots).index(roots[shared])] == 0


def test_signs_at_quadratic_roots_need_two_real_roots():
    for q in (Polynomial([1, 0, 1]), Polynomial([1, 2, 1]), Polynomial([0, 1])):
        with pytest.raises(ValueError):
            signs_at_quadratic_roots(Polynomial([1]), q)
