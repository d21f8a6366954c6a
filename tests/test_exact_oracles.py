"""The exact primitives of the curve lab against sympy as an independent oracle."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lexiknot.curvelab.curves import PlaneCurve, _pair_reduction
from lexiknot.curvelab.height import _bareiss_det
from lexiknot.curvelab.poly import Polynomial, isolate_real_roots, sign_at_root

sympy = pytest.importorskip("sympy")
t, s = sympy.symbols("t s")
small = st.integers(-6, 6)


def _sympy_poly(p: Polynomial):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], t)


def _at(p: Polynomial, point):
    return _sympy_poly(p).as_expr().subs(t, point)


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
    expected = sorted(set(sympy.real_roots(_sympy_poly(W))), key=lambda r: sympy.N(r, 30))
    assert len(roots) == len(expected)
    for r, rho in zip(roots, expected):
        assert r.lo < rho < r.hi
        assert sign_at_root(h, r) == _sympy_sign(h, rho)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_bareiss_matches_sympy(rows):
    expected = sympy.Matrix(rows).det() if rows else 1
    assert _bareiss_det(rows) == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(small, min_size=4, max_size=4), st.lists(small, min_size=3, max_size=6))
def test_pair_reductions_hold_modulo_the_crossing_condition(x_coeffs, q_coeffs):
    # a crossing pair t != s solves C = (x(t) - x(s))/(t - s) = 0, and in
    # Q[t, s] modulo C: q(t) - q(s) = (t - s) A_q(t + s), and the tangent
    # determinant numerator N that height._hands builds satisfies
    # q'(t) x'(s) - q'(s) x'(t) = (t - s) N(t + s)
    x, q = Polynomial(x_coeffs), Polynomial(q_coeffs)
    assume(x.degree == 3 and x.coeffs[2] ** 2 > 3 * x.coeffs[1] * x.coeffs[3] and q.degree >= 2)
    v = PlaneCurve(x, q)._eliminator.v
    A_q, _ = _pair_reduction(q, v)
    dq, dx = q.derivative(), x.derivative()
    A_y, B_y = _pair_reduction(dq, v)
    A_x, B_x = _pair_reduction(dx, v)
    N = A_y * B_x - B_y * A_x
    C = sympy.cancel((_at(x, t) - _at(x, s)) / (t - s))
    for expr in (
        _at(q, t) - _at(q, s) - (t - s) * _at(A_q, t + s),
        _at(dq, t) * _at(dx, s) - _at(dq, s) * _at(dx, t) - (t - s) * _at(N, t + s),
    ):
        _, remainder = sympy.reduced(sympy.expand(expr), [C], t, s)
        assert remainder == 0
