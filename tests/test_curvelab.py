import gc
import itertools
import math
import os
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lexiknot.arith import SchubertFraction, default_catalog, fraction_equivalent
from lexiknot.curvelab import (
    HeightError,
    NonNodalError,
    NotTrigonalError,
    PlaneCurve,
    Polynomial,
    add_triple_point,
    alternating_overpasses,
    chebyshev,
    crossing_handedness,
    crossing_signs,
    curve_crossings,
    height_polynomial,
    isolate_real_roots,
    perturb,
    perturb_auto,
    signs_at_roots,
    verify_embedding,
    word_from_curve,
)
from lexiknot.curvelab import height as height_module
from lexiknot.curvelab.curves import BOTTOM, TOP, _disc_box, _Eliminator, _fold_height_remainder, _pair_reduction
from lexiknot.curvelab.height import _simplest_dyadic
from lexiknot.curvelab.poly import (
    _remainder_mod_quadratic,
    _squarefree_isolation,
    sign_at_root,
    signs_at_quadratic_roots,
)
from lexiknot.diagram import TrigonalDiagram
from lexiknot.planereduce import PlaneWord, project
from wordclass import same_word_class

T3 = chebyshev(3)
QUINTIC = PlaneCurve(Polynomial([0, -3, 0, 1]), Polynomial([0, 4, 0, -4, 0, 1]))
QUARTIC = PlaneCurve(Polynomial([0, -3, 0, 1]), Polynomial([-2, -2, -2, 0, 1]))
NO_CROSSINGS = PlaneCurve(T3, Polynomial([2, 2, 2, 0, -1]))


def q7(x0=Fraction(-3, 4)):
    return add_triple_point(PlaneCurve(T3, chebyshev(4)), x0, Fraction(1))


def unshared(x, y):
    """The curve (x, y), asserted to be held by no other live object: a
    curve is one object per value, so a test that counts the work of its
    cached data must build a value that nothing else keeps alive.
    Scaling y by a positive constant keeps every crossing, letter and
    twist sense, and gives such a value."""
    assert (x, y) not in PlaneCurve._live, "another live object holds this curve"
    return PlaneCurve(x, y)


class TestCrossings:
    def test_folds_need_no_isolation(self, monkeypatch):
        # the two-real-folds check, the fold sides and the letters are all
        # exact in Q(sqrt(Delta)) or read off the branch order, so nothing on
        # the crossings and word path isolates the roots of x'
        import lexiknot.curvelab.curves as curves_module

        isolated = []

        def counted(p):
            isolated.append(p)
            return isolate_real_roots(p)

        monkeypatch.setattr(curves_module, "isolate_real_roots", counted)
        c = unshared(T3, chebyshev(5) * Polynomial.const(2))
        assert word_from_curve(c, curve_crossings(c)).runs == (1, 1, 1, 1)
        assert isolated == []

    def test_word_rejects_another_curves_crossings(self):
        # (T3,T5)'s four crossings read against (T3,T4)'s folds would give
        # (0,1,1,1,1), the word of neither curve
        a, b = PlaneCurve(T3, chebyshev(4)), PlaneCurve(T3, chebyshev(5))
        with pytest.raises(ValueError, match="not the curve's own"):
            word_from_curve(a, curve_crossings(b))
        assert word_from_curve(a, curve_crossings(a)).runs == (1, 1, 1)
        assert word_from_curve(b, curve_crossings(b)).runs == (1, 1, 1, 1)

    def test_t3_t26_composes_nothing_and_halves_the_chain_evaluations(self, monkeypatch):
        # the fold sides reduce y(t) and y(S - 2t) modulo x' by Horner, and
        # the sign grid certifies W's roots: bisection alone evaluated the
        # Sturm chain 27 times on (T3,T26)
        import lexiknot.curvelab.poly as poly_module

        variations, compose, chains, composed = poly_module._variations, Polynomial.compose, [], []
        monkeypatch.setattr(poly_module, "_variations", lambda *a: chains.append(a) or variations(*a))
        monkeypatch.setattr(Polynomial, "compose", lambda p, inner: composed.append(p) or compose(p, inner))
        c = unshared(T3, chebyshev(26) * Polynomial.const(2))
        assert word_from_curve(c, curve_crossings(c)).runs == (1,) * 25
        assert composed == []
        assert 2 * len(chains) <= 27

    def test_svg_reads_the_critical_points(self, monkeypatch):
        import lexiknot.curvelab.curves as curves_module
        import lexiknot.curvelab.svg as svg_module

        isolated = []

        def counted(p):
            isolated.append(p)
            return isolate_real_roots(p)

        for module in (curves_module, svg_module):
            monkeypatch.setattr(module, "isolate_real_roots", counted, raising=False)
        c = unshared(T3, chebyshev(4) * Polynomial.const(2))
        svg_module.render_svg(c)
        assert isolated.count(T3.derivative()) == 1

    def test_chebyshev_counts(self):
        for b in (4, 5, 7, 8, 10, 11):
            cs = curve_crossings(PlaneCurve(T3, chebyshev(b)))
            assert len(cs) == b - 1

    def test_quintic(self):
        cs = curve_crossings(QUINTIC)
        assert len(cs) == 2
        assert word_from_curve(QUINTIC, cs).runs == (0, 1, 1, 0)

    def test_quartic(self):
        cs = curve_crossings(QUARTIC)
        assert len(cs) == 2
        assert same_word_class(word_from_curve(QUARTIC, cs), PlaneWord((0, 2)))

    def test_parameters_ordered(self):
        cs = curve_crossings(PlaneCurve(T3, chebyshev(5)))
        bounds = cs.param_bounds
        for a, b in zip(bounds, bounds[1:]):
            assert a[1] < b[0]
        for c in cs.crossings:
            assert c.t[1] < c.s[0]

    def test_multiple_root_of_w_is_a_tangency(self):
        x = Polynomial([0, -3, 0, 1])
        # W = -u^3: the strands at t = -sqrt(3), sqrt(3) touch at (0, -9)
        real = PlaneCurve(x, Polynomial([0, 0, -6, 0, 1]))
        # W = (u^2 + 1)^2 (5u^2 - 16): a non-real double pair beside two nodes
        non_real = PlaneCurve(x, Polynomial([0, 335, 0, 0, 0, -54, 0, 5]))
        for c in (real, non_real):
            with pytest.raises(NonNodalError, match="tangency"):
                curve_crossings(c)

    def test_tangency_read_from_the_isolation_chain(self, monkeypatch):
        import lexiknot.curvelab.poly as poly_module

        gcd, sturm, sign = Polynomial.gcd, poly_module.sturm_sequence, poly_module.sign_at_root
        chains, gcds, signs = [], [], []
        monkeypatch.setattr(Polynomial, "gcd", lambda a, b: gcds.append((a, b)) or gcd(a, b))
        monkeypatch.setattr(poly_module, "sturm_sequence", lambda p: chains.append(p) or sturm(p))
        monkeypatch.setattr(poly_module, "sign_at_root", lambda *args: signs.append(args) or sign(*args))
        c = unshared(T3, chebyshev(7) * Polynomial.const(2))
        assert len(curve_crossings(c)) == 6
        # no gcd and no sign at a root: the discriminant's sign comes off
        # each root's own enclosure
        assert gcds == [] and signs == []
        assert chains.count(c._eliminator.W) == 1

    def test_crossings_leave_no_reference_cycle(self, monkeypatch):
        # the isolation bisects from a work list, not a self-recursive
        # closure, so no Sturm chain waits for the cyclic collector; and
        # nothing the curve caches refers back to it, so reference
        # counting frees the curve as soon as its last holder drops it
        import lexiknot.curvelab.curves as curves_module

        c = unshared(T3, chebyshev(20))
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert len(curve_crossings(c)) == 19
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert garbage == 0, f"{garbage} objects in reference cycles"
        ref = weakref.ref(c)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del c
            assert ref() is None, "the curve outlived its last holder"
        finally:
            if enabled:
                gc.enable()
        body, computed = curves_module._crossings, []
        monkeypatch.setattr(curves_module, "_crossings", lambda curve: computed.append(curve) or body(curve))
        again = PlaneCurve(T3, chebyshev(20))
        assert len(curve_crossings(again)) == 19 and computed == [again]

    def test_each_root_is_refined_once(self, monkeypatch):
        # the disc sign and the clash loop carry one interval per root;
        # restarting each sign from the isolating interval took 345 and 564
        # halvings on (T3,T20) and (T3,T26), with a letter sign per root
        from lexiknot.curvelab.poly import RootInterval

        refine, calls = RootInterval.refine, []
        monkeypatch.setattr(RootInterval, "refine", lambda r: calls.append(r) or refine(r))
        for b, restarted in ((20, 345), (26, 564)):
            calls.clear()
            c = PlaneCurve(T3, chebyshev(b))
            cs = curve_crossings(c)
            assert word_from_curve(c, cs).runs == (1,) * (b - 1)
            assert 2 * len(calls) <= restarted, (b, len(calls))

    def test_w_is_isolated_only_on_the_discriminant_box(self, monkeypatch):
        # disc = 8 - 3u^2 has roots +-sqrt(8/3), so the box is [-2, 2]; of
        # W's four real roots, the one near 2.2 lies outside it and is never
        # isolated, and the solitary one near -1.935 lies in the rounding
        # margin, so its discriminant sign drops it
        import lexiknot.curvelab.curves as curves_module

        isolation, isolated = curves_module._squarefree_isolation, []

        def counted(p, box):
            sf, roots = isolation(p, box)
            isolated.append((p, len(roots)))
            return sf, roots

        monkeypatch.setattr(curves_module, "_squarefree_isolation", counted)
        c = unshared(Polynomial([0, -2, 0, 1]), Polynomial([0, -1, 1, 2, -3, 1]) * Polynomial.const(3))
        cs = curve_crossings(c)
        assert isolated == [(c._eliminator.W, 3)]
        assert len(isolate_real_roots(c._eliminator.W)) == 4
        assert len(cs) == 2 and word_from_curve(c, cs).runs == (0, 2)

    def test_root_of_w_at_a_box_end_is_still_isolated(self):
        # W = u (4 - u^2) vanishes at the discriminant's roots +-2, the box
        # ends, and both are isolated: a cusp at each fold
        c = PlaneCurve(Polynomial([0, -3, 0, 1]), Polynomial([0, 0, -2, 0, 1]))
        el = c._eliminator
        roots = _squarefree_isolation(el.W, _disc_box(el.disc))[1]
        assert len(roots) == 3 and all(r.lo < u < r.hi for r, u in zip(roots, (-2, 0, 2)))
        with pytest.raises(NonNodalError, match="cusp: y' vanishes at a fold"):
            curve_crossings(c)

    def test_a_cusp_at_an_irrational_fold_raises_there(self):
        # y' = (t + 1) x' with x' = 3t^2 - 2: W = u (8 - 3u^2) / 4 vanishes
        # at twice each fold, +-2 sqrt(2/3), inside the box [-2, 2], where
        # the discriminant 8 - 3u^2 vanishes too; the fold data name the cusp
        c = PlaneCurve(Polynomial([0, -2, 0, 1]), Polynomial([0, -2, -1, 1, Fraction(3, 4)]))
        el = c._eliminator
        assert el.W == Polynomial([0, 2, 0, Fraction(-3, 4)]) and el.disc == Polynomial([8, 0, -3])
        assert _disc_box(el.disc) == (-2, 2) and len(_squarefree_isolation(el.W, (-2, 2))[1]) == 3
        with pytest.raises(NonNodalError, match="cusp: y' vanishes at a fold"):
            curve_crossings(c)

    def test_crossings_are_the_whole_line_roots_with_positive_discriminant(self):
        rng = random.Random(21)
        xs = [Polynomial([0, -3, 0, 1]), Polynomial([0, -2, 0, 1]), Polynomial([0, -1, 0, Fraction(2, 3)])]
        checked = solitary = 0
        for _ in range(60):
            degree = rng.randint(4, 8)
            y = Polynomial([rng.randint(-3, 3) for _ in range(degree)] + [rng.choice((-1, 1))])
            c = PlaneCurve(rng.choice(xs), y)
            el = c._eliminator
            try:
                count = len(curve_crossings(c))
            except NonNodalError:
                continue
            signs = signs_at_roots(el.disc, isolate_real_roots(el.W))
            assert count == signs.count(1), (c.x, y)
            checked += 1
            solitary += signs.count(-1)
        assert checked >= 40 and solitary > 0

    def test_the_pair_discriminant_vanishes_only_where_w_is_y_prime_at_a_fold(self):
        # disc(u) = -(4/p3) x'(u/2) vanishes only at u = 2c, c a fold, and
        # W(2t) is a positive multiple of y'(t) modulo x': where the fold
        # data find no cusp, disc is nonzero at every root of W
        rng = random.Random(37)
        leads = (Fraction(2, 3), Fraction(-3, 2), Fraction(5, 4), 3, -2, Fraction(-1, 5))
        curves = [PlaneCurve(T3, chebyshev(b)) for b in range(2, 33)]
        while len(curves) < 31 + 300:
            x = Polynomial([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)] + [rng.choice(leads)])
            y = Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(2, 12))] + [1])
            try:
                curves.append(PlaneCurve(x, y * Polynomial.const(rng.choice((-1, Fraction(3, 2))))))
            except NotTrigonalError:
                continue
        for c in curves:
            el, dx = c._eliminator, c.x.derivative()
            assert el.disc == dx.compose(Polynomial([0, Fraction(1, 2)])) * Polynomial.const(-4 / c.x.coeffs[3]), c.x
            w = _remainder_mod_quadratic(el.W.primitive, (0, 2, 1), dx.primitive)
            slope = _remainder_mod_quadratic(c.y.derivative().primitive, (0, 1, 1), dx.primitive)
            assert w[0] * slope[1] == w[1] * slope[0], (c.x, c.y)
            assert [(a > 0) - (a < 0) for a in w] == [(a > 0) - (a < 0) for a in slope], (c.x, c.y)

    def test_non_trigonal_rejected(self):
        with pytest.raises(NotTrigonalError):
            PlaneCurve(Polynomial([0, 1]), chebyshev(4))
        with pytest.raises(NotTrigonalError):
            PlaneCurve(Polynomial([0, 0, 0, 1]), chebyshev(4))  # no folds


FOLD_XS = (
    T3,  # x' = 12 t^2 - 3: a lead that is no unit
    Polynomial([0, -3, 0, 1]),
    Polynomial([0, -1, 0, Fraction(2, 3)]),
    Polynomial([0, -2, Fraction(1, 3), 1]),
    Polynomial([5, Fraction(-7, 2), 3, -2]),
)
fold_rational = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))


@settings(max_examples=120, deadline=None)
@given(
    st.lists(fold_rational, min_size=0, max_size=10),
    st.one_of(st.sampled_from(FOLD_XS), st.lists(fold_rational, min_size=4, max_size=4).map(Polynomial)),
    st.booleans(),
)
@example([0, 0, 1], T3, False)
@example([0, 4, 0, -4, 0, 1], Polynomial([0, -3, 0, 1]), True)
def test_fold_height_remainder_matches_the_composition(y_coeffs, x, flip):
    # Horner modulo x' gives the signs at both folds of y(t) - y(S - 2t),
    # S the sum of x's roots, that the composed polynomial has there; x of
    # both lead signs, rational coefficients, and y of any degree
    x = -x if flip else x
    assume(x.degree == 3 and x.cs[2] ** 2 > 3 * x.cs[1] * x.cs[3])
    y, dx = Polynomial(y_coeffs), x.derivative()
    h = y - y.compose(Polynomial([Fraction(-x.cs[2], x.cs[3]), -2]))
    remainder = Polynomial.from_integers(_fold_height_remainder(x, y))
    assert signs_at_quadratic_roots(remainder, dx) == signs_at_quadratic_roots(h, dx)


# the size of the letter oracle's family; CI runs it with 3000 and 32
LETTER_ORACLE_CURVES = int(os.environ.get("LEXIKNOT_LETTER_ORACLE_CURVES", "300"))
LETTER_ORACLE_MAX_B = int(os.environ.get("LEXIKNOT_LETTER_ORACLE_MAX_B", "20"))
LETTER_ORACLE_XS = (
    Polynomial([0, -3, 0, 1]),
    Polynomial([0, 3, 0, -1]),
    Polynomial([0, -1, 0, Fraction(2, 3)]),
    Polynomial([0, -2, Fraction(1, 3), 1]),
)


def third_strand_letters(curve, cs):
    """The letters by their definition: the exact sign, at each crossing's
    u, of the third strand's height y(S - u) minus the crossing height, S
    the sum of x's roots; BOTTOM when the third strand is above."""
    S = Fraction(-curve.x.cs[2], curve.x.cs[3])
    h = curve.y.compose(Polynomial([S, -1])) - _pair_reduction(curve.y, curve._eliminator.v)[1]
    letters = []
    for sg in signs_at_roots(h, [c.u for c in cs.crossings]):
        assert sg != 0, "the third strand passes through a crossing"
        letters.append(BOTTOM if sg > 0 else TOP)
    return letters


def tangent_turns(curve, cs):
    """The turns by the tangent determinant: with T = (x', y') and t < s,
    det(T_t, T_s) = (s - t) N(u), N = A_y' B_x' - B_y' A_x', and with both
    strands run towards +x the strand of t comes from above exactly when
    that determinant is positive; x' is read at the parameter midpoints."""
    v = curve._eliminator.v
    A_y, B_y = _pair_reduction(curve.y.derivative(), v)
    A_x, B_x = _pair_reduction(curve.x.derivative(), v)
    N, dx = A_y * B_x - B_y * A_x, curve.x.derivative()
    turns = []
    for c, sn in zip(cs.crossings, signs_at_roots(N, [c.u for c in cs.crossings])):
        assert sn != 0, "the tangents are parallel at a crossing"
        directions = dx(sum(c.t) / 2) * dx(sum(c.s) / 2)
        turns.append(sn if directions > 0 else -sn)
    return turns


def x_ascends(curve, cs):
    """Whether each pair of consecutive crossings is in increasing x,
    decided exactly: both u-intervals are halved until their interval
    Horner enclosures of the crossing x(u) are disjoint.  Fails the test
    if they do not separate in 64 rounds."""
    x = _pair_reduction(curve.x, curve._eliminator.v)[1].coeffs

    def enclosure(r):
        lo = hi = Fraction(0)
        for c in reversed(x):
            ends = (lo * r.lo, lo * r.hi, hi * r.lo, hi * r.hi)
            lo, hi = min(ends) + c, max(ends) + c
        return lo, hi

    for a, b in zip((c.u for c in cs.crossings), (c.u for c in cs.crossings[1:])):
        for _ in range(64):
            (alo, ahi), (blo, bhi) = enclosure(a), enclosure(b)
            if ahi < blo or bhi < alo:
                break
            a, b = a.refine(), b.refine()
        else:
            pytest.fail(f"the x of crossings near u = {float(a.lo):.4f} and {float(b.lo):.4f} did not separate")
        if bhi < alo:
            return False
    return True


def letter_oracle_family():
    """(T3,Tb) for b <= LETTER_ORACLE_MAX_B, then seeded random curves
    over the four x-cubics: y of degree 4 to 8, integer coefficients in
    [-9, 9] and a leading +-1."""
    for b in range(2, LETTER_ORACLE_MAX_B + 1):
        yield PlaneCurve(T3, chebyshev(b))
    rng = random.Random(24)
    while True:
        degree = rng.randint(4, 8)
        y = Polynomial([rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((-1, 1))])
        yield PlaneCurve(rng.choice(LETTER_ORACLE_XS), y)


class TestWords:
    def test_branch_order_checks_raise(self):
        from lexiknot.curvelab.curves import _A, _B, _C, _letters

        # from A < B < C bottom to top, swapping A and B at the bottom and
        # then A and C at the top ends at B < C < A; both times t's branch,
        # A, is the lower one before the swap, so both turns are -1
        start, end = (_A, _B, _C), (_B, _C, _A)
        assert _letters(start, end, [(_A, _B), (_A, _C)]) == [(BOTTOM, -1), (TOP, -1)]
        # the same swaps with t on the upper branch turn the other way
        assert _letters(start, end, [(_B, _A), (_C, _A)]) == [(BOTTOM, 1), (TOP, 1)]
        with pytest.raises(NonNodalError, match="not adjacent"):
            _letters(start, end, [(_A, _C)])
        with pytest.raises(NonNodalError, match="right fold"):
            _letters(start, end, [(_A, _B)])

    def test_branch_order_letters_equal_the_third_strand_signs(self):
        # the branch-order letters and turns against the exact signs that
        # define them, and the x-order read off the shared branches against
        # exact x enclosures; the two consistency checks of the branch
        # order never fire
        checked = raised = 0
        for curve in letter_oracle_family():
            if checked == LETTER_ORACLE_CURVES + LETTER_ORACLE_MAX_B - 1:
                break
            try:
                cs = curve_crossings(curve)
            except NonNodalError as exc:
                assert "branch" not in str(exc), (curve.x, curve.y, exc)
                raised += 1
                continue
            if not cs.crossings:
                continue
            assert [c.letter for c in cs.crossings] == third_strand_letters(curve, cs), (curve.x, curve.y)
            assert [c.turn for c in cs.crossings] == tangent_turns(curve, cs), (curve.x, curve.y)
            assert x_ascends(curve, cs), (curve.x, curve.y)
            checked += 1
        assert raised > 0

    def test_trefoil_class(self):
        c = PlaneCurve(T3, chebyshev(4))
        assert same_word_class(word_from_curve(c), PlaneWord((3,)))

    def test_t5_class(self):
        c = PlaneCurve(T3, chebyshev(5))
        w = word_from_curve(c)
        assert same_word_class(w, PlaneWord((2, 2)))

    def test_single_crossing(self):
        c = PlaneCurve(T3, chebyshev(2))
        assert word_from_curve(c).runs == (1,)


class TestTriplePoint:
    def test_degree_arithmetic(self):
        c = q7()
        assert c.bidegree == (3, 7)
        ref = (T3 + Polynomial.const(Fraction(3, 4))) * (chebyshev(4) + Polynomial.const(1))
        assert c.y.coeffs == ref.coeffs

    def test_unperturbed_is_non_nodal(self):
        # the three crossings at the triple point share parameters pairwise
        with pytest.raises(NonNodalError, match="could not be separated — a triple point"):
            curve_crossings(q7())

    def test_line_through_crossing_rejected(self):
        with pytest.raises(NonNodalError):
            add_triple_point(PlaneCurve(T3, chebyshev(4)), Fraction(0), Fraction(1))

    def test_line_meeting_fewer_strands_rejected(self):
        with pytest.raises(NonNodalError):
            add_triple_point(PlaneCurve(T3, chebyshev(4)), Fraction(2), Fraction(1))


class TestPerturb:
    def test_word_classes_for_both_signs(self):
        base = q7()
        plus = perturb(base, Fraction(1, 10**5))
        minus = perturb(base, Fraction(-1, 10**5))
        w_plus = word_from_curve(plus)
        w_minus = word_from_curve(minus)
        assert sum(w_plus.runs) == 6 and sum(w_minus.runs) == 6
        assert same_word_class(w_plus, PlaneWord((2, 1, 3)))
        assert same_word_class(w_minus, PlaneWord((2, 1, 1, 2)))

    def test_eps_stability(self):
        base = q7()
        w1 = word_from_curve(perturb(base, Fraction(-1, 10**5)))
        w2 = word_from_curve(perturb(base, Fraction(-1, 10**6)))
        assert w1.runs == w2.runs

    def test_perturb_auto(self):
        base = q7()
        curve, eps = perturb_auto(base, positive=False, expect_nodes=6)
        assert eps < 0
        assert len(curve_crossings(curve)) == 6

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError):
            perturb(q7(), Fraction(0))


class TestHeights:
    def test_trefoil_height_degree(self):
        c = PlaneCurve(T3, chebyshev(4))
        cs = curve_crossings(c)
        height, changes = height_polynomial(cs, alternating_overpasses(cs))
        assert height.degree == 5 and changes == 5

    def test_t5_height_degree(self):
        c = PlaneCurve(T3, chebyshev(5))
        cs = curve_crossings(c)
        height, changes = height_polynomial(cs, alternating_overpasses(cs))
        assert height.degree == 7

    def test_no_crossings_height_is_constant(self):
        assert height_polynomial(curve_crossings(NO_CROSSINGS), []) == (Polynomial.const(1), 0)

    def test_roots_are_the_simplest_dyadics_in_the_gaps(self):
        # an alternating height on (T3,Tb) changes sign in every gap
        # between consecutive parameter intervals, and vanishes at the
        # gap's dyadic of least denominator
        for b in (7, 10, 20):
            cs = curve_crossings(PlaneCurve(T3, chebyshev(b)))
            z, changes = height_polynomial(cs, alternating_overpasses(cs))
            bounds = cs.param_bounds
            assert changes == z.degree == len(bounds) - 1
            for k in range(len(bounds) - 1):
                root = _simplest_dyadic(bounds[k][1], bounds[k + 1][0])
                assert bounds[k][1] < root < bounds[k + 1][0] and z(root) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=10**9),
        st.fractions(min_value=Fraction(1, 10**9), max_value=3, max_denominator=10**9),
    )
    @example(Fraction(-1, 2), Fraction(2))  # 0 and 1 inside: the one nearest 0
    @example(Fraction(1, 2), Fraction(1, 2))  # ends on dyadics, which are excluded
    @example(Fraction(-3, 2), Fraction(1, 2))  # (-3/2, -1): a negative gap
    def test_simplest_dyadic(self, lo, width):
        hi = lo + width
        r = _simplest_dyadic(lo, hi)
        d = r.denominator
        assert lo < r < hi and d & (d - 1) == 0
        if d > 1:
            # the least multiple of 2/d above lo is not below hi
            assert (math.floor(lo * d / 2) + 1) * 2 >= hi * d
        else:
            # of several integers inside, the one nearest 0
            assert r == 0 or (r - 1 <= lo if r > 0 else r + 1 >= hi)

    def test_single_sign_change_when_overs_lead(self):
        # on (T3,T4) the earlier parameters fill the first half of the
        # parameter order, so over-at-earlier puts every overpass first:
        # one sign change, degree one
        c = PlaneCurve(T3, chebyshev(4))
        cs = curve_crossings(c)
        height, changes = height_polynomial(cs, [True, True, True])
        assert height.degree == changes == 1


class TestEmbedding:
    def test_trefoil(self):
        c = PlaneCurve(T3, chebyshev(4))
        cs = curve_crossings(c)
        height, _ = height_polynomial(cs, alternating_overpasses(cs))
        d, rec = verify_embedding(c.x, c.y, height)
        assert rec is not None and rec.name == "3_1"
        assert (c.x.degree, c.y.degree, height.degree) == (3, 4, 5)

    def test_figure_eight(self):
        c = PlaneCurve(T3, chebyshev(5))
        cs = curve_crossings(c)
        height, _ = height_polynomial(cs, alternating_overpasses(cs))
        d, rec = verify_embedding(c.x, c.y, height)
        assert rec is not None and rec.name == "4_1"
        assert (c.x.degree, c.y.degree, height.degree) == (3, 5, 7)

    def test_harmonic_heights(self):
        _, rec = verify_embedding(T3, chebyshev(4), chebyshev(5))
        assert rec.name == "3_1"
        _, rec = verify_embedding(T3, chebyshev(5), chebyshev(7))
        assert rec.name == "4_1"

    def test_6_2_witness(self):
        base = q7(Fraction(-1, 2))
        curve = perturb(base, Fraction(1, 1024))
        cs = curve_crossings(curve)
        height, _ = height_polynomial(cs, alternating_overpasses(cs))
        d, rec = verify_embedding(curve.x, curve.y, height)
        assert rec is not None and rec.name == "6_2"
        assert (curve.x.degree, curve.y.degree, height.degree) == (3, 7, 11)

    def test_6_2_witness_signs_each_crossing_once(self, monkeypatch):
        # one z sign per crossing: the turns come with the crossings
        witness = perturb(q7(Fraction(-1, 2)), Fraction(1, 1024))
        curve = unshared(witness.x, witness.y * Polynomial.const(2))
        cs = curve_crossings(curve)
        height, _ = height_polynomial(cs, alternating_overpasses(cs))
        calls = []

        def counted(h, roots):
            calls.append(len(roots))
            return signs_at_roots(h, roots)

        monkeypatch.setattr(height_module, "signs_at_roots", counted)
        _, rec = verify_embedding(curve.x, curve.y, height)
        assert rec.name == "6_2"
        assert calls == [len(cs)]

    def test_handedness_is_the_tangent_determinant_sign(self):
        # det(T_over, T_under) read directly: -sign(A_z) * sign(slope_num),
        # with both tangents turned to run towards +x: x = T3 runs backwards
        # exactly on the middle branch |t| < 1/2
        def backwards(iv):
            return abs(iv[0] + iv[1]) < 1

        for b in (4, 5, 7):
            c = PlaneCurve(T3, chebyshev(b))
            cs = curve_crossings(c)
            z, _ = height_polynomial(cs, alternating_overpasses(cs))
            v = _Eliminator(c).v
            A_z, _ = _pair_reduction(z, v)
            A_y, B_y = _pair_reduction(c.y.derivative(), v)
            A_x, B_x = _pair_reduction(c.x.derivative(), v)
            N = A_y * B_x - B_y * A_x
            expected = [
                -sign_at_root(A_z, x.u) * sign_at_root(N, x.u) * (-1 if backwards(x.t) != backwards(x.s) else 1)
                for x in cs.crossings
            ]
            assert crossing_handedness(c, z) == expected

    def test_alternating_signs_on_t3_t14_need_no_rational_gcd(self, monkeypatch):
        # Zh has about 3,000-bit coefficients here; the modular certificate
        # settles every crossing, so no rational gcd of Zh and W is taken
        c = PlaneCurve(T3, chebyshev(14))
        cs = curve_crossings(c)
        z, _ = height_polynomial(cs, alternating_overpasses(cs))
        gcd, calls = Polynomial.gcd, []
        monkeypatch.setattr(Polynomial, "gcd", lambda a, b: calls.append(a) or gcd(a, b))
        signs = crossing_signs(c, z)
        assert calls == []
        assert signs == [1, -1, -1, 1, -1, -1, 1, -1, -1, 1, -1, -1, 1]

    def test_alternating_signs_on_t3_t14_bisect_through_refine(self, monkeypatch):
        # sign_at_root has no halving of its own: every bisection of a
        # crossing's isolating interval is a RootInterval.refine
        from lexiknot.curvelab.poly import RootInterval

        c = PlaneCurve(T3, chebyshev(14))
        cs = curve_crossings(c)
        z, _ = height_polynomial(cs, alternating_overpasses(cs))
        refine, calls = RootInterval.refine, []
        monkeypatch.setattr(RootInterval, "refine", lambda r: calls.append(r) or refine(r))
        signs = crossing_signs(c, z)
        assert calls and {r.poly for r in calls} == {cs.crossings[0].u.poly}
        assert signs == [1, -1, -1, 1, -1, -1, 1, -1, -1, 1, -1, -1, 1]

    def test_one_eliminator_per_embedding(self, monkeypatch):
        import lexiknot.curvelab.curves as curves_module

        built = []

        class Counted(_Eliminator):
            def __init__(self, curve):
                built.append(curve)
                super().__init__(curve)

        monkeypatch.setattr(curves_module, "_Eliminator", Counted)
        c = unshared(T3, chebyshev(5) * Polynomial.const(2))
        cs = curve_crossings(c)
        assert len(built) == 1
        z, _ = height_polynomial(cs, alternating_overpasses(cs))
        built.clear()
        # the caller's curve, with its crossings, is reused
        _, rec = verify_embedding(c.x, c.y, z)
        assert rec.name == "4_1" and built == []
        add_triple_point(unshared(T3, chebyshev(4) * Polynomial.const(2)), Fraction(-1, 2), Fraction(1))
        assert len(built) == 1


    def test_three_heights_make_no_tangent_sign_pass(self, monkeypatch):
        # the turns do not depend on z and come with the crossings, so
        # each height takes one sign pass, that of z, and N is never signed
        c = unshared(T3, chebyshev(7) * Polynomial.const(2))
        cs = curve_crossings(c)
        v = c._eliminator.v
        A_y, B_y = _pair_reduction(c.y.derivative(), v)
        A_x, B_x = _pair_reduction(c.x.derivative(), v)
        N = A_y * B_x - B_y * A_x
        passes = []
        monkeypatch.setattr(height_module, "signs_at_roots", lambda h, roots: passes.append(h) or signs_at_roots(h, roots))
        rng = random.Random(2)
        for _ in range(3):
            z, _ = height_polynomial(cs, [rng.random() < 0.5 for _ in cs.crossings])
            crossing_handedness(c, z)
        assert passes.count(N) == 0 and len(passes) == 3

    def test_sign_on_interval_matches_fraction_evaluation(self):
        def sign_by_fractions(p, e):
            value = sum(c * e**i for i, c in enumerate(p.coeffs))
            return (value > 0) - (value < 0)

        rng = random.Random(1)
        for _ in range(400):
            ends = sorted(Fraction(rng.randint(-64, 64), 2 ** rng.randint(0, 8)) for _ in range(2))
            p = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 8))] + [1])
            if rng.random() < 0.2:  # a root at an end
                p = p * Polynomial([-rng.choice(ends), 1])
            signs = {sign_by_fractions(p, e) for e in ends}
            if len(signs) == 1 and 0 not in signs:
                assert height_module._sign_on_interval(p, tuple(ends)) == signs.pop()
            else:
                with pytest.raises(HeightError):
                    height_module._sign_on_interval(p, tuple(ends))


class TestDeterminant:
    def test_chebyshev_alternating_is_fibonacci(self):
        # (T3, Tb) with alternating heights is the two-bridge knot F_b / F_{b-1}
        for b, fib in ((2, 1), (4, 3), (5, 5), (7, 13), (8, 21)):
            c = PlaneCurve(T3, chebyshev(b))
            cs = curve_crossings(c)
            z, _ = height_polynomial(cs, alternating_overpasses(cs))
            assert height_module._determinant(cs, crossing_signs(c, z)) == fib

    def test_flipping_every_overpass_keeps_the_determinant(self):
        # the mirror image has the same determinant
        rng = random.Random(1)
        witness = perturb(q7(Fraction(-1, 2)), Fraction(1, 1024))
        for c in (PlaneCurve(T3, chebyshev(7)), witness):
            cs = curve_crossings(c)
            for _ in range(20):
                overs = [rng.choice((1, -1)) for _ in cs.crossings]
                flipped = [-o for o in overs]
                assert height_module._determinant(cs, flipped) == height_module._determinant(cs, overs)


# the (T3,P7) and (T3,P10) curves that bases.csv cites for the words (5)
# and (7), of the torus family (T3,P(3n+1))
P7 = Polynomial([0, Fraction(259, 677), Fraction(-160, 721), 0, Fraction(33, 226), -1, 0, Fraction(211, 495)])
P10 = Polynomial(
    [0, Fraction(447, 321137), Fraction(103541, 241597), 0, -1, Fraction(-3629, 970201), 0,
     Fraction(1628, 965065), Fraction(582665, 654509), 0, Fraction(-88667, 325596)]
)

# the number of draws of the mixed-region survey; CI runs all 40,000, which
# meet 21 words of two or more crossings where the first 3,500 meet 13
MIXED_REGION_DRAWS = int(os.environ.get("LEXIKNOT_MIXED_REGION_DRAWS", "3500"))
MIXED_REGION_WORDS = {3500: 13, 40000: 21}


def first_curve_of_each_word(draws):
    """(curve, crossings, word) for the first nodal curve of each word with
    two or more crossings among ``draws`` seeded curves x = t^3 - 3t and
    y of degree 4, 5, 7 or 8, integer coefficients in [-9, 9] and a
    leading +-1."""
    rng, seen = random.Random(5), set()
    for _ in range(draws):
        degree = rng.choice((4, 5, 7, 8))
        y = Polynomial([rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((-1, 1))])
        curve = PlaneCurve(Polynomial([0, -3, 0, 1]), y)
        try:
            cs = curve_crossings(curve)
        except NonNodalError:
            continue
        word = word_from_curve(curve, cs)
        if len(cs) >= 2 and word.runs not in seen:
            seen.add(word.runs)
            yield curve, cs, word


class TestDiagramClass:
    # the extracted diagram names the knot on its own: its fraction lies in
    # the knot's class (mirror included) and its numerator is the
    # determinant of the curve's Gauss structure
    @pytest.mark.parametrize(
        "curve, name",
        [
            (PlaneCurve(T3, chebyshev(4)), "3_1"),
            (PlaneCurve(T3, chebyshev(5)), "4_1"),
            (perturb(q7(Fraction(-1, 2)), Fraction(1, 1024)), "6_2"),
            (PlaneCurve(T3, chebyshev(7)), "6_3"),
            (PlaneCurve(T3, chebyshev(8)), "7_7"),
        ],
        ids=["T3,T4", "T3,T5", "6_2 witness", "T3,T7", "T3,T8"],
    )
    def test_witness_diagram_is_in_the_knot_class(self, curve, name):
        cs = curve_crossings(curve)
        z, _ = height_polynomial(cs, alternating_overpasses(cs))
        d, rec = verify_embedding(curve.x, curve.y, z)
        assert rec.name == name
        assert fraction_equivalent(d.fraction(), default_catalog().get(name).fraction, include_mirror=True)

    def test_class_names_random_over_choices(self, monkeypatch):
        # 40 over-choices each of (T3,T7) and (T3,T8): the knot is named by
        # the class of the diagram, where a determinant lookup met several
        # knots on 1 and 11 of them, and the caller's crossings are reused
        import lexiknot.curvelab.curves as curves_module

        body, computed = curves_module._crossings, []
        monkeypatch.setattr(curves_module, "_crossings", lambda curve: computed.append(curve) or body(curve))
        rng = random.Random(1)
        named = set()
        for b in (7, 8):
            c = PlaneCurve(T3, chebyshev(b))
            cs = curve_crossings(c)
            computed.clear()
            for _ in range(40):
                z, _ = height_polynomial(cs, [rng.random() < 0.5 for _ in cs.crossings])
                d, rec = verify_embedding(c.x, c.y, z)
                if rec is None:
                    assert d.fraction().alpha == 1, (b, d)
                else:
                    assert fraction_equivalent(d.fraction(), rec.fraction, include_mirror=True), (b, d, rec.name)
                    named.add(rec.name)
            assert computed == [], f"(T3,T{b}): verify_embedding computed the crossings again"
        assert {"6_3", "7_7"} <= named

    def test_fold_inside_a_parameter_enclosure_is_refined_away(self):
        # once the crossings were separated, the t-enclosure of the second
        # one ended on the fold t = -1 of x = t^3 - 3t, and every over-choice
        # raised "x' changes sign on the parameter enclosure"; the clash
        # loop now halves until x' has one sign on each enclosure
        c = PlaneCurve(Polynomial([0, -3, 0, 1]), Polynomial([8, 7, 1, 9, 0, 2, -5, -1]))
        cs = curve_crossings(c)
        assert word_from_curve(c, cs).runs == (0, 1, 1)
        dx = c.x.derivative()
        for x in cs.crossings:
            for lo, hi in (x.t, x.s):
                assert not lo <= -1 <= hi and not lo <= 1 <= hi
                assert (dx(lo) > 0) == (dx(hi) > 0)
        for overs in itertools.product((False, True), repeat=2):
            z, _ = height_polynomial(cs, list(overs))
            d, rec = verify_embedding(c.x, c.y, z)
            assert tuple(d.fraction()) == (1, 0) and rec is None, (overs, d)

    @pytest.mark.parametrize(
        "y, word, knots",
        [
            (P7, (5,), {None: 20, "3_1": 10, "5_1": 2}),
            (P10, (7,), {None: 70, "3_1": 42, "5_1": 14, "7_1": 2}),
        ],
        ids=["T3,P7", "T3,P10"],
    )
    def test_torus_family_curves_return_on_every_over_choice(self, y, word, knots):
        # the words (5) and (7) are one region each, and most over-choices
        # twist it in both senses: the region counts the sum of its twists
        c = PlaneCurve(T3, y)
        cs = curve_crossings(c)
        assert word_from_curve(c, cs).runs == word
        named = dict.fromkeys(knots, 0)
        for overs in itertools.product((False, True), repeat=len(cs)):
            z, _ = height_polynomial(cs, list(overs))
            d, rec = verify_embedding(c.x, c.y, z)
            assert rec is not None or d.fraction().alpha == 1, (overs, d)
            named[rec and rec.name] += 1
        assert named == knots

    def test_every_over_choice_of_a_seeded_family_returns(self):
        # the first curve of each word of the seeded family: on every
        # over-choice the diagram is returned, its numerator is the
        # determinant, t -> -t keeps its class and y -> -y mirrors it; where
        # every region has one twist sense, its projection is the word
        neg_t = Polynomial([0, -1])
        words = mixed = 0
        for c, cs, word in first_curve_of_each_word(MIXED_REGION_DRAWS):
            words += 1
            # held, so that their crossings are computed once
            reversed_c, mirrored_c = PlaneCurve(c.x.compose(neg_t), c.y.compose(neg_t)), PlaneCurve(c.x, -c.y)
            for overs in itertools.islice(itertools.product((False, True), repeat=len(cs)), 64):
                z, _ = height_polynomial(cs, list(overs))
                d, _ = verify_embedding(c.x, c.y, z)
                f = d.fraction()
                assert f.alpha == height_module._determinant(cs, crossing_signs(c, z)), (c.y, overs, d)
                reversed_d, _ = verify_embedding(reversed_c.x, reversed_c.y, z.compose(neg_t))
                assert fraction_equivalent(reversed_d.fraction(), f), (c.y, overs, d, reversed_d)
                mirrored_d, _ = verify_embedding(mirrored_c.x, mirrored_c.y, z)
                mirror = SchubertFraction.make(f.alpha, -f.beta)
                assert fraction_equivalent(mirrored_d.fraction(), mirror), (c.y, overs, d, mirrored_d)
                hands, k, uniform = crossing_handedness(c, z), 0, True
                for run in word.runs:
                    uniform &= len(set(hands[k : k + run])) <= 1
                    k += run
                if uniform:
                    assert project(d).runs == word.runs, (c.y, overs, d)
                else:
                    mixed += 1
        assert words == MIXED_REGION_WORDS.get(MIXED_REGION_DRAWS, words)
        assert mixed > 0

    def test_fraction_numerator_is_the_determinant(self):
        rng = random.Random(1)
        for b in (4, 5, 7, 8):
            c = PlaneCurve(T3, chebyshev(b))
            cs = curve_crossings(c)
            for _ in range(40):
                z, _ = height_polynomial(cs, [rng.random() < 0.5 for _ in cs.crossings])
                overs = crossing_signs(c, z)
                d = TrigonalDiagram(height_module._signed_entries(c, height_module._hands(cs, overs)))
                assert d.fraction().alpha == height_module._determinant(cs, overs), (b, d)

    def test_boundary_zeros_at_both_ends_are_entries(self):
        # the word (0,1,1,1,0): three crossings, a first letter of 1 (the
        # leading zero) and a trailing marker (the trailing zero); without
        # a trailing 0 entry every over-choice gave numerator 0 or 2
        c = PlaneCurve(Polynomial([0, -3, 0, 1]), Polynomial([-4, -1, 6, -1, 3, -2, -2, 1]))
        cs = curve_crossings(c)
        assert word_from_curve(c, cs).runs == (0, 1, 1, 1, 0)
        for overs in itertools.product((False, True), repeat=3):
            z, _ = height_polynomial(cs, list(overs))
            d, rec = verify_embedding(c.x, c.y, z)
            assert len(d) == 5 and d.entries[0] == d.entries[-1] == 0, (overs, d)
            det = height_module._determinant(cs, crossing_signs(c, z))
            assert d.fraction().alpha == det == 1 and rec is None, (overs, d)


class TestSymmetries:
    def test_vertical_flip_fixes_the_word(self):
        # y -> -y swaps crossing positions and both turning-point sides;
        # the boundary-zero encoding absorbs it
        for y in (chebyshev(4), chebyshev(5), QUARTIC.y, QUINTIC.y):
            c = PlaneCurve(T3, y)
            flipped = PlaneCurve(T3, -y)
            assert word_from_curve(c).runs == word_from_curve(flipped).runs

    def test_x_mirror_reverses_the_word(self):
        # (x, y) -> (-x, y), realized polynomially as (-x(-t), y(-t)) and
        # as (-x(t), y(t)), a cubic with a negative leading coefficient
        neg_t = Polynomial([0, -1])
        for c in (PlaneCurve(T3, QUARTIC.y), QUARTIC):
            for rev in (PlaneCurve(-c.x.compose(neg_t), c.y.compose(neg_t)), PlaneCurve(-c.x, c.y)):
                assert word_from_curve(rev).runs == word_from_curve(c).runs[::-1]

    def test_perturb_adds_exactly_three_nodes(self):
        base_nodes = len(curve_crossings(PlaneCurve(T3, chebyshev(4))))
        tri = add_triple_point(PlaneCurve(T3, chebyshev(4)), Fraction(-1, 2), Fraction(1))
        resolved = perturb(tri, Fraction(1, 1024))
        assert len(curve_crossings(resolved)) == base_nodes + 3


class TestEmbeddingErrors:
    def test_z_must_separate_crossings(self):
        from lexiknot.curvelab import EmbeddingError

        c = PlaneCurve(T3, chebyshev(4))
        with pytest.raises(EmbeddingError):
            verify_embedding(c.x, c.y, chebyshev(4))  # z = y never separates

    def test_no_crossings_is_the_unknot(self):
        from lexiknot.curvelab import EmbeddingError

        assert len(curve_crossings(NO_CROSSINGS)) == 0
        with pytest.raises(EmbeddingError, match="unknot"):
            verify_embedding(NO_CROSSINGS.x, NO_CROSSINGS.y, chebyshev(5))

    def test_numerator_must_be_the_determinant(self, monkeypatch):
        from lexiknot.curvelab import EmbeddingError

        c = PlaneCurve(T3, chebyshev(5))
        cs = curve_crossings(c)
        z, _ = height_polynomial(cs, alternating_overpasses(cs))
        assert verify_embedding(c.x, c.y, z)[1].name == "4_1"
        monkeypatch.setattr(height_module, "_determinant", lambda cs, overs: 7)
        with pytest.raises(EmbeddingError, match="numerator 5, but the knot determinant is 7"):
            verify_embedding(c.x, c.y, z)

    def test_wrong_overpass_count_rejected(self):
        from lexiknot.curvelab import HeightError

        cs = curve_crossings(PlaneCurve(T3, chebyshev(4)))
        with pytest.raises(HeightError):
            height_polynomial(cs, [True, True])
