import gc
import itertools
import json
import math
import os
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lexiknot.arith import SchubertFraction, default_catalog, fraction_equivalent, record_for_fraction
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
    signs_at_roots,
    verify_embedding,
    word_from_curve,
)
from lexiknot.curvelab import height as height_module
from lexiknot.curvelab.curves import BOTTOM, TOP, _disc_box, _fold_height_remainder, _pair_discriminant, _pair_reduction
from lexiknot.curvelab.height import _simplest_dyadic
from lexiknot.curvelab.poly import (
    _remainder_mod_quadratic,
    _squarefree_isolation,
    sign_at_root,
    signs_at_quadratic_roots,
)
from lexiknot.diagram import TrigonalDiagram
from lexiknot.planereduce import PlaneWord, degree_verdict, project
from foxref import fox_determinant
from heightref import intervals, reference_height, simplest_dyadic
from wordclass import letters_to_runs_by_groupby, same_word_class

T3 = chebyshev(3)
QUINTIC = PlaneCurve(Polynomial([0, -3, 0, 1]), Polynomial([0, 4, 0, -4, 0, 1]))
QUARTIC = PlaneCurve(Polynomial([0, -3, 0, 1]), Polynomial([-2, -2, -2, 0, 1]))
NO_CROSSINGS = PlaneCurve(T3, Polynomial([2, 2, 2, 0, -1]))
# crossing counts and words of the benchmark's curves, recorded by it
CURVES_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "curves.json"
# the five witnesses of the benchmark's embed workload
EMBED_REFERENCE = CURVES_REFERENCE.with_name("embed.json")


def q7(x0=Fraction(-3, 4)):
    return add_triple_point(PlaneCurve(T3, chebyshev(4)), x0, Fraction(1))


def chain_8_6():
    """The (3,4), (3,7) and (3,10) curves of the 8_6 witness: each step
    adds a triple point to the last curve and perturbs it by 2^-12."""
    y4 = [(1995377, 2097152), (70805, 65536), (-96677, 16384), (-1715, 1024), (2401, 512)]
    c4 = PlaneCurve(T3, Polynomial([Fraction(n, d) for n, d in y4]))
    c7 = perturb(add_triple_point(c4, Fraction(9, 16), Fraction(3, 4)), Fraction(1, 4096))
    c10 = perturb(add_triple_point(c7, Fraction(15, 16), Fraction(-1, 8)), Fraction(1, 4096))
    return c4, c7, c10


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
        # a word is read off the curve's own crossings: (T3,T5)'s four are
        # refused for (T3,T4), not read as a word of either curve
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
        # the ranks permute 0..2n-1, t's below s's, and place the
        # parameter intervals in increasing, disjoint order
        assert sorted(r for c in cs for r in c.ranks) == list(range(2 * len(cs)))
        bounds = [None] * (2 * len(cs))
        for c in cs:
            assert c.ranks[0] < c.ranks[1]
            bounds[c.ranks[0]], bounds[c.ranks[1]] = intervals(c)
        for a, b in zip(bounds, bounds[1:]):
            assert a[1] < b[0]
        for c in cs:
            assert c.t[1] < c.s[0] and c.den > 0

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
        assert chains.count(_pair_reduction(c.y, c.x)[0]) == 1

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
        W = _pair_reduction(c.y, c.x)[0]
        assert isolated == [(W, 3)]
        assert len(isolate_real_roots(W)) == 4
        assert len(cs) == 2 and word_from_curve(c, cs).runs == (0, 2)

    def test_root_of_w_at_a_box_end_is_still_isolated(self):
        # W = u (4 - u^2) vanishes at the discriminant's roots +-2, the box
        # ends, and both are isolated: a cusp at each fold
        c = PlaneCurve(Polynomial([0, -3, 0, 1]), Polynomial([0, 0, -2, 0, 1]))
        roots = _squarefree_isolation(_pair_reduction(c.y, c.x)[0], _disc_box(_pair_discriminant(c.x)))[1]
        assert len(roots) == 3 and all(r.lo < u < r.hi for r, u in zip(roots, (-2, 0, 2)))
        with pytest.raises(NonNodalError, match="cusp: y' vanishes at a fold"):
            curve_crossings(c)

    def test_a_cusp_at_an_irrational_fold_raises_there(self):
        # y' = (t + 1) x' with x' = 3t^2 - 2: W = u (8 - 3u^2) / 4 vanishes
        # at twice each fold, +-2 sqrt(2/3), inside the box [-2, 2], where
        # the discriminant 8 - 3u^2 vanishes too; the fold data name the cusp
        c = PlaneCurve(Polynomial([0, -2, 0, 1]), Polynomial([0, -2, -1, 1, Fraction(3, 4)]))
        W, disc = _pair_reduction(c.y, c.x)[0], _pair_discriminant(c.x)
        assert W == Polynomial([0, 2, 0, Fraction(-3, 4)]) and disc == Polynomial([8, 0, -3])
        assert _disc_box(disc) == (-2, 2) and len(_squarefree_isolation(W, (-2, 2))[1]) == 3
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
            try:
                count = len(curve_crossings(c))
            except NonNodalError:
                continue
            signs = signs_at_roots(_pair_discriminant(c.x), isolate_real_roots(_pair_reduction(c.y, c.x)[0]))
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
            dx = c.x.derivative()
            assert _pair_discriminant(c.x) == dx.compose(Polynomial([0, Fraction(1, 2)])) * Polynomial.const(-4 / c.x.coeffs[3]), c.x
            w = _remainder_mod_quadratic(_pair_reduction(c.y, c.x)[0].primitive, (0, 2, 1), dx.primitive)
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
    h = curve.y.compose(Polynomial([S, -1])) - _pair_reduction(curve.y, curve.x)[1]
    letters = []
    for sg in signs_at_roots(h, [c.u for c in cs]):
        assert sg != 0, "the third strand passes through a crossing"
        letters.append(BOTTOM if sg > 0 else TOP)
    return letters


def composed_fold_sides(curve):
    """The left and the right fold's sides by their definition: TOP when
    the fold pair is above the third strand, where y(t) - y(S - 2t) > 0,
    that difference composed here and its signs read at the roots of x';
    the left fold is x's local minimum, the larger root when x's lead is
    positive."""
    x = curve.x
    h = curve.y - curve.y.compose(Polynomial([Fraction(-x.cs[2], x.cs[3]), -2]))
    signs = signs_at_quadratic_roots(h, x.derivative())
    assert 0 not in signs, "the third strand meets a fold point"
    sides = [TOP if sg > 0 else BOTTOM for sg in signs]
    return sides[::-1] if x.cs[3] > 0 else sides


def tangent_turns(curve, cs):
    """The turns by the tangent determinant: with T = (x', y') and t < s,
    det(T_t, T_s) = (s - t) N(u), N = A_y' B_x' - B_y' A_x', and with both
    strands run towards +x the strand of t comes from above exactly when
    that determinant is positive; x' is read at the parameter midpoints."""
    A_y, B_y = _pair_reduction(curve.y.derivative(), curve.x)
    A_x, B_x = _pair_reduction(curve.x.derivative(), curve.x)
    N, dx = A_y * B_x - B_y * A_x, curve.x.derivative()
    turns = []
    for c, sn in zip(cs, signs_at_roots(N, [c.u for c in cs])):
        assert sn != 0, "the tangents are parallel at a crossing"
        directions = dx(Fraction(sum(c.t), 2 * c.den)) * dx(Fraction(sum(c.s), 2 * c.den))
        turns.append(sn if directions > 0 else -sn)
    return turns


def x_ascends(curve, cs):
    """Whether each pair of consecutive crossings is in increasing x,
    decided exactly: both u-intervals are halved until their interval
    Horner enclosures of the crossing x(u) are disjoint.  Fails the test
    if they do not separate in 64 rounds."""
    x = _pair_reduction(curve.x, curve.x)[1].coeffs

    def enclosure(r):
        lo = hi = Fraction(0)
        for c in reversed(x):
            ends = (lo * r.lo, lo * r.hi, hi * r.lo, hi * r.hi)
            lo, hi = min(ends) + c, max(ends) + c
        return lo, hi

    for a, b in zip((c.u for c in cs), (c.u for c in cs[1:])):
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

    def test_ranks_off_the_branch_order_raise(self, monkeypatch):
        # the ranks must be the order by branch and x-index: the clash-free
        # round's first and last parameters lie on different branches, and
        # swapping them puts a later branch first
        import lexiknot.curvelab.curves as curves_module

        cs = curve_crossings(PlaneCurve(T3, chebyshev(7)))
        branch_at = {r: b for c in cs for r, b in zip(c.ranks, c.branches)}
        assert branch_at[0] != branch_at[2 * len(cs) - 1]
        overlapping = curves_module._overlapping

        def swapped(ivs):
            order, hit = overlapping(ivs)
            if not hit:
                order[0], order[-1] = order[-1], order[0]
            return order, hit

        monkeypatch.setattr(curves_module, "_overlapping", swapped)
        with pytest.raises(NonNodalError, match="not the order by branch"):
            curve_crossings(unshared(T3, chebyshev(7) * Polynomial.const(2)))

    def test_branch_order_letters_equal_the_third_strand_signs(self):
        # the branch-order letters and turns against the exact signs that
        # define them, the x-order read off the shared branches against
        # exact x enclosures, and the word against the oracle's encoding of
        # the third-strand letters read against the fold sides of the
        # composed fold height; the two consistency checks of the branch
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
            if not cs:
                continue
            letters = third_strand_letters(curve, cs)
            assert [c.letter for c in cs] == letters, (curve.x, curve.y)
            left, right = composed_fold_sides(curve)
            relative = [int(p == left) for p in letters]
            assert word_from_curve(curve).runs == letters_to_runs_by_groupby(relative, letters[-1] == right), (curve.x, curve.y)
            assert [c.turn for c in cs] == tangent_turns(curve, cs), (curve.x, curve.y)
            assert x_ascends(curve, cs), (curve.x, curve.y)
            checked += 1
        assert raised > 0

    def test_reference_words(self):
        # the stored crossing count and word of every benchmark curve: the
        # pool over x = t^3 - 3t with each curve's y -> -y mirror, and the
        # Chebyshev curves (T3,Tb); each also reparametrized by t -> -t,
        # which gives x a negative lead and keeps the image and the word
        ref = json.loads(CURVES_REFERENCE.read_text())
        x = Polynomial([0, -3, 0, 1])
        cases = [(T3, chebyshev(int(b)), entry) for b, entry in ref["chebyshev"].items()]
        for entry in ref["pool"]:
            y = Polynomial(entry["y"])
            cases += [(x, y, entry), (x, -y, entry)]
        assert len(cases) == 812
        reverse = Polynomial([0, -1])
        for cx, cy, entry in cases:
            for curve in (PlaneCurve(cx, cy), PlaneCurve(cx.compose(reverse), cy.compose(reverse))):
                got = (len(curve_crossings(curve)), list(word_from_curve(curve).runs))
                assert got == (entry["crossings"], entry["word"]), (curve.x, curve.y)

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
            bounds = sorted(iv for c in cs for iv in intervals(c))
            assert changes == z.degree == len(bounds) - 1
            for k in range(len(bounds) - 1):
                root = simplest_dyadic(bounds[k][1], bounds[k + 1][0])
                assert bounds[k][1] < root < bounds[k + 1][0] and z(root) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=10**9),
        st.fractions(min_value=Fraction(1, 10**9), max_value=3, max_denominator=10**9),
        st.integers(1, 1000),
        st.integers(1, 1000),
    )
    @example(Fraction(-1, 2), Fraction(2), 1, 1)  # 0 and 1 inside: the one nearest 0
    @example(Fraction(1, 2), Fraction(1, 2), 6, 1)  # ends on dyadics, which are excluded
    @example(Fraction(-3, 2), Fraction(1, 2), 1, 4)  # (-3/2, -1): a negative gap
    def test_simplest_dyadic(self, lo, width, k, m):
        # the ends come over unreduced denominators, as a crossing's do
        hi = lo + width
        n, d = _simplest_dyadic(lo.numerator * k, lo.denominator * k, hi.numerator * m, hi.denominator * m)
        r = Fraction(n, d)
        assert lo < r < hi and d & (d - 1) == 0 and (d == 1 or n % 2)
        if d > 1:
            # the least multiple of 2/d above lo is not below hi
            assert (math.floor(lo * d / 2) + 1) * 2 >= hi * d
        else:
            # of several integers inside, the one nearest 0
            assert r == 0 or (r - 1 <= lo if r > 0 else r + 1 >= hi)

    @settings(max_examples=300, deadline=None)
    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=10**6),
        st.fractions(min_value=Fraction(1, 10**6), max_value=3, max_denominator=10**6),
        st.integers(1, 64),
        st.integers(1, 64),
    )
    @example(Fraction(-1, 2), Fraction(2), 1, 1)
    @example(Fraction(0), Fraction(1), 3, 5)  # both ends integers: the open gap holds 1/2
    @example(Fraction(-3), Fraction(1, 1024), 7, 1)
    def test_simplest_dyadic_equals_a_fraction_search(self, lo, width, k, m):
        # for each 2^j in turn, every multiple of 2^-j in the closed hull
        # of the gap is tried; the first 2^j with one inside wins, and of
        # several integers the one nearest 0
        hi = lo + width
        d = 1
        while True:
            inside = [Fraction(n, d) for n in range(math.floor(lo * d), math.ceil(hi * d) + 1) if lo < Fraction(n, d) < hi]
            if inside:
                break
            d *= 2
        expected = min(inside, key=abs)
        n, e = _simplest_dyadic(lo.numerator * k, lo.denominator * k, hi.numerator * m, hi.denominator * m)
        assert (n, e) == (expected.numerator, expected.denominator)

    def test_overlapping_enclosures_raise(self, monkeypatch):
        # widen the rank-1 interval of (T3,T4) past the rank-2 one: the
        # ordering check raises before any root is searched for, since
        # the search for a dyadic in an empty gap never ends
        cs = curve_crossings(PlaneCurve(T3, chebyshev(4)))
        at = {r: (i, j) for i, c in enumerate(cs) for j, r in enumerate(c.ranks)}
        (i1, j1), (i2, j2) = at[1], at[2]
        c1, c2 = cs[i1], cs[i2]
        lo1, hi2 = (c1.t, c1.s)[j1][0], (c2.t, c2.s)[j2][1]
        cs = list(cs)
        cs[i1] = c1._replace(**{"ts"[j1]: (lo1, hi2 * c1.den // c2.den + 1)})

        def checked(a, p, b, q):
            assert a * q < b * p, "a search in an empty gap"
            return _simplest_dyadic(a, p, b, q)

        monkeypatch.setattr(height_module, "_simplest_dyadic", checked)
        with pytest.raises(HeightError, match="parameter intervals 1 and 2 are not strictly ordered"):
            height_polynomial(cs, alternating_overpasses(cs))

    @pytest.mark.parametrize(
        "misplaced",
        [
            lambda a, p, b, q: (a, p),  # the left interval's upper end
            lambda a, p, b, q: (2 * a - 1, 2 * p),  # inside the left interval
            lambda a, p, b, q: (b, q),  # the right interval's lower end
            lambda a, p, b, q: (2 * b + 1, 2 * q),  # inside the right interval
        ],
        ids=["left-end", "left-inside", "right-end", "right-inside"],
    )
    def test_a_root_on_an_interval_raises(self, monkeypatch, misplaced):
        # the certificate compares each root with the two intervals it
        # separates, so a root moved onto one of them is caught
        cs = curve_crossings(PlaneCurve(T3, chebyshev(7)))
        monkeypatch.setattr(height_module, "_simplest_dyadic", misplaced)
        with pytest.raises(HeightError, match="is not strictly between parameter intervals 0 and 1"):
            height_polynomial(cs, alternating_overpasses(cs))

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
        # H(3,b,c) = (T3,Tb,Tc) carries its row's knot at the row's exact
        # lexicographic degree
        for b, c, name in ((4, 5, "3_1"), (5, 7, "4_1"), (7, 8, "5_1"), (7, 11, "6_3"), (10, 11, "7_1"), (8, 13, "7_7"), (11, 13, "8_3")):
            _, rec = verify_embedding(T3, chebyshev(b), chebyshev(c))
            assert rec.name == name
            v = degree_verdict(rec)
            assert (v.status, v.b_lower, v.b_upper, v.c_lower, v.c_upper) == ("exact", b, b, c, c), name

    def test_harmonic_families(self):
        # H(3, 3k+1, 3k+2) is T(2, 2k+1), and H(3, b, 2b - 3) is F_b/F_{b-1}
        # up to mirror for 3 not dividing b, both to b = 32
        fib = [0, 1]
        while len(fib) <= 32:
            fib.append(fib[-1] + fib[-2])
        torus = [(3 * k + 1, 3 * k + 2, (2 * k + 1, 1)) for k in range(1, 11)]
        fibonacci = [(b, 2 * b - 3, (fib[b], fib[b - 1])) for b in range(4, 33) if b % 3]
        for b, c, (alpha, beta) in torus + fibonacci:
            _, rec = verify_embedding(T3, chebyshev(b), chebyshev(c))
            assert fraction_equivalent(rec.fraction, SchubertFraction.make(alpha, beta), include_mirror=True), (b, c)

    def test_6_2_witness(self):
        base = q7(Fraction(-1, 2))
        curve = perturb(base, Fraction(1, 1024))
        cs = curve_crossings(curve)
        height, _ = height_polynomial(cs, alternating_overpasses(cs))
        d, rec = verify_embedding(curve.x, curve.y, height)
        assert rec is not None and rec.name == "6_2"
        assert (curve.x.degree, curve.y.degree, height.degree) == (3, 7, 11)

    def test_8_6_at_3_10_14_below_the_published_row(self):
        # two triple points, each perturbed by 2^-12, lift a (3,4) curve
        # of word (1,2) to a (3,10) curve that carries 8_6 with a height
        # of degree 14, lexicographically below the published (3,11,13)
        c4, c7, c10 = chain_8_6()
        assert [(c.bidegree, word_from_curve(c).runs) for c in (c4, c7, c10)] == [
            ((3, 4), (1, 2)),
            ((3, 7), (1, 2, 1, 1, 1)),
            ((3, 10), (1, 2, 1, 1, 1, 1, 1, 1)),
        ]
        cs = curve_crossings(c10)
        assert len(cs) == 9
        # earlier parameter over, per crossing in x-order
        z, _ = height_polynomial(cs, [bit == "1" for bit in "010111001"])
        assert z.degree == 14
        d, rec = verify_embedding(c10.x, c10.y, z)
        assert d == TrigonalDiagram((-1, -2, -1, -1, 1, 1, 1, 1))
        assert rec.fraction == SchubertFraction(23, 7) and rec.name == "8_6"
        published = degree_verdict(rec)
        assert (published.b_upper, published.c_upper) == (11, 13)
        assert (3, 10, 14) < (3, published.b_upper, published.c_upper)

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
        def backwards(iv, den):
            return abs(iv[0] + iv[1]) < den

        for b in (4, 5, 7):
            c = PlaneCurve(T3, chebyshev(b))
            cs = curve_crossings(c)
            z, _ = height_polynomial(cs, alternating_overpasses(cs))
            A_z, _ = _pair_reduction(z, c.x)
            A_y, B_y = _pair_reduction(c.y.derivative(), c.x)
            A_x, B_x = _pair_reduction(c.x.derivative(), c.x)
            N = A_y * B_x - B_y * A_x
            expected = [
                -sign_at_root(A_z, x.u) * sign_at_root(N, x.u) * (-1 if backwards(x.t, x.den) != backwards(x.s, x.den) else 1)
                for x in cs
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
        assert calls and {r.poly for r in calls} == {cs[0].u.poly}
        assert signs == [1, -1, -1, 1, -1, -1, 1, -1, -1, 1, -1, -1, 1]

    def test_one_crossing_computation_per_embedding(self, monkeypatch):
        import lexiknot.curvelab.curves as curves_module

        body, built = curves_module._crossings, []
        monkeypatch.setattr(curves_module, "_crossings", lambda curve: built.append(curve) or body(curve))
        c = unshared(T3, chebyshev(5) * Polynomial.const(2))
        cs = curve_crossings(c)
        assert built == [c]
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
        A_y, B_y = _pair_reduction(c.y.derivative(), c.x)
        A_x, B_x = _pair_reduction(c.x.derivative(), c.x)
        N = A_y * B_x - B_y * A_x
        passes = []
        monkeypatch.setattr(height_module, "signs_at_roots", lambda h, roots: passes.append(h) or signs_at_roots(h, roots))
        rng = random.Random(2)
        for _ in range(3):
            z, _ = height_polynomial(cs, [rng.random() < 0.5 for _ in cs])
            crossing_handedness(c, z)
        assert passes.count(N) == 0 and len(passes) == 3


def assert_height_is_the_reference(cs, over_at):
    z, degree = height_polynomial(cs, over_at)
    ref, ref_degree = reference_height(cs, over_at)
    assert (z.cs, z.den, z.degree, degree) == (ref.cs, ref.den, ref.degree, ref_degree)


def seeded_over_choices(cs, seed, count=5):
    """The alternating choice where the interleaving admits one, then
    ``count`` seeded random choices."""
    rng = random.Random(seed)
    try:
        choices = [alternating_overpasses(cs)]
    except HeightError:
        choices = []
    return choices + [[rng.random() < 0.5 for _ in cs] for _ in range(count)]


class TestHeightsAgainstFractions:
    """`height_polynomial`, built on integers in rank order, against the
    Fraction construction of `heightref`: sorted rational intervals,
    a Fraction dyadic search and one Fraction factor per root.  Both
    must give the same normalized z and degree."""

    @pytest.mark.parametrize("b", [b for b in range(2, 33) if b % 3])
    def test_chebyshev_curves(self, b):
        cs = curve_crossings(PlaneCurve(T3, chebyshev(b)))
        assert len(cs) == b - 1
        choices = seeded_over_choices(cs, b)
        assert len(choices) == 6
        for over_at in choices:
            assert_height_is_the_reference(cs, over_at)

    def test_benchmark_curves(self):
        ref = json.loads(CURVES_REFERENCE.read_text())
        x = Polynomial([0, -3, 0, 1])
        curves = [PlaneCurve(T3, chebyshev(int(b))) for b in ref["chebyshev"]]
        curves += [PlaneCurve(x, Polynomial(entry["y"])) for entry in ref["pool"] if entry["crossings"]]
        assert len(curves) == 275
        for k, curve in enumerate(curves):
            cs = curve_crossings(curve)
            assert cs
            for over_at in seeded_over_choices(cs, k, count=2):
                assert_height_is_the_reference(cs, over_at)

    def test_embed_witnesses(self):
        witnesses = json.loads(EMBED_REFERENCE.read_text())
        assert len(witnesses) == 5
        for w in witnesses:
            curve = PlaneCurve(Polynomial([Fraction(c) for c in w["x"]]), Polynomial([Fraction(c) for c in w["y"]]))
            cs = curve_crossings(curve)
            assert_height_is_the_reference(cs, alternating_overpasses(cs))
            assert height_polynomial(cs, alternating_overpasses(cs))[1] == w["degrees"][2]

    def test_8_6_chain(self):
        for k, curve in enumerate(chain_8_6()):
            cs = curve_crossings(curve)
            for over_at in seeded_over_choices(cs, k):
                assert_height_is_the_reference(cs, over_at)
        assert_height_is_the_reference(cs, [bit == "1" for bit in "010111001"])


class TestDeterminant:
    def test_branch_walk_equals_the_fox_matrix(self):
        # the walk against the rank-based Fox matrix of `foxref`: every
        # over-choice of (T3,Tb) and of its x-mirror (-T3,Tb), the seeded
        # choices of the height sets, and every over-choice of the 8_6
        # chain's (3,10) curve; a crossing's t is over where its choice is True
        def agree(curve, choices):
            cs = curve_crossings(curve)
            for over_at in choices:
                overs = [1 if o else -1 for o in over_at]
                assert height_module._determinant(curve, overs) == fox_determinant(cs, overs), (curve.y, over_at)

        for b in (4, 5, 7, 8):
            for x in (T3, -T3):
                agree(PlaneCurve(x, chebyshev(b)), itertools.product((False, True), repeat=b - 1))
        for b in range(2, 33):
            if b % 3:
                c = PlaneCurve(T3, chebyshev(b))
                agree(c, seeded_over_choices(curve_crossings(c), b))
        ref = json.loads(CURVES_REFERENCE.read_text())
        pool = [PlaneCurve(Polynomial([0, -3, 0, 1]), Polynomial(e["y"])) for e in ref["pool"] if e["crossings"]]
        for k, c in enumerate(pool):
            agree(c, seeded_over_choices(curve_crossings(c), k, count=2))
        for w in json.loads(EMBED_REFERENCE.read_text()):
            c = PlaneCurve(Polynomial([Fraction(v) for v in w["x"]]), Polynomial([Fraction(v) for v in w["y"]]))
            agree(c, seeded_over_choices(curve_crossings(c), 0))
        *_, c10 = chain_8_6()
        agree(c10, itertools.product((False, True), repeat=9))
        overs = [1 if bit == "1" else -1 for bit in "010111001"]
        assert height_module._determinant(c10, overs) == fox_determinant(curve_crossings(c10), overs) == 23

    def test_chebyshev_alternating_is_fibonacci(self):
        # (T3, Tb) with alternating heights is the two-bridge knot F_b / F_{b-1}
        for b, fib in ((2, 1), (4, 3), (5, 5), (7, 13), (8, 21)):
            c = PlaneCurve(T3, chebyshev(b))
            cs = curve_crossings(c)
            z, _ = height_polynomial(cs, alternating_overpasses(cs))
            assert height_module._determinant(c, crossing_signs(c, z)) == fib

    def test_flipping_every_overpass_keeps_the_determinant(self):
        # the mirror image has the same determinant
        rng = random.Random(1)
        witness = perturb(q7(Fraction(-1, 2)), Fraction(1, 1024))
        for c in (PlaneCurve(T3, chebyshev(7)), witness):
            cs = curve_crossings(c)
            for _ in range(20):
                overs = [rng.choice((1, -1)) for _ in cs]
                flipped = [-o for o in overs]
                assert height_module._determinant(c, flipped) == height_module._determinant(c, overs)


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

    def test_an_off_catalog_knot_is_named_by_its_class_key(self):
        # on (T3,T11), this over-choice (earlier parameter over, per crossing
        # in x-order) gives 37/8, a two-bridge knot beyond the catalog
        c = PlaneCurve(T3, chebyshev(11))
        cs = curve_crossings(c)
        z, _ = height_polynomial(cs, [ch == "1" for ch in "1000110110"])
        d, rec = verify_embedding(c.x, c.y, z)
        assert d.fraction() == SchubertFraction(37, 8)
        assert rec.name == "37/8" and rec.fraction == d.fraction().key
        assert rec not in default_catalog()

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
                z, _ = height_polynomial(cs, [rng.random() < 0.5 for _ in cs])
                d, rec = verify_embedding(c.x, c.y, z)
                f = d.fraction()
                if f.alpha == 1:
                    assert rec is None, (b, d)
                else:
                    assert rec == record_for_fraction(f), (b, d)
                    assert fraction_equivalent(f, rec.fraction, include_mirror=True), (b, d, rec.name)
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
        for x in cs:
            for lo, hi in intervals(x):
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
                assert f.alpha == height_module._determinant(c, crossing_signs(c, z)), (c.y, overs, d)
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
                z, _ = height_polynomial(cs, [rng.random() < 0.5 for _ in cs])
                overs = crossing_signs(c, z)
                d = TrigonalDiagram(height_module._signed_entries(c, height_module._hands(cs, overs)))
                assert d.fraction().alpha == height_module._determinant(c, overs), (b, d)

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
            det = height_module._determinant(c, crossing_signs(c, z))
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
        monkeypatch.setattr(height_module, "_determinant", lambda curve, overs: 7)
        with pytest.raises(EmbeddingError, match="numerator 5, but the knot determinant is 7"):
            verify_embedding(c.x, c.y, z)

    def test_wrong_overpass_count_rejected(self):
        from lexiknot.curvelab import HeightError, gauss_sequence

        # three crossings: too few choices and too many both raise, in
        # the Gauss sequence as in the height built on it
        cs = curve_crossings(PlaneCurve(T3, chebyshev(4)))
        for over_at in ([True, True], [True] * 5):
            with pytest.raises(HeightError, match="one overpass choice per crossing"):
                gauss_sequence(cs, over_at)
            with pytest.raises(HeightError, match="one overpass choice per crossing"):
                height_polynomial(cs, over_at)
        assert [c.ranks for c in cs] == [(0, 3), (1, 4), (2, 5)]
        assert gauss_sequence(cs, [True, False, True]) == [1, -1, 1, -1, 1, -1]
