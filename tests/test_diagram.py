import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiknot.arith import cf_eval, cf_expand_positive, fraction_equivalent
from lexiknot.diagram import (
    IsletError,
    TrigonalDiagram,
    crossing_number,
    identify_knot,
    islets,
)
from lexiknot.enumeration import _class_sequences

D = TrigonalDiagram


class TestStatistics:
    def test_islets(self):
        assert islets(D([2, -1, 3])) == [2]
        assert islets(D([2, 1, 3])) == []
        assert islets(D([3, 1, 2, -3])) == []

    def test_crossing_number(self):
        assert crossing_number(D([3, -4])) == 6
        assert crossing_number(D([2, 1, 2, -2, 3])) == 8
        for m in range(1, 8):
            assert crossing_number(D([m])) == m

    def test_crossing_number_preconditions(self):
        with pytest.raises(IsletError):
            crossing_number(D([2, 0, 3]))
        with pytest.raises(IsletError):
            crossing_number(D([2, -1, 3]))

    def test_gauss_sign_changes(self):
        # the Gauss sequence changes sign 2N + s - 1 times
        for entries, changes in (([2, 2], 7), ([3], 5), ([3, -4], 12)):
            d = D(entries)
            assert 2 * crossing_number(d) + d.sign_changes - 1 == changes

    def test_all_positive_formulas(self):
        rng = random.Random(7)
        for _ in range(200):
            entries = [rng.randint(1, 5) for _ in range(rng.randint(1, 6))]
            d = D(entries)
            n = crossing_number(d)
            assert n == sum(entries)
            assert d.sign_changes == 0  # so the Gauss sequence changes sign 2N - 1 times


def lagrange(entries, pos, eps):
    """One Lagrange isotopy D(x, m, -n, -y) -> D(x, m-eps, eps, n-eps, y),
    pos the 1-based index of m: a second way to write a fraction."""
    m, n, y = entries[pos - 1], -entries[pos], tuple(-v for v in entries[pos + 1 :])
    return entries[: pos - 1] + (m - eps, eps, n - eps) + y


class TestLagrange:
    # continued fractions related by a Lagrange isotopy have one value:
    # an identity of cf_eval on signed entries, with the move written above
    def test_example_merge(self):
        assert lagrange((2, -3), 1, 1) == (1, 1, 2)
        assert fraction_equivalent(cf_eval([2, -3]), cf_eval([1, 1, 2]))

    def test_fraction_preserved_exactly(self):
        # the move keeps the continued fraction value, not just the class
        assert cf_eval([1, -1]) == cf_eval([2, -1, 2])

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=6),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([1, -1]),
    )
    def test_preserves_cf_value(self, entries, pos, eps):
        pos = min(pos, len(entries) - 1)
        assert cf_eval(entries) == cf_eval(lagrange(tuple(entries), pos, eps))


class TestNormalForm:
    # the all-positive expansion of a diagram's fraction: the normal form
    # whose entry sum is the crossing number of an off-catalog knot
    def test_6_2(self):
        assert cf_expand_positive(D([3, -4]).fraction()) == (2, 1, 3)

    def test_already_normal(self):
        assert cf_expand_positive(D([2, 2]).fraction()) == (2, 2)

    def test_zero_entries(self):
        f = D([0, -1, -3]).fraction()
        assert fraction_equivalent(cf_eval(cf_expand_positive(f)), f)

    def test_output_is_positive_and_islet_free(self):
        rng = random.Random(3)
        count = 0
        while count < 300:
            entries = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(1, 6))]
            f = cf_eval(entries)
            if f.alpha < 2:
                continue
            nf = D(cf_expand_positive(f))
            assert all(m > 0 for m in nf.entries)
            assert islets(nf) == []
            assert fraction_equivalent(f, nf.fraction(), include_mirror=True)
            count += 1


class TestSimpleCandidate:
    def test_zero_entries_rejected(self):
        # the rule needs no zero test: no class sequence has a zero entry
        for f in (cf_eval([2, 1, 3]), cf_eval([2, 2]), cf_eval([3, 1, 2, -3])):
            assert all(0 not in e for e in _class_sequences(f, 9))


class TestIdentify:
    def test_6_2(self):
        rec = identify_knot(D([2, 1, 3]))
        assert rec is not None and rec.name == "6_2"

    def test_7_1(self):
        rec = identify_knot(D([7]))
        assert rec is not None and rec.name == "7_1"

    def test_link_is_none(self):
        assert identify_knot(D([1, 1])) is None

    def test_text(self):
        d = D([2, 1, -3])
        assert d.entries == (2, 1, -3)
        assert d.text() == "2,1,-3"
        with pytest.raises(ValueError):
            D([])
