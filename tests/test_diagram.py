import itertools
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


def slide_normal_by_definition(entries):
    """No islet, and every |m_i| = 1 with i >= 2 has m_{i-1} m_i > 0."""
    return not islets(D(entries)) and all(
        abs(entries[i]) != 1 or entries[i - 1] * entries[i] > 0 for i in range(1, len(entries))
    )


def strict_keeps(entries):
    """Whether enumerate --strict keeps the sequence: every sequence lies
    in its own class, within its own crossing budget."""
    return entries in set(_class_sequences(cf_eval(entries), sum(map(abs, entries)), strict=True))


class TestSimpleCandidate:
    # enumerate --strict keeps the class sequences that are slide-normal
    def test_examples(self):
        for entries, expected in (((2, 1, 3), True), ((2, -1, 3), False), ((1, 2), True), ((-1, 2), True)):
            assert strict_keeps(entries) == slide_normal_by_definition(entries) == expected

    def test_strict_rejects_opposite_one(self):
        # no islet, yet the -1 follows a positive entry
        assert islets(D([3, 2, -1, -2])) == []
        assert not strict_keeps((3, 2, -1, -2))
        assert not slide_normal_by_definition((3, 2, -1, -2))

    def test_zero_entries_rejected(self):
        # the rules need no zero test: no class sequence has a zero entry
        for f in (cf_eval([2, 1, 3]), cf_eval([2, 2]), cf_eval([3, 1, 2, -3])):
            for strict in (False, True):
                assert all(0 not in e for e in _class_sequences(f, 9, strict))

    def test_matches_its_definition(self):
        # every sequence over +-{1, 2, 3} of length <= 4 and over +-{1, 2}
        # of length 5 and 6, against the strict generator of its class
        seqs = [e for k in range(1, 5) for e in itertools.product((1, -1, 2, -2, 3, -3), repeat=k)]
        seqs += [e for k in (5, 6) for e in itertools.product((1, -1, 2, -2), repeat=k)]
        by_class = {}
        for entries in seqs:
            f = cf_eval(entries)
            if f.alpha >= 2:  # the unknot and 0/1 have no class to generate
                by_class.setdefault(f, []).append(entries)
        for f, members in by_class.items():
            kept = set(_class_sequences(f, max(sum(map(abs, e)) for e in members), strict=True))
            for entries in members:
                assert (entries in kept) == slide_normal_by_definition(entries), entries


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
