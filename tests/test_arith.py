import importlib.util
import random
from importlib import resources
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiknot.arith import (
    Catalog,
    DegenerateFractionError,
    SchubertFraction,
    _knot_record,
    cf_eval,
    cf_eval_pair,
    cf_expand_positive,
    class_residues,
    default_catalog,
    fraction_equivalent,
    parse_fraction,
    record_for_fraction,
)
from lexiknot.report import load_expected


def frac(a, b):
    return SchubertFraction.make(a, b)


def knotmath():
    """The benchmark's own two-bridge arithmetic, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "knotmath.py"
    spec = importlib.util.spec_from_file_location("knotmath", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def four_fractions(f):
    """beta, beta^-1, -beta and -beta^-1 over alpha: the fractions of f's class, mirror included."""
    inv = pow(f.beta, -1, f.alpha)
    return [frac(f.alpha, b) for b in (f.beta, inv, -f.beta, -inv)]


class TestCfEval:
    def test_table_values(self):
        assert cf_eval([2, 2]) == frac(5, 2)
        assert cf_eval([2, 1, 1, 2]) == frac(13, 5)

    def test_single_entry(self):
        for m in range(-6, 7):
            f = cf_eval([m])
            assert f.alpha == abs(m)

    def test_evaluates_11_4_equivalent_to_11_3(self):
        f = cf_eval([2, 1, 3])
        assert f == frac(11, 4)
        assert fraction_equivalent(f, frac(11, 3))

    def test_zero_entries_are_safe(self):
        # [a, 0, b] collapses to a+b
        assert cf_eval([2, 0, 3]) == cf_eval([5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cf_eval([])


class TestCfExpandPositive:
    def test_examples(self):
        assert cf_expand_positive(frac(7, 2)) == (3, 2)
        assert cf_expand_positive(frac(15, 4)) == (3, 1, 3)
        assert cf_expand_positive(frac(3, 1)) == (3,)

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateFractionError):
            cf_expand_positive(frac(1, 0))
        with pytest.raises(DegenerateFractionError):
            cf_expand_positive(frac(0, 1))

    def test_last_entry_at_least_two(self):
        for alpha in range(3, 60):
            for beta in range(1, alpha):
                if gcd(alpha, beta) != 1:
                    continue
                seq = cf_expand_positive(frac(alpha, beta))
                if len(seq) > 1:
                    assert seq[-1] >= 2

    def test_round_trip_alpha_up_to_99(self):
        for alpha in range(2, 100):
            for beta in range(1, alpha):
                if gcd(alpha, beta) != 1:
                    continue
                f = frac(alpha, beta)
                assert cf_eval(cf_expand_positive(f)) == f


class TestEquivalence:
    def test_inverse_pairs(self):
        assert fraction_equivalent(frac(5, 2), frac(5, 3))
        assert fraction_equivalent(frac(11, 4), frac(11, 3))

    def test_mirror_flag(self):
        assert not fraction_equivalent(frac(7, 2), frac(7, 3))
        assert fraction_equivalent(frac(7, 2), frac(7, 3), include_mirror=True)

    def test_reflexive(self):
        for a, b in ((3, 1), (17, 5), (29, 12)):
            assert fraction_equivalent(frac(a, b), frac(a, b))

    def test_equivalence_relation_on_small_range(self):
        # symmetry and transitivity over all classes with alpha <= 40
        for alpha in range(2, 41):
            residues = [b for b in range(1, alpha) if gcd(b, alpha) == 1]
            classes = {}
            for b in residues:
                for rep in classes:
                    if fraction_equivalent(frac(alpha, rep), frac(alpha, b)):
                        classes[rep].append(b)
                        break
                else:
                    classes[b] = [b]
            for rep, members in classes.items():
                for x in members:
                    for y in members:
                        assert fraction_equivalent(frac(alpha, x), frac(alpha, y))

    def test_mirror_closure_is_coarser(self):
        for alpha in range(2, 40):
            for b1 in range(1, alpha):
                for b2 in range(1, alpha):
                    if gcd(b1, alpha) != 1 or gcd(b2, alpha) != 1:
                        continue
                    if fraction_equivalent(frac(alpha, b1), frac(alpha, b2)):
                        assert fraction_equivalent(
                            frac(alpha, b1), frac(alpha, b2), include_mirror=True
                        )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8))
def test_unimodularity(seq):
    p, q = cf_eval_pair(seq)
    p1, q1 = cf_eval_pair(seq[:-1]) if len(seq) > 1 else (1, 0)
    assert abs(p * q1 - p1 * q) == 1


def test_reversal_equivalence_exhaustive_small():
    entries = [m for m in range(-4, 5) if m != 0]
    import itertools

    for length in range(1, 6):
        for seq in itertools.product(entries, repeat=length):
            f = cf_eval(seq)
            if f.alpha < 2:
                continue
            assert fraction_equivalent(f, cf_eval(seq[::-1]), include_mirror=True)


def test_reversal_equivalence_random_bulk():
    rng = random.Random(20240811)
    entries = [m for m in range(-5, 6) if m != 0]
    checked = 0
    while checked < 10_000:
        seq = [rng.choice(entries) for _ in range(rng.randint(1, 6))]
        f = cf_eval(seq)
        if f.alpha < 2:
            continue
        assert fraction_equivalent(f, cf_eval(seq[::-1]), include_mirror=True)
        checked += 1


class TestCatalog:
    def test_lookup_by_inverse(self):
        assert record_for_fraction(frac(17, 7)).name == "7_5"

    def test_lookup_direct(self):
        assert record_for_fraction(frac(31, 12)).name == "8_14"

    def test_links_not_found(self):
        assert default_catalog().by_key.get(frac(4, 1).key) is None
        with pytest.raises(DegenerateFractionError, match="two-component link"):
            record_for_fraction(frac(4, 1))

    def test_every_knot_is_found_from_all_four_of_its_fractions(self):
        for rec in default_catalog():
            for g in four_fractions(rec.fraction):
                assert default_catalog().by_key[g.key] is rec, (rec.name, g)
                assert record_for_fraction(g) is rec, (rec.name, g)

    def test_two_rows_of_one_class_are_rejected(self):
        # 4 = 2^-1 (mod 7): 7/2 and 7/4 are one knot, which a scan would
        # have found at its first row only
        with pytest.raises(ValueError, match="rows a and b name one class 7/2"):
            Catalog([_knot_record("a", frac(7, 2)), _knot_record("b", frac(7, 4))])

    def test_has_26_knots(self):
        assert len(default_catalog().records) == 26

    def test_crossing_number_matches_normal_form(self):
        # computed from the fraction, it is the published N column
        shipped = resources.files("lexiknot.data").joinpath("knots.csv")
        with resources.as_file(shipped) as path:
            expected = load_expected(str(path))
        for rec in default_catalog():
            assert rec.crossing_number == sum(cf_expand_positive(rec.fraction)) == expected[rec.name]["N"]

    def test_parse_fraction(self):
        assert parse_fraction("11/3") == frac(11, 3)
        assert parse_fraction("7") == frac(7, 1)


class TestClassKey:
    def test_equals_the_benchmark_class_key_below_400(self):
        class_key = knotmath().class_key
        for alpha in range(1, 400):
            for beta in range(alpha):
                if gcd(alpha, beta) == 1:
                    assert frac(alpha, beta).key == SchubertFraction(alpha, class_key(alpha, beta)), (alpha, beta)

    def test_fractions_share_a_key_exactly_when_they_are_one_class(self):
        same_class = knotmath().same_class
        for alpha in range(1, 60):
            fractions = [(alpha, b) for b in range(alpha) if gcd(alpha, b) == 1]
            for f in fractions:
                for g in fractions:
                    assert (frac(*f).key == frac(*g).key) == same_class(f, g), (f, g)

    def test_degenerate_fractions_are_their_own_key(self):
        for f in (frac(1, 0), frac(0, 1)):
            assert f.key == f

    def test_a_raw_non_coprime_fraction_has_no_class(self):
        # 4 has no inverse mod 6: the residues of 6/4, and the key chosen
        # from them, are refused rather than read off beta alone
        f = SchubertFraction(6, 4)
        for residues in (lambda: class_residues(f), lambda: class_residues(f, include_mirror=True), lambda: f.key):
            with pytest.raises(ValueError, match="not invertible"):
                residues()

    @pytest.mark.parametrize("fractions, name", [(((39, 25), (39, 14)), "39/14"), (((39, 16), (39, 22)), "39/16")])
    def test_an_off_catalog_class_has_one_record(self, fractions, name):
        records = {record_for_fraction(frac(*f)) for f in fractions}
        assert [r.name for r in records] == [name]
        for f in fractions:
            for g in four_fractions(frac(*f)):
                assert record_for_fraction(g) in records
