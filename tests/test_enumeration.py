import itertools

import pytest

from lexiknot.arith import cf_eval, cf_eval_pair, default_catalog, fraction_equivalent
from lexiknot.diagram import TrigonalDiagram, crossing_number, islets
from lexiknot.enumeration import (
    DegreeTriple,
    SearchExhausted,
    _class_sequences,
    canonical_diagram,
    chebyshev_degree,
    enumerate_simple_diagrams,
    m_C,
    table_budget,
)

CAT = default_catalog()


def signed_sequences(budget):
    """Every nonzero integer sequence with sum |m_i| <= budget: each
    composition of each total, under each choice of signs."""
    for total in range(1, budget + 1):
        for k in range(1, total + 1):
            for cuts in itertools.combinations(range(1, total), k - 1):
                parts = [b - a for a, b in zip((0,) + cuts, cuts + (total,))]
                for signs in itertools.product((1, -1), repeat=k):
                    yield tuple(p * s for p, s in zip(parts, signs))


def in_class(seq, rec):
    return fraction_equivalent(cf_eval(seq), rec.fraction, include_mirror=True)


def simple_by_definition(entries):
    """The boundary-aware simplicity filter on a whole sequence."""
    k = len(entries)
    if k == 1:
        return True
    if abs(entries[0]) == 1 or abs(entries[-1]) == 1:
        return False
    if abs(entries[0]) == 2 and entries[0] * entries[1] < 0:
        return False
    if abs(entries[-1]) == 2 and entries[-2] * entries[-1] < 0:
        return False
    for i in range(1, k - 1):
        if abs(entries[i]) == 1 and (entries[i - 1] * entries[i] < 0 or entries[i] * entries[i + 1] < 0):
            return False
    return True


def slide_normal_by_definition(entries):
    """The bare slide-normal shape: every |m_i| = 1 with i >= 2 has m_{i-1} m_i > 0."""
    return all(abs(m) != 1 or prev * m > 0 for prev, m in zip(entries, entries[1:]))


class TestMC:
    def test_examples(self):
        assert m_C(CAT.get("3_1")) == 3
        assert m_C(CAT.get("4_1")) == 4
        assert m_C(CAT.get("7_7")) == 7

    def test_not_found_within_cap(self):
        with pytest.raises(SearchExhausted):
            m_C(CAT.get("8_12"), cap=6)

    def test_fibonacci_growth_bound(self):
        # no +-1 word of length m can reach alpha beyond the Fibonacci range
        fib = [1, 1]
        while len(fib) < 20:
            fib.append(fib[-1] + fib[-2])
        for rec in CAT:
            m = m_C(rec)
            lower = next(i for i, f in enumerate(fib, start=-1) if f >= rec.fraction.alpha)
            assert m >= lower

    def test_witness_exists_at_m(self):
        # and m is minimal: no +-1 sequence one shorter lies in the class
        for rec in CAT:
            m = m_C(rec)
            assert any(in_class(s, rec) for s in itertools.product((1, -1), repeat=m))
            assert not any(in_class(s, rec) for s in itertools.product((1, -1), repeat=m - 1))

    @pytest.mark.parametrize("cap", [0, -3])
    def test_empty_cap_exhausts(self, cap):
        with pytest.raises(SearchExhausted):
            m_C(CAT.get("3_1"), cap=cap)

    def test_large_cap_stops_at_m(self):
        # the search runs from the +-(1, +-1) end and stops at the first
        # length that reaches the class, however far the cap lies
        for name in ("3_1", "8_12"):
            rec = CAT.get(name)
            assert m_C(rec, cap=500) == m_C(rec)


class TestClassSequences:
    def test_matches_brute_force(self):
        # each catalog class, each budget, each filter: of the brute-force
        # members of the class or its mirror that pass the filter, those
        # of the class itself, every one once; negating every entry
        # mirrors, so they and their negations are all of them
        candidates = list(signed_sequences(8))
        for rec in CAT:
            members = [s for s in candidates if in_class(s, rec)]
            for strict, keep in ((False, simple_by_definition), (True, slide_normal_by_definition)):
                kept = [s for s in members if keep(s)]
                for budget in range(1, 9):
                    got = list(_class_sequences(rec.fraction, budget, strict))
                    expected = {s for s in kept if sum(map(abs, s)) <= budget}
                    mirrors = {tuple(-m for m in s) for s in got}
                    assert len(got) == len(set(got)), (rec.name, budget, strict)
                    assert set(got) <= expected and set(got) | mirrors == expected, (rec.name, budget, strict)
                    own = {s for s in expected if fraction_equivalent(cf_eval(s), rec.fraction)}
                    assert set(got) == own, (rec.name, budget, strict)

    def test_continuant_is_at_most_fibonacci(self):
        # the pruning rests on |p| <= F_{s+1} for sum |m_i| = s
        fib = [0, 1]
        while len(fib) < 12:
            fib.append(fib[-1] + fib[-2])
        for s in signed_sequences(10):
            assert abs(cf_eval_pair(s)[0]) <= fib[sum(map(abs, s)) + 1], s

    @pytest.mark.parametrize("budget", [0, -1, -3])
    def test_empty_budget_yields_nothing(self, budget):
        for strict in (False, True):
            assert list(_class_sequences(CAT.get("3_1").fraction, budget, strict)) == []


class TestChebyshevDegree:
    def test_examples(self):
        for name, triple in (("6_2", (3, 8, 10)), ("8_12", (3, 11, 13)), ("5_1", (3, 7, 8))):
            rec = CAT.get(name)
            assert tuple(chebyshev_degree(rec, m_C(rec))) == triple

    def test_b_coprime_to_three(self):
        for rec in CAT:
            t = chebyshev_degree(rec, m_C(rec))
            assert t.b % 3 != 0

    def test_degree_triple_validation(self):
        with pytest.raises(ValueError):
            DegreeTriple(3, 6, 9)
        with pytest.raises(ValueError):
            DegreeTriple(3, 11, 7)


def brute_force_diagrams(rec, budget):
    """Independent generator: all islet-free nonzero words up to the budget
    matching the knot, with no simplicity pruning beyond the islet rule."""
    out = set()
    for length in range(1, budget + 1):
        for absvals in itertools.product(range(1, budget + 1), repeat=length):
            if sum(absvals) > budget:
                continue
            for signs in itertools.product((1, -1), repeat=length):
                entries = tuple(a * s for a, s in zip(absvals, signs))
                d = TrigonalDiagram(entries)
                if islets(d):
                    continue
                if not fraction_equivalent(cf_eval(entries), rec.fraction, include_mirror=True):
                    continue
                out.add(canonical_diagram(d).entries)
    return out


class TestEnumeration:
    def test_6_2(self):
        diags = enumerate_simple_diagrams(CAT.get("6_2"), budget=7)
        assert {d.entries for d in diags} == {
            canonical_diagram(TrigonalDiagram([2, 1, 3])).entries,
            canonical_diagram(TrigonalDiagram([3, -4])).entries,
        }

    def test_7_7(self):
        diags = enumerate_simple_diagrams(CAT.get("7_7"), budget=7)
        assert len(diags) == 1
        assert diags[0].entries == canonical_diagram(TrigonalDiagram([2, 1, 1, 1, 2])).entries

    def test_8_13_budget_10(self):
        diags = enumerate_simple_diagrams(CAT.get("8_13"), budget=10)
        assert len(diags) == 5

    def test_table_budget_exception(self):
        assert table_budget(CAT.get("8_13"), m_C(CAT.get("8_13"))) == 10
        assert table_budget(CAT.get("6_2"), m_C(CAT.get("6_2"))) == m_C(CAT.get("6_2"))

    def test_crossing_number_invariant(self):
        for name in ("5_2", "6_2", "7_5"):
            rec = CAT.get(name)
            for d in enumerate_simple_diagrams(rec):
                assert crossing_number(d) == rec.crossing_number

    def test_normal_form_always_present(self):
        from lexiknot.arith import cf_expand_positive

        for rec in CAT:
            nf = canonical_diagram(TrigonalDiagram(cf_expand_positive(rec.fraction)))
            found = {d.entries for d in enumerate_simple_diagrams(rec, budget=table_budget(rec, m_C(rec)))}
            assert nf.entries in found

    def test_exhaustive_against_brute_force(self):
        # soundness: everything returned appears in the unpruned islet-free
        # generator; completeness: every generated word that passes the
        # simplicity filter is returned
        for name, budget in (("4_1", 4), ("5_2", 6), ("6_2", 7)):
            rec = CAT.get(name)
            ours = {d.entries for d in enumerate_simple_diagrams(rec, budget=budget)}
            brute = brute_force_diagrams(rec, budget)
            assert ours <= brute
            kept = {
                e
                for e in brute
                if any(
                    simple_by_definition(img)
                    for img in (e, e[::-1], tuple(-m for m in e), tuple(-m for m in e[::-1]))
                )
            }
            assert ours == kept

    def test_budget_below_crossing_number_rejected(self):
        with pytest.raises(ValueError):
            enumerate_simple_diagrams(CAT.get("6_2"), budget=5)

    def test_strict_mode_is_superset_on_6_2(self):
        loose = enumerate_simple_diagrams(CAT.get("6_2"), budget=7, strict=True)
        default = enumerate_simple_diagrams(CAT.get("6_2"), budget=7)
        assert {d.entries for d in default} <= {d.entries for d in loose}


class TestCanonical:
    def test_four_images_collapse(self):
        images = [
            TrigonalDiagram([3, 1, 2, -3]),
            TrigonalDiagram([-3, 2, 1, 3]),
            TrigonalDiagram([-3, -1, -2, 3]),
            TrigonalDiagram([3, -2, -1, -3]),
        ]
        canon = {canonical_diagram(d).entries for d in images}
        assert len(canon) == 1

    def test_positive_first_preferred(self):
        c = canonical_diagram(TrigonalDiagram([-2, -2]))
        assert c.entries[0] > 0


class TestOffCatalog:
    def test_torus_knot_nine_one(self):
        from lexiknot.arith import SchubertFraction, record_for_fraction

        rec = record_for_fraction(SchubertFraction.make(9, 1))
        assert rec.crossing_number == 9
        assert m_C(rec) == 12

    def test_links_rejected(self):
        from lexiknot.arith import DegenerateFractionError, SchubertFraction, record_for_fraction

        with pytest.raises(DegenerateFractionError):
            record_for_fraction(SchubertFraction.make(4, 1))

    def test_budget_cap(self):
        rec = CAT.get("3_1")
        with pytest.raises(ValueError):
            enumerate_simple_diagrams(rec, budget=17)
