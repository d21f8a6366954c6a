import itertools
import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from lexiknot.arith import (
    SchubertFraction,
    cf_eval,
    cf_eval_pair,
    cf_expand_positive,
    class_residues,
    default_catalog,
    fraction_equivalent,
    record_for_fraction,
)
from lexiknot.diagram import TrigonalDiagram, crossing_number, islets
from lexiknot.enumeration import (
    DegreeTriple,
    SearchExhausted,
    _canonical_entries,
    _class_sequences,
    _simple_step,
    chebyshev_degree,
    default_cap,
    enumerate_simple_diagrams,
    m_C,
    table_budget,
)

CAT = default_catalog()
SRC = Path(__file__).resolve().parents[1] / "src"

# the crossing numbers the m_C oracle and the prune differential reach;
# CI runs them with 12 and 11
MC_ORACLE_CROSSINGS = int(os.environ.get("LEXIKNOT_MC_ORACLE_CROSSINGS", "10"))
PRUNE_ORACLE_CROSSINGS = int(os.environ.get("LEXIKNOT_PRUNE_ORACLE_CROSSINGS", "9"))


def knot_classes(max_crossings):
    """One fraction of each two-bridge knot with at most max_crossings
    crossings, a knot and its mirror image as one: alpha odd, beta the
    least residue of the class and its mirror."""
    fib = [0, 1]
    while len(fib) <= max_crossings + 1:
        fib.append(fib[-1] + fib[-2])
    out = []
    for alpha in range(3, fib[max_crossings + 1] + 1, 2):  # a continuant of sum n is at most F_{n+1}
        for beta in range(1, alpha):
            f = SchubertFraction.make(alpha, beta)
            if gcd(alpha, beta) == 1 and beta == min(class_residues(f, include_mirror=True)):
                if sum(cf_expand_positive(f)) <= max_crossings:
                    out.append(f)
    return out


def class_images(f):
    """f, its inverse beta^-1 and its mirror -beta: three fractions of one class up to mirror."""
    return (f, SchubertFraction.make(f.alpha, pow(f.beta, -1, f.alpha)), SchubertFraction.make(f.alpha, -f.beta))


def m_C_by_its_own_search(k, cap=None):
    """m_C by a breadth-first pass from +-(1, +-1) that builds its levels
    afresh on every call and shares nothing."""
    if cap is None:
        cap = default_cap(k.crossing_number)
    alpha = k.fraction.alpha
    residues = class_residues(k.fraction, include_mirror=True)
    level = {(1, 1), (1, -1)}
    seen = set(level)
    for length in range(1, cap + 1):
        if any(p == alpha and q % alpha in residues for p, q in level):
            return length
        longer = ((m * p + q, p) for p, q in level for m in (1, -1))
        level = {pq if pq > (0, 0) else (-pq[0], -pq[1]) for pq in longer} - seen
        seen |= level
    return None


def class_sequences_by_generators(f, budget, prune=True):
    """The class generator as a chain of nested generators, each level
    rebuilding its tails as (m,) + tail; without ``prune``, with the
    Fibonacci bound on the next continuant only, not on the one after it."""
    if budget <= 0:
        return
    fib = [0, 1]
    while len(fib) <= budget + 1:
        fib.append(fib[-1] + fib[-2])

    def expand(p, q, left, prev, first):
        if abs(q) == 1 and 0 < abs(p) <= left and _simple_step(prev, p * q, first, True):
            yield (p * q,)
        for a in range(1, left):
            if abs(q) > fib[left - a + 1]:
                break
            for m in (a, -a):
                if (not prune or abs(p - m * q) <= fib[left - a]) and _simple_step(prev, m, first, False):
                    yield from ((m,) + tail for tail in expand(q, p - m * q, left - a, m, prev == 0))

    alpha, bound = f.alpha, fib[budget]
    for r in sorted(class_residues(f)):
        for q in range(r - (r + bound) // alpha * alpha, bound + 1, alpha):
            yield from expand(alpha, q, budget, 0, False)


def simple_diagrams_by_generators(rec, budget):
    """enumerate_simple_diagrams as a canonical TrigonalDiagram per
    sequence of the generator chain, each canonicalized by its own key."""
    found = set()
    for e in class_sequences_by_generators(rec.fraction, budget):
        images = [e, e[::-1]]
        images += [tuple(-m for m in x) for x in images]
        found.add(TrigonalDiagram(min(images, key=lambda x: (0 if x[0] > 0 else 1, x))).entries)
    return [TrigonalDiagram(e) for e in sorted(found, key=lambda e: (len(e), e))]


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


class TestMC:
    def test_examples(self):
        assert m_C(CAT.get("3_1")) == 3
        assert m_C(CAT.get("4_1")) == 4
        assert m_C(CAT.get("7_7")) == 7

    def test_not_found_within_cap(self):
        # also once m_C(8_12) = 10 has built the levels past the cap
        rec = CAT.get("8_12")
        assert m_C(rec) == 10
        for cap in (6, 9):
            with pytest.raises(SearchExhausted):
                m_C(rec, cap=cap)

    def test_equals_a_search_of_its_own_on_every_class(self):
        # every class up to MC_ORACLE_CROSSINGS crossings, as beta, beta^-1
        # and -beta; one cap short of m_C finds nothing
        for f in knot_classes(MC_ORACLE_CROSSINGS):
            for g in class_images(f):
                rec = record_for_fraction(g)
                expected = m_C_by_its_own_search(rec)
                if expected is None:
                    with pytest.raises(SearchExhausted):
                        m_C(rec)
                    continue
                assert m_C(rec) == expected, g
                with pytest.raises(SearchExhausted):
                    m_C(rec, cap=expected - 1)

    def test_levels_are_built_on_demand_in_any_order(self):
        # a fresh interpreter builds no level at import; asked deepest
        # first, later calls read levels built for a longer search
        fractions = sorted(knot_classes(9), key=lambda f: f.alpha, reverse=True)
        code = (
            f"import json, sys; sys.path.insert(0, {str(SRC)!r}); import lexiknot.cli; "
            "from lexiknot import enumeration as e; from lexiknot.arith import SchubertFraction, record_for_fraction; "
            "built = len(e._PAIR_LEVELS.indexes); "
            "print(json.dumps([built, [e.m_C(record_for_fraction(SchubertFraction.make(a, b))) "
            "for a, b in json.loads(sys.argv[1])]]))"
        )
        pairs = json.dumps([[f.alpha, f.beta] for f in fractions])
        out = subprocess.run([sys.executable, "-c", code, pairs], capture_output=True, text=True, check=True).stdout
        built, answers = json.loads(out)
        assert built == 0
        assert answers == [m_C_by_its_own_search(record_for_fraction(f)) for f in fractions]

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
        # each catalog class, each budget: of the brute-force members of
        # the class or its mirror that pass the filter, those of the class
        # itself, every one once; negating every entry mirrors, so they
        # and their negations are all of them
        candidates = list(signed_sequences(8))
        for rec in CAT:
            kept = [s for s in candidates if in_class(s, rec) and simple_by_definition(s)]
            for budget in range(1, 9):
                got = list(_class_sequences(rec.fraction, budget))
                expected = {s for s in kept if sum(map(abs, s)) <= budget}
                mirrors = {tuple(-m for m in s) for s in got}
                assert len(got) == len(set(got)), (rec.name, budget)
                assert set(got) <= expected and set(got) | mirrors == expected, (rec.name, budget)
                own = {s for s in expected if fraction_equivalent(cf_eval(s), rec.fraction)}
                assert set(got) == own, (rec.name, budget)

    def test_continuant_is_at_most_fibonacci(self):
        # the pruning rests on |p| <= F_{s+1} for sum |m_i| = s
        fib = [0, 1]
        while len(fib) < 12:
            fib.append(fib[-1] + fib[-2])
        for s in signed_sequences(10):
            assert abs(cf_eval_pair(s)[0]) <= fib[sum(map(abs, s)) + 1], s

    def test_prune_cuts_only_dead_subtrees(self):
        # the same list, in the same order, as the generator without the
        # bound on the continuant two entries on, for every class up to
        # PRUNE_ORACLE_CROSSINGS crossings at budgets N..N+3
        for f in knot_classes(PRUNE_ORACLE_CROSSINGS):
            n = sum(cf_expand_positive(f))
            for budget in range(n, n + 4):
                expected = list(class_sequences_by_generators(f, budget, prune=False))
                assert list(_class_sequences(f, budget)) == expected, (f, budget)

    @pytest.mark.parametrize("budget", [0, -1, -3])
    def test_empty_budget_yields_nothing(self, budget):
        assert list(_class_sequences(CAT.get("3_1").fraction, budget)) == []


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
                out.add(_canonical_entries(entries))
    return out


class TestEnumeration:
    def test_6_2(self):
        diags = enumerate_simple_diagrams(CAT.get("6_2"), budget=7)
        assert {d.entries for d in diags} == {
            _canonical_entries((2, 1, 3)),
            _canonical_entries((3, -4)),
        }

    def test_7_7(self):
        diags = enumerate_simple_diagrams(CAT.get("7_7"), budget=7)
        assert len(diags) == 1
        assert diags[0].entries == _canonical_entries((2, 1, 1, 1, 2))

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
            nf = _canonical_entries(tuple(cf_expand_positive(rec.fraction)))
            found = {d.entries for d in enumerate_simple_diagrams(rec, budget=table_budget(rec, m_C(rec)))}
            assert nf in found

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

    def test_equals_the_generator_chain_on_every_class(self):
        # the same diagrams in the same order as a canonical TrigonalDiagram
        # per sequence of the nested-generator pass, for every class up to
        # 10 crossings at budgets N..N+3
        for f in knot_classes(10):
            rec = record_for_fraction(f)
            for budget in range(rec.crossing_number, rec.crossing_number + 4):
                expected = simple_diagrams_by_generators(rec, budget)
                assert enumerate_simple_diagrams(rec, budget) == expected, (f, budget)

    def test_budget_below_crossing_number_rejected(self):
        with pytest.raises(ValueError):
            enumerate_simple_diagrams(CAT.get("6_2"), budget=5)


class TestCanonical:
    def test_four_images_collapse(self):
        images = [
            TrigonalDiagram([3, 1, 2, -3]),
            TrigonalDiagram([-3, 2, 1, 3]),
            TrigonalDiagram([-3, -1, -2, 3]),
            TrigonalDiagram([3, -2, -1, -3]),
        ]
        canon = {_canonical_entries(d.entries) for d in images}
        assert len(canon) == 1

    def test_positive_first_preferred(self):
        assert _canonical_entries((-2, -2))[0] > 0


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
