import itertools
import os
from math import ceil, gcd

import pytest

from lexiknot.arith import (
    SchubertFraction,
    _knot_record,
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
    MAX_CROSSINGS,
    DegreeTriple,
    _canonical_entries,
    _class_sequences,
    _simple_step,
    chebyshev_degree,
    enumerate_simple_diagrams,
    m_C,
    table_budget,
)

CAT = default_catalog()

# the crossing numbers the m_C oracle and the prune and residue differentials
# reach; CI runs them with 12 and 11
MC_ORACLE_CROSSINGS = int(os.environ.get("LEXIKNOT_MC_ORACLE_CROSSINGS", "10"))
PRUNE_ORACLE_CROSSINGS = int(os.environ.get("LEXIKNOT_PRUNE_ORACLE_CROSSINGS", "9"))


def knot_classes(max_crossings):
    """One fraction of each two-bridge knot with at most max_crossings
    crossings, a knot and its mirror image as one: alpha odd, and the
    fraction its own class key."""
    fib = [0, 1]
    while len(fib) <= max_crossings + 1:
        fib.append(fib[-1] + fib[-2])
    out = []
    for alpha in range(3, fib[max_crossings + 1] + 1, 2):  # a continuant of sum n is at most F_{n+1}
        for beta in range(1, alpha):
            f = SchubertFraction.make(alpha, beta)
            if gcd(alpha, beta) == 1 and f.key == f:
                if sum(cf_expand_positive(f)) <= max_crossings:
                    out.append(f)
    return out


def class_images(f):
    """f, its inverse beta^-1 and its mirror -beta: three fractions of one class up to mirror."""
    return (f, SchubertFraction.make(f.alpha, pow(f.beta, -1, f.alpha)), SchubertFraction.make(f.alpha, -f.beta))


def default_cap(n):
    """The largest m_C over the two-bridge knots of n crossings, for every
    3 <= n <= 20 (checked in CI); the ceiling is needed at the trefoil,
    where m_C = 3."""
    return max(n, ceil(3 * n / 2) - 2)


def m_C_by_its_own_search(k):
    """m_C by a breadth-first pass over continuant pairs from +-(1, +-1),
    the shortest +-1 sequence by search, not by formula; None past
    default_cap."""
    alpha = k.fraction.alpha
    residues = class_residues(k.fraction, include_mirror=True)
    level = {(1, 1), (1, -1)}
    seen = set(level)
    for length in range(1, default_cap(k.crossing_number) + 1):
        if any(p == alpha and q % alpha in residues for p, q in level):
            return length
        longer = ((m * p + q, p) for p, q in level for m in (1, -1))
        level = {pq if pq > (0, 0) else (-pq[0], -pq[1]) for pq in longer} - seen
        seen |= level
    return None


def class_sequences_by_generators(f, budget, residues, prune=True):
    """The class generator as a chain of nested generators, each level
    rebuilding its tails as (m,) + tail, from each of ``residues`` in
    turn; without ``prune``, with the Fibonacci bound on the next
    continuant only, not on the one after it."""
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
    for r in residues:
        for q in range(r - (r + bound) // alpha * alpha, bound + 1, alpha):
            yield from expand(alpha, q, budget, 0, False)


def canonical_by_its_own_key(e):
    """The least of a sequence's reversal and mirror images, a positive
    leading entry first."""
    images = [e, e[::-1]]
    images += [tuple(-m for m in x) for x in images]
    return min(images, key=lambda x: (0 if x[0] > 0 else 1, x))


def simple_diagrams_by_generators(rec, budget):
    """enumerate_simple_diagrams as a canonical TrigonalDiagram per
    sequence of the generator chain from both residues beta and beta^-1,
    each canonicalized by its own key."""
    found = set()
    for e in class_sequences_by_generators(rec.fraction, budget, sorted(class_residues(rec.fraction))):
        found.add(TrigonalDiagram(canonical_by_its_own_key(e)).entries)
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

    def test_equals_a_search_of_its_own_on_every_class(self):
        # every class up to MC_ORACLE_CROSSINGS crossings, as beta, beta^-1
        # and -beta, each its own record (record_for_fraction would give
        # all three the key's); neither search is exhausted within
        # default_cap
        for f in knot_classes(MC_ORACLE_CROSSINGS):
            for g in class_images(f):
                rec = _knot_record(str(g), g)
                expected = m_C_by_its_own_search(rec)
                assert expected is not None, g
                assert m_C(rec) == expected, g

    @pytest.mark.parametrize("alpha, beta, expected", [(17, 1, 24), (75025, 28657, 24)])
    def test_equals_a_search_of_its_own_past_sixteen_crossings(self, alpha, beta, expected):
        # T(2,17) and F_25/F_24, 17 and 24 crossings: no crossing number
        # is out of m_C's range
        rec = record_for_fraction(SchubertFraction.make(alpha, beta))
        assert m_C(rec) == m_C_by_its_own_search(rec) == expected

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


class TestClassSequences:
    def test_matches_brute_force(self):
        # each catalog class, each budget: of the brute-force members of
        # the class or its mirror, at both residues and their negations,
        # that pass the filter, those of value alpha/beta itself, every
        # one once; their reversals and negations are all of them, so
        # the two give one canonical set
        candidates = list(signed_sequences(8))
        for rec in CAT:
            kept = [s for s in candidates if in_class(s, rec) and simple_by_definition(s)]
            for budget in range(1, 9):
                got = list(_class_sequences(rec.fraction, budget))
                expected = {s for s in kept if sum(map(abs, s)) <= budget}
                assert len(got) == len(set(got)), (rec.name, budget)
                assert set(got) == {s for s in expected if cf_eval(s) == rec.fraction}, (rec.name, budget)
                canonical = {canonical_by_its_own_key(s) for s in got}
                assert canonical == {canonical_by_its_own_key(s) for s in expected}, (rec.name, budget)

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
                expected = list(class_sequences_by_generators(f, budget, (f.beta,), prune=False))
                assert list(_class_sequences(f, budget)) == expected, (f, budget)

    def test_beta_alone_gives_the_canonical_set_of_both_residues(self):
        # for every class up to PRUNE_ORACLE_CROSSINGS crossings at
        # budgets N..min(N+3, 16): the sequences of beta alone and those
        # of beta and beta^-1 give one set of canonical images
        for f in knot_classes(PRUNE_ORACLE_CROSSINGS):
            n = sum(cf_expand_positive(f))
            residues = sorted(class_residues(f))
            for budget in range(n, min(n + 3, MAX_CROSSINGS) + 1):
                got = {canonical_by_its_own_key(s) for s in _class_sequences(f, budget)}
                expected = {canonical_by_its_own_key(s) for s in class_sequences_by_generators(f, budget, residues)}
                assert got == expected, (f, budget)

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

    def test_torus_knots(self):
        # T(2, 2k+1) has the Chebyshev curve (3, 3k+1, 3k+2)
        for k in range(1, 11):
            rec = record_for_fraction(SchubertFraction.make(2 * k + 1, 1))
            assert chebyshev_degree(rec, m_C(rec)) == (3, 3 * k + 1, 3 * k + 2), rec.name

    def test_fibonacci_fractions(self):
        # F_b/F_{b-1}, the all-ones sequence of length b - 1, has b - 1
        # crossings and the Chebyshev curve (3, b, 2b - 3); F_b is odd, a
        # knot, exactly when 3 does not divide b
        for b in range(4, 33):
            if b % 3:
                rec = record_for_fraction(cf_eval((1,) * (b - 1)))
                assert chebyshev_degree(rec, m_C(rec)) == (3, b, 2 * b - 3), rec.name

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

    def test_knot_beyond_the_range_is_refused_by_the_budget(self):
        # 17/1 has 17 crossings, so its default budget, m_C = 24, and every
        # budget it admits are beyond 16
        rec = record_for_fraction(SchubertFraction.make(17, 1))
        for budget in (None, 17):
            with pytest.raises(ValueError, match="budgets beyond 16 crossings are out of range"):
                enumerate_simple_diagrams(rec, budget)
