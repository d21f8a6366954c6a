import csv
import json
import os
import random
import subprocess
import sys
from collections import deque
from itertools import combinations, groupby, product
from pathlib import Path

import pytest

from lexiknot import enumeration, planereduce
from lexiknot.arith import default_catalog, parse_fraction, record_for_fraction
from lexiknot.diagram import TrigonalDiagram
from lexiknot.enumeration import SearchExhausted
from lexiknot.planereduce import (
    MoveError,
    PlaneWord,
    b_lower_bound,
    base_table,
    canonical_runs,
    constructive_upper,
    degree_verdict,
    inverse_R,
    letters_to_runs,
    normalize_runs,
    project,
    reduction_search,
    word_images,
)

import wordclass
from wordclass import neighbors, same_word_class

W = PlaneWord
CAT = default_catalog()
# verdicts of the 69 nine- and ten-crossing classes, recorded by the benchmark
QUERIES = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "queries.json"
SRC = Path(__file__).resolve().parents[1] / "src"

# the crossing number the reduction oracle reaches; CI runs it with 12
REDUCTION_ORACLE_CROSSINGS = int(os.environ.get("LEXIKNOT_REDUCTION_ORACLE_CROSSINGS", "9"))


def all_words(max_crossings):
    """Every word with at most max_crossings crossings: positive runs,
    with or without a leading zero, and the empty word."""
    out = [()]
    for n in range(1, max_crossings + 1):
        for k in range(n):
            for cuts in combinations(range(1, n), k):
                ends = (0,) + cuts + (n,)
                runs = tuple(ends[i + 1] - ends[i] for i in range(k + 1))
                out += [runs, (0,) + runs]
    return out


def normalized_words(max_crossings):
    """Every normalized word with at most max_crossings crossings: positive
    runs with or without a single zero at either end, and the empty word."""
    words = all_words(max_crossings)
    return words + [runs + (0,) for runs in words if runs]


def canonical_by_its_own_key(runs):
    return min(word_images(runs), key=lambda r: (len(r), r))


def r_pattern(runs, i):
    """Whether R applies at index i: runs i, i+1, i+2 read (>=1, 1, >=1)."""
    return 0 <= i <= len(runs) - 3 and runs[i] >= 1 and runs[i + 1] == 1 and runs[i + 2] >= 1


def boundary_pattern(runs):
    """Whether the boundary R applies: the word starts (2, >=1)."""
    return len(runs) >= 2 and runs[0] == 2 and runs[1] >= 1


def reduced(runs, kind, pos):
    """The normalized target of one move of the degree arithmetic."""
    return normalize_runs(planereduce._move_target(runs, kind, pos))


def reduction_moves_by_their_own_rewrites(img_idx, img):
    """The moves of the degree arithmetic on one image, found by the
    pattern checks and normalized: the identities, then R, then the
    boundary R."""
    for pos, tgt in enumerate(planereduce._PARTNERS.get(img, ())):
        yield ("ident", img_idx, pos), tgt
    for i in range(len(img) - 2):
        if r_pattern(img, i):
            yield ("R", img_idx, i), reduced(img, "R", i)
    if boundary_pattern(img):
        yield ("Rb", img_idx, 0), reduced(img, "Rb", 0)


def normalize_runs_by_loop(runs):
    """Collapse interior zeros and doubled boundary zeros, one at a time."""
    runs = tuple(runs)
    changed = True
    while changed:
        changed = False
        if len(runs) >= 2 and runs[0] == 0 and runs[1] == 0:
            runs = runs[2:]
            changed = True
            continue
        if len(runs) >= 2 and runs[-1] == 0 and runs[-2] == 0:
            runs = runs[:-2]
            changed = True
            continue
        for i in range(1, len(runs) - 1):
            if runs[i] == 0:
                runs = runs[: i - 1] + (runs[i - 1] + runs[i + 1],) + runs[i + 2 :]
                changed = True
                break
    if runs == (0,):
        return ()
    return runs


def letters_to_runs_by_groupby(letters, trail0):
    """The run word of a crossing-position sequence: a leading zero when
    the first crossing sits in the even position, and the trailing marker."""
    lead = [0] if letters and letters[0] == 1 else []
    return normalize_runs_by_loop(lead + [len(list(g)) for _, g in groupby(letters)] + [0] * trail0)


def raises_move_error(move, *args):
    try:
        move(*args)
    except MoveError:
        return True
    return False


def explore_by_its_own_search(w):
    """The reduction search that computes every move of every word it
    reaches, on both images, and shares nothing between calls."""
    start = canonical_by_its_own_key(w.runs)
    parents = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for img_idx, img in enumerate(word_images(cur)):
            for move, tgt in reduction_moves_by_their_own_rewrites(img_idx, img):
                key = canonical_by_its_own_key(tgt)
                if key not in parents:
                    parents[key] = (cur, move)
                    if move[0] == "ident":
                        queue.appendleft(key)
                    else:
                        queue.append(key)
    return parents


def count_calls(monkeypatch, name, *modules):
    """Replace ``name`` in every given module by one counting wrapper."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


class TestWords:
    def test_project(self):
        assert project(TrigonalDiagram([3, -4])).runs == (3, 4)
        assert project(TrigonalDiagram([2, 2, -2, 4])).runs == (2, 2, 2, 4)
        assert project(TrigonalDiagram([0, 2])).runs == (0, 2)

    def test_normalize(self):
        assert normalize_runs((1, 0, 3)) == (4,)
        assert normalize_runs((0, 0, 3)) == (3,)
        assert normalize_runs((0, 1, 1, 0)) == (0, 1, 1, 0)
        assert normalize_runs((2, 0, 0, 2)) == (2, 2)
        assert normalize_runs((0,)) == ()

    def test_parse(self):
        assert PlaneWord.parse("2, 1,3").runs == (2, 1, 3)
        assert PlaneWord.parse("").runs == ()
        for text in ("2,,1,3", "2,1,", ",2"):
            with pytest.raises(ValueError):
                PlaneWord.parse(text)

    def test_canonical_prefers_short_then_small(self):
        assert canonical_runs((3, 2, 0)) == (0, 2, 3)
        assert canonical_runs((5,)) == (5,)


class TestApplyR:
    # R and the boundary R, as the search and replay take them
    def test_examples(self):
        assert reduced((2, 1, 3), "R", 0) == (1, 2)
        assert reduced((3, 1, 3), "R", 0) == (2, 2)
        assert reduced((1, 1, 1, 1), "R", 0) == (1,)

    def test_removes_three_crossings(self):
        rng = random.Random(5)
        done = 0
        while done < 500:
            runs = tuple(rng.randint(1, 4) for _ in range(rng.randint(3, 6)))
            spots = [
                i
                for i in range(len(runs) - 2)
                if runs[i] >= 1 and runs[i + 1] == 1 and runs[i + 2] >= 1
            ]
            if not spots:
                continue
            i = rng.choice(spots)
            assert sum(reduced(runs, "R", i)) == sum(runs) - 3
            done += 1

    def test_pattern_mismatch(self):
        with pytest.raises(MoveError, match=r"no R move at position 0 of \(2,2,3\)"):
            reduced((2, 2, 3), "R", 0)

    def test_boundary_variant(self):
        assert reduced((2, 2, 3), "Rb", 0) == (0, 1, 3)
        assert reduced((2, 1, 3), "Rb", 0) == (3,)
        with pytest.raises(MoveError, match=r"no Rb move at position 0 of \(3,2\)"):
            reduced((3, 2), "Rb", 0)


class TestInverseR:
    def test_trefoil_splits(self):
        assert inverse_R(W((3,)), (0, 1), "A").runs == (2, 1, 3)
        assert inverse_R(W((3,)), (0, 1), "B").runs == (1, 1, 1, 1, 2)

    def test_adds_three_crossings(self):
        for branch in "AB":
            out = inverse_R(W((2, 4, 3)), (1, 2), branch)
            assert sum(out.runs) == 12

    def test_r_after_insert_merges_the_split_run(self):
        # R at the insertion point reopens the split run into the
        # adjacent pair (m, n); both branches agree there
        w = W((2, 4, 3))
        a = reduced(inverse_R(w, (1, 2), "A").runs, "R", 1)
        b = reduced(inverse_R(w, (1, 2), "B").runs, "R", 2)
        assert a == b == (2, 2, 2, 3)

    def test_invalid_split(self):
        with pytest.raises(MoveError):
            inverse_R(W((3,)), (0, 4), "A")
        with pytest.raises(MoveError):
            inverse_R(W((3,)), (0, 1), "C")


class TestNeighbors:
    def test_curated_identities(self):
        assert (3,) in {w.runs for w in neighbors(W((1, 1, 1)))}
        assert (1, 1, 1, 1) in {w.runs for w in neighbors(W((2, 2)))}
        assert (4,) in {w.runs for w in neighbors(W((1, 0, 3)))}
        assert (0, 1, 1) in {w.runs for w in neighbors(W((0, 2)))}

    def test_sum_conservation_bulk(self):
        rng = random.Random(11)
        done = 0
        while done < 10_000:
            runs = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 6)))
            w = W(runs)
            total = sum(normalize_runs(runs))
            for nb in neighbors(w):
                assert sum(normalize_runs(nb.runs)) == total
                done += 1

    def test_boundary_slide(self):
        # (2,2) has no braid exchange and no curated partner besides
        # (1,1,1,1); sliding either outermost crossing gives the others
        assert {w.runs for w in neighbors(W((2, 2)))} == {(1, 1, 1, 1), (1, 1, 2), (2, 1, 1)}

    def test_neighbors_stay_in_the_word_class(self):
        for runs in all_words(6):
            w = W(runs)
            for nb in neighbors(w):
                assert same_word_class(w, nb), (runs, nb.runs)

    def test_same_word_class_stops_at_the_first_hit(self, monkeypatch):
        # a neighbour is found while the start word is expanded, so no
        # other word of the class is: each expansion rewrites both images
        # of one word
        calls = count_calls(monkeypatch, "braid_rewrites_by_letters", wordclass)
        for runs in all_words(6):
            w = W(runs)
            for nb in neighbors(w):
                calls.clear()
                assert same_word_class(w, nb)
                assert len({canonical_runs(args[0]) for args in calls}) <= 1, (runs, nb.runs)


class TestWordMovesAgainstLetters:
    # the run-word primitives against forms of their own: normalization
    # against a loop, letters_to_runs against a groupby, and the moves of
    # the degree arithmetic against their patterns on every normalized
    # word up to REDUCTION_ORACLE_CROSSINGS crossings

    def test_normalize_equals_the_loop(self):
        tuples = [t for length in range(8) for t in product(range(4), repeat=length)]
        assert len(tuples) == 21845
        for runs in tuples:
            assert normalize_runs(runs) == normalize_runs_by_loop(runs), runs

    def test_letters_to_runs_equals_its_oracle(self):
        for length in range(11):
            for letters in product((0, 1), repeat=length):
                for trail0 in (False, True):
                    assert letters_to_runs(letters, trail0) == letters_to_runs_by_groupby(letters, trail0)

    def test_reductions_raise_exactly_where_the_pattern_is_absent(self):
        for runs in normalized_words(REDUCTION_ORACLE_CROSSINGS):
            for i in range(-1, len(runs) + 1):
                assert raises_move_error(reduced, runs, "R", i) != r_pattern(runs, i), (runs, i)
                if r_pattern(runs, i):
                    tgt = runs[:i] + (runs[i] - 1, runs[i + 2] - 1) + runs[i + 3 :]
                    assert reduced(runs, "R", i) == normalize_runs_by_loop(tgt), (runs, i)
            assert raises_move_error(reduced, runs, "Rb", 0) != boundary_pattern(runs), runs
            if boundary_pattern(runs):
                tgt = (0, runs[1] - 1) + runs[2:]
                assert reduced(runs, "Rb", 0) == normalize_runs_by_loop(tgt), runs


# every Degree-column cell of the published table whose accounting the
# engine reproduces; (base runs, cost, bound) per source word
TABLE_CELLS = [
    ((3,), (3,), 0, 4),
    ((2, 2), (2, 2), 0, 5),
    ((5,), (5,), 0, 7),
    ((2, 3), (2, 3), 0, 7),
    ((2, 4), (2, 4), 0, 8),
    ((2, 1, 3), (3,), 3, 7),
    ((3, 4), (3, 4), 0, 10),
    ((2, 1, 1, 2), (3,), 3, 7),
    ((7,), (7,), 0, 10),
    ((2, 5), (2, 5), 0, 10),
    ((3, 1, 3), (1,), 6, 8),
    ((4, 4), (4, 4), 0, 11),
    ((2, 2, 3), (0, 1, 3), 3, 10),
    ((3, 2, 4), (3, 2, 4), 0, 10),
    ((2, 1, 2, 2), (1,), 6, 8),
    ((2, 3, 3), (0, 2, 3), 3, 11),
    ((2, 2, 2, 3), (0, 1, 2, 3), 3, 10),
    ((2, 1, 1, 1, 2), (1,), 6, 8),
    ((2, 6), (2, 6), 0, 11),
    ((2, 1, 5), (5,), 3, 10),
    ((3, 6), (3, 6), 0, 13),
    ((3, 1, 4), (0, 2), 6, 10),
    ((4, 5), (4, 5), 0, 13),
    ((2, 1, 1, 4), (5,), 3, 10),
    ((2, 2, 5), (0, 1, 5), 3, 10),
    ((2, 1, 3, 2), (2, 0), 6, 10),
    ((2, 4, 3), (0, 3, 3), 3, 10),
    ((3, 1, 1, 3), (5,), 3, 10),
    ((2, 1, 2, 3), (0, 2), 6, 10),
    ((3, 3, 3), (3, 3, 3), 0, 10),
    ((2, 2, 2, 4), (0, 1, 2, 4), 3, 11),
    ((2, 2, 2, 2), (0, 1, 1, 0), 6, 11),
    ((2, 3, 2, 3), (0, 2, 2, 3), 3, 11),
    ((2, 1, 1, 1, 3), (0, 2), 6, 10),
    ((3, 1, 2, 3), (3,), 6, 10),
    ((3, 3, 4), (3, 3, 4), 0, 11),
    ((2, 1, 1, 2, 2), (2, 0), 6, 10),
    ((2, 2, 3, 2), (0, 1, 2, 0), 6, 10),
    ((2, 1, 2, 2, 3), (0, 1, 3), 6, 13),
]


class TestReductionSearch:
    @pytest.mark.parametrize("src,base,cost,bound", TABLE_CELLS)
    def test_table_cells(self, src, base, cost, bound):
        trace = reduction_search(W(src))
        assert canonical_runs(trace.base.runs) == canonical_runs(base)
        assert trace.cost == cost
        lo, _prov = b_lower_bound(W(src))
        assert lo == bound

    def test_trace_replays(self):
        for src in all_words(9):
            trace = reduction_search(W(src))
            assert trace.replay().runs == canonical_runs(trace.base.runs), src
            assert trace.cost == 3 * sum(1 for k, _, _ in trace.steps if k in ("R", "Rb")), src
            # every path to a word costs the crossings it has lost
            assert trace.cost == sum(trace.source.runs) - sum(trace.base.runs), src

    def test_sharper_route_on_8_13_fourth_row(self):
        # the published cell stops at deg D(0,3)+6 (b >= 10); the boundary
        # reduction reaches the exact two-run base (2,4) one step earlier
        trace = reduction_search(W((2, 1, 2, 4)))
        assert canonical_runs(trace.base.runs) == (2, 4)
        assert trace.cost == 3
        assert b_lower_bound(W((2, 1, 2, 4)))[0] == 11

    def test_equals_a_search_of_its_own_on_every_word(self, monkeypatch):
        # every field of every trace, on every normalized word up to
        # REDUCTION_ORACLE_CROSSINGS crossings: once from an empty graph,
        # then again in reverse order on the graph the first pass filled
        words = normalized_words(REDUCTION_ORACLE_CROSSINGS)
        with monkeypatch.context() as m:
            m.setattr(planereduce, "_explore", explore_by_its_own_search)
            m.setattr(planereduce, "_base", planereduce._base.__wrapped__)
            expected = {runs: reduction_search(W(runs))._asdict() for runs in words}
        planereduce._SUCCESSORS.clear()
        planereduce._base.cache_clear()
        for order in (words, words[::-1]):
            for runs in order:
                assert reduction_search(W(runs))._asdict() == expected[runs], runs
        # each word's entry keeps the first move to each target, in the
        # order the rewrites give them
        for runs, moves in planereduce._SUCCESSORS.items():
            first: dict = {}
            for img_idx, img in enumerate(word_images(runs)):
                for move, tgt in reduction_moves_by_their_own_rewrites(img_idx, img):
                    first.setdefault(canonical_by_its_own_key(tgt), move)
            assert moves == tuple((move, tgt) for tgt, move in first.items()), runs

    def test_one_reduction_graph_per_process(self):
        # a fresh interpreter holds no successor and no base fact after its
        # imports; one table pass computes each word's moves once, for
        # exactly the words its searches explore
        code = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
import lexiknot.cli, lexiknot.curvelab
from lexiknot import planereduce as p
from lexiknot.report import build_table

at_import = [len(p._SUCCESSORS), p._base.cache_info().currsize]
computed, explored = [], set()
successors, explore = p._successors, p._explore

def counted(runs):
    computed.append(runs)
    return successors(runs)

def recorded(w):
    parents = explore(w)
    explored.update(parents)
    return parents

p._successors, p._explore = counted, recorded
build_table()
facts = p._base.cache_info()
print(json.dumps([at_import, computed, sorted(p._SUCCESSORS), sorted(explored), [facts.currsize, facts.misses]]))
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
        at_import, computed, graph, explored, facts = json.loads(out)
        assert at_import == [0, 0]
        assert len(computed) == len({tuple(r) for r in computed}) == 73
        assert sorted(computed) == graph == explored
        assert facts == [73, 73]

    def test_trace_bound_is_the_lower_bound(self):
        words = all_words(9)
        assert len(words) == 1023
        for runs in words:
            assert reduction_search(W(runs)).bound == b_lower_bound(W(runs))[0], runs


class TestLowerBounds:
    def test_examples(self):
        assert b_lower_bound(W((2, 3)))[0] == 7
        assert b_lower_bound(W((2, 1, 5)))[0] == 10
        assert b_lower_bound(W((2, 2, 2, 2)))[0] == 11

    def test_crossing_rule_bumps_multiples_of_three(self):
        assert b_lower_bound(W((2, 1, 5)))[0] >= 10  # 8 crossings, 9 skipped

    def test_base_table_consistency(self):
        for entry in base_table().entries.values():
            if entry.b_exact is not None:
                assert sum(entry.runs) <= entry.b_exact - 1

    def test_base_rows_hold_only_facts_the_code_cannot_derive(self):
        # a row is a realization (b_exact) or a cited bound above what the
        # crossing rule and the one/two-run exact degree give on their own
        for entry in base_table().entries.values():
            if entry.b_exact is None:
                derived = (planereduce._crossing_rule(sum(entry.runs)), planereduce._two_run_exact(entry.runs))
                assert all(d is None or entry.b_lower > d for d in derived), entry

    def test_each_base_row_names_its_own_class(self):
        # no later row overwrites an earlier one of the same class
        text = (Path(planereduce.__file__).parent / "data" / "bases.csv").read_text()
        for row in csv.DictReader(text.splitlines()):
            runs = tuple(int(t) for t in row["runs"].split("|"))
            assert base_table().lookup(runs).source == row["source"], row
        entries = [planereduce.BaseEntry((0, 2), 4, 4, "a"), planereduce.BaseEntry((2, 0), 4, 4, "b")]
        with pytest.raises(ValueError, match=r"0\|2 and 2\|0"):
            planereduce.BaseTable(entries)

    def test_override_provenance(self):
        lo, prov = b_lower_bound(W((2, 3, 3)))
        assert lo == 11
        assert "8_6" in prov

    def test_constructive_upper(self):
        assert constructive_upper(W((2, 1, 3))) == 7
        assert constructive_upper(W((3, 1, 3))) == 8
        assert constructive_upper(W((2, 2))) == 5


class TestWordClasses:
    def test_identifications(self):
        assert same_word_class(W((1, 1, 1)), W((3,)))
        assert same_word_class(W((1, 1, 1, 1)), W((2, 2)))
        assert same_word_class(W((0, 1, 1)), W((0, 2)))
        assert same_word_class(W((1, 1, 1, 1, 2)), W((2, 1, 1, 2)))

    def test_separations(self):
        assert not same_word_class(W((0, 1, 1, 0)), W((0, 2)))
        assert not same_word_class(W((0, 1, 1, 0)), W((1, 1)))
        assert not same_word_class(W((2, 2)), W((0, 1, 3)))


class TestVerdicts:
    def test_6_2_exact(self):
        rep = degree_verdict(CAT.get("6_2"))
        assert (rep.b_lower, rep.b_upper) == (7, 7)
        assert (rep.c_lower, rep.c_upper) == (11, 11)
        assert rep.status == "exact" and rep.starred

    def test_7_4_exact(self):
        rep = degree_verdict(CAT.get("7_4"))
        assert rep.b_upper == 8 and rep.c_upper == 13 and rep.status == "exact"

    def test_8_7_range(self):
        rep = degree_verdict(CAT.get("8_7"))
        assert rep.b_lower == rep.b_upper == 10
        assert (rep.c_lower, rep.c_upper) == (11, 14)
        assert rep.status == "range" and not rep.starred

    def test_lower_never_exceeds_upper(self):
        for name in ("3_1", "5_2", "7_6", "8_12"):
            rep = degree_verdict(CAT.get(name))
            assert rep.b_lower <= rep.b_upper

    def test_one_m_C_search_per_verdict(self, monkeypatch):
        calls = count_calls(monkeypatch, "m_C", enumeration, planereduce)
        for name in ("6_2", "8_13"):
            degree_verdict(CAT.get(name))
        assert len(calls) == 2

    def test_one_exploration_per_diagram(self, monkeypatch):
        calls = count_calls(monkeypatch, "_explore", planereduce)
        for name in ("6_2", "8_13"):
            calls.clear()
            rep = degree_verdict(CAT.get(name))
            assert len(calls) == len(rep.diagrams) == len(rep.traces)

    def test_no_simple_diagram_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(planereduce, "enumerate_simple_diagrams", lambda k, budget=None: [])
        with pytest.raises(SearchExhausted, match="6_2"):
            degree_verdict(CAT.get("6_2"))

    def test_off_catalog_classes_match_the_reference(self):
        reference = json.loads(QUERIES.read_text())
        assert len(reference) == 69
        for fraction, want in reference.items():
            rep = degree_verdict(record_for_fraction(parse_fraction(fraction)))
            got = {
                "diagrams": [list(d.entries) for d in rep.diagrams],
                "b_lower": rep.b_lower,
                "b_upper": rep.b_upper,
                "c_lower": rep.c_lower,
                "c_upper": rep.c_upper,
                "deg_C": list(rep.deg_C),
                "status": rep.status,
            }
            assert got == want, fraction
            assert all(t.replay().runs == t.base.runs for t in rep.traces), fraction
