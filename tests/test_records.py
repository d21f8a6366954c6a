"""The package's records: constructors, validation, value equality and hash,
and immutability, whether NamedTuples or subclasses of frozen.Frozen."""

import copy
import pickle
from fractions import Fraction

import pytest

from lexiknot.arith import KnotRecord, SchubertFraction, default_catalog
from lexiknot.curvelab import NotTrigonalError, PlaneCurve, Polynomial, chebyshev, curve_crossings
from lexiknot.curvelab.curves import Crossing
from lexiknot.curvelab.poly import RootInterval
from lexiknot.diagram import TrigonalDiagram
from lexiknot.enumeration import DegreeTriple
from lexiknot.planereduce import (
    BaseEntry,
    DegreeVerdict,
    PlaneWord,
    base_table,
    degree_verdict,
    reduction_search,
)

T3 = chebyshev(3)


def _crossing():
    c = curve_crossings(PlaneCurve(T3, chebyshev(4)))[0]
    return Crossing(
        u=c.u, t=c.t, s=c.s, den=c.den, letter=c.letter, turn=c.turn, ranks=c.ranks, branches=c.branches
    )


# (build, field): build() returns an instance with the same value each call,
# a fresh one except for PlaneCurve, which is one object per value
FROZEN = {
    "SchubertFraction": (lambda: SchubertFraction.make(7, 3), "alpha"),
    "KnotRecord": (lambda: KnotRecord(*default_catalog().get("6_2")), "name"),
    "TrigonalDiagram": (lambda: TrigonalDiagram([2, 1, 3]), "entries"),
    "DegreeTriple": (lambda: DegreeTriple(3, 7, 11), "b"),
    "PlaneWord": (lambda: PlaneWord([2, 1, 3]), "runs"),
    "BaseEntry": (lambda: BaseEntry((3,), 4, 4, "a source"), "b_lower"),
    "ReductionTrace": (lambda: reduction_search(PlaneWord([2, 1, 3])), "cost"),
    "Polynomial": (lambda: Polynomial([Fraction(1, 2), 0, 3]), "cs"),
    "RootInterval": (lambda: RootInterval(Polynomial([-1, 4]), 0, 1, 2, -1), "a"),
    "PlaneCurve": (lambda: PlaneCurve(T3, chebyshev(4)), "y"),
    "Crossing": (_crossing, "letter"),
    "DegreeVerdict": (lambda: degree_verdict(default_catalog().get("6_2")), "b_upper"),
}


@pytest.mark.parametrize("name", FROZEN)
def test_assigning_a_field_raises(name):
    build, field = FROZEN[name]
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


@pytest.mark.parametrize("name", FROZEN)
def test_equal_values_are_equal_and_hash_alike(name):
    build, _ = FROZEN[name]
    a, b = build(), build()
    assert (a is b) == (name == "PlaneCurve")
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))], ids=["copy", "deepcopy", "pickle"]
)
@pytest.mark.parametrize("name", FROZEN)
def test_copies_and_pickle_round_trips_are_equal(name, duplicate):
    build, field = FROZEN[name]
    record = build()
    twin = duplicate(record)
    assert type(twin) is type(record)
    assert twin == record and hash(twin) == hash(record)
    assert getattr(twin, field) == getattr(record, field)
    # a live curve comes back as itself, with what it has cached
    assert (twin is record) == (name == "PlaneCurve")


@pytest.mark.parametrize(
    "a, b",
    [
        (TrigonalDiagram([2, 1, 3]), TrigonalDiagram([3, 1, 2])),
        (PlaneWord([2, 1, 3]), PlaneWord([2, 1])),
        (Polynomial([1, 2]), Polynomial([1, 3])),
        (RootInterval(Polynomial([-1, 4]), 0, 1, 2, -1), RootInterval(Polynomial([-1, 4]), 0, 1, 4, -1)),
        (PlaneCurve(T3, chebyshev(4)), PlaneCurve(T3, chebyshev(5))),
        (SchubertFraction.make(7, 3), SchubertFraction.make(7, 2)),
    ],
)
def test_different_values_differ(a, b):
    assert a != b and not a == b


def test_records_of_different_classes_differ():
    assert PlaneWord([1, 2]) != TrigonalDiagram([1, 2])
    assert TrigonalDiagram([1, 2]) != (1, 2)


def test_fraction_sign_stays_out_of_equality_and_hash():
    f = SchubertFraction.make(7, -3)
    g = SchubertFraction.make(7, 4)
    assert (f.alpha, f.beta) == (g.alpha, g.beta) == (7, 4)
    assert f == g and not f != g
    assert hash(f) == hash(g)
    assert SchubertFraction.make(-7, 3) == SchubertFraction(7, 4)


def test_constructors_keep_their_signatures():
    assert str(SchubertFraction(7, 4)) == "7/4"
    assert str(DegreeTriple(a=3, b=7, c=11)) == "(3,7,11)"
    assert tuple(DegreeTriple(3, 7, 11)) == (3, 7, 11)
    assert str(TrigonalDiagram([2, -1])) == "D(2,-1)" and len(TrigonalDiagram([2, -1])) == 2
    assert str(PlaneWord([])) == "()" and str(PlaneWord([2, 0, 1])) == "(2,0,1)"
    row = DegreeVerdict(default_catalog().get("3_1"), 4, 4, 5, 5, "exact", DegreeTriple(3, 4, 5))
    assert row.witness is None and row.error is None and row.traceback is None
    assert isinstance(default_catalog().get("3_1"), KnotRecord)
    assert base_table().lookup((3,)).b_lower == 4


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: DegreeTriple(3, 6, 9), ValueError),  # gcd(3, 6) = 3
        (lambda: DegreeTriple(3, 11, 7), ValueError),  # not increasing
        (lambda: TrigonalDiagram([]), ValueError),
        (lambda: PlaneWord([2, -1, 3]), ValueError),
        (lambda: PlaneCurve(Polynomial([0, -3, 0, 1, 1]), chebyshev(4)), NotTrigonalError),  # quartic x
        (lambda: PlaneCurve(Polynomial([0, 3, 0, 1]), chebyshev(4)), NotTrigonalError),  # no real folds
        (lambda: PlaneCurve(T3, Polynomial([0, 1])), NotTrigonalError),  # linear y
    ],
)
def test_invalid_values_raise_their_error_types(build, error):
    with pytest.raises(error):
        build()


def test_verdict_sequences_are_tuples():
    # no default is a shared mutable list, and a computed verdict holds
    # tuples, so it hashes (test_equal_values_are_equal_and_hash_alike)
    k = default_catalog().get("3_1")
    bare = DegreeVerdict(k, 4, 4, 5, 5, "exact", DegreeTriple(3, 4, 5))
    assert (bare.diagrams, bare.traces) == ((), ())
    rep = degree_verdict(default_catalog().get("6_2"))
    assert isinstance(rep.diagrams, tuple) and isinstance(rep.traces, tuple)


def test_reports_compare_by_value():
    k = default_catalog().get("3_1")
    assert degree_verdict(k) == degree_verdict(k)
    assert degree_verdict(k) != degree_verdict(default_catalog().get("4_1"))
