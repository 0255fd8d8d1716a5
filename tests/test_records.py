"""The value records: repr, equality, hash, immutability, copy and pickle.

Sets and dicts of records, and the digests built from them, depend on
these exact semantics: the hash of a frozen record is the hash of the
tuple of its fields, and records of different types are never equal.
"""

import copy
import pickle

import pytest

from char2conf.cli import CommandResult
from char2conf.confgeo import CycleFlags, GeometryClass, TransformationClass
from char2conf.gf2field import Arf
from char2conf.metric import DistanceClass
from char2conf.oracle import VerificationReport

# (record type, field names, field values, exact repr); every entry is a
# different value, so two entries compare equal only with themselves
FROZEN = [
    (Arf, ("value",), (5,), "Arf(value=5)"),
    (Arf, ("value",), (None,), "Arf(value=None)"),
    (CycleFlags,
     ("hypercycle", "point", "line", "ideal", "real", "independent"),
     (True, True, False, False, True, True),
     "CycleFlags(hypercycle=True, point=True, line=False, ideal=False,"
     " real=True, independent=True)"),
    (GeometryClass, ("name", "arf_p", "arf_l"), ("elliptic", "e", "e"),
     "GeometryClass(name='elliptic', arf_p='e', arf_l='e')"),
    (TransformationClass, ("kind", "arf_p", "arf_l", "rho", "arf_class"),
     ("exact-pair", Arf(0), Arf(None), None, None),
     "TransformationClass(kind='exact-pair', arf_p=Arf(value=0),"
     " arf_l=Arf(value=None), rho=None, arf_class=None)"),
    (TransformationClass, ("kind", "arf_p", "arf_l", "rho", "arf_class"),
     ("ratio", None, None, 3, None),
     "TransformationClass(kind='ratio', arf_p=None, arf_l=None, rho=3,"
     " arf_class=None)"),
    (DistanceClass, ("pair",), (((1, 0), (2, 1)),),
     "DistanceClass(pair=((1, 0), (2, 1)))"),
]
MUTABLE = [
    (VerificationReport,
     ("claim_id", "field_n", "cases_checked", "failures", "notes"),
     ("demo", 3, 7, [{"bad": 1}], {"k": 2}),
     "VerificationReport(claim_id='demo', field_n=3, cases_checked=7,"
     " failures=[{'bad': 1}], notes={'k': 2})"),
    (CommandResult, ("exit_code", "payload"), (0, "ok"),
     "CommandResult(exit_code=0, payload='ok')"),
]
RECORDS = FROZEN + MUTABLE


def _make(entry):
    kind, _, values, _ = entry
    return kind(*copy.deepcopy(values))


def _ids(entries):
    return ["%s-%d" % (e[0].__name__, i) for i, e in enumerate(entries)]


@pytest.mark.parametrize("entry", RECORDS, ids=_ids(RECORDS))
def test_repr_and_fields(entry):
    kind, names, values, text = entry
    r = _make(entry)
    assert repr(r) == text
    assert tuple(getattr(r, name) for name in names) == values
    assert kind(**dict(zip(names, values))) == r


def test_equality_within_and_across_types():
    for i, a in enumerate(RECORDS):
        for j, b in enumerate(RECORDS):
            same = i == j
            assert (_make(a) == _make(b)) is same
            assert (_make(a) != _make(b)) is not same
    for entry in RECORDS:
        r = _make(entry)
        # never equal to the bare field tuple or to its only field
        assert r != entry[2] and entry[2] != r
        assert r != entry[2][0]


def test_same_type_different_field_values_differ():
    assert Arf(5) != Arf(6)
    assert GeometryClass("elliptic", "e", "e") != GeometryClass(
        "elliptic", "e", "0")
    assert CommandResult(0, "ok") != CommandResult(1, "ok")
    assert VerificationReport("a", 1, 0, []) != VerificationReport(
        "a", 1, 0, [], {"k": 1})


@pytest.mark.parametrize("entry", FROZEN, ids=_ids(FROZEN))
def test_frozen_hash_is_field_tuple_hash(entry):
    r = _make(entry)
    assert hash(r) == hash(entry[2])
    assert {r, _make(entry)} == {r}


@pytest.mark.parametrize("entry", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_records_are_unhashable(entry):
    with pytest.raises(TypeError):
        hash(_make(entry))


@pytest.mark.parametrize("entry", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_refuse_assignment(entry):
    r = _make(entry)
    for name in entry[1]:
        with pytest.raises(AttributeError):
            setattr(r, name, 1)
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert r == _make(entry)


@pytest.mark.parametrize("entry", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_records_take_assignment(entry):
    r = _make(entry)
    name = entry[1][0]
    setattr(r, name, "changed")
    assert getattr(r, name) == "changed"
    assert r != _make(entry)


@pytest.mark.parametrize("entry", RECORDS, ids=_ids(RECORDS))
def test_copy_deepcopy_and_pickle_round_trip(entry):
    r = _make(entry)
    for twin in (copy.copy(r), copy.deepcopy(r),
                 pickle.loads(pickle.dumps(r)),
                 pickle.loads(pickle.dumps(r, protocol=0))):
        assert type(twin) is type(r)
        assert twin == r and repr(twin) == repr(r)
        if entry in FROZEN:
            assert hash(twin) == hash(r)
    shallow = copy.copy(r)
    for name in entry[1]:
        assert getattr(shallow, name) is getattr(r, name)


def test_verification_report_notes_are_fresh_per_instance():
    a = VerificationReport("a", 1, 0, [])
    b = VerificationReport("a", 1, 0, [])
    assert a.notes == {} and a.notes is not b.notes
    a.notes["k"] = 1
    assert b.notes == {}
    given = VerificationReport("a", 1, 0, [], notes={"k": 1})
    assert given.notes == {"k": 1}
    deep = copy.deepcopy(a)
    assert deep.notes == a.notes and deep.notes is not a.notes


def test_transformation_class_keyword_defaults():
    t = TransformationClass("arf-class")
    assert (t.kind, t.arf_p, t.arf_l, t.rho, t.arf_class) == (
        "arf-class", None, None, None, None)
    t = TransformationClass("arf-class", arf_class="e")
    assert t.arf_class == "e" and t.rho is None
    assert TransformationClass(kind="ratio", rho=2) == TransformationClass(
        "ratio", None, None, 2)
    with pytest.raises(TypeError):
        TransformationClass()


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", (1,)])
def test_arf_refuses_non_int_values(bad):
    with pytest.raises(ValueError):
        Arf(bad)


def test_arf_constructors():
    assert Arf.finite(0) == Arf(0) and not Arf(0).is_infinity
    assert Arf.infinity() == Arf(None) and Arf.infinity().is_infinity
    assert str(Arf(7)) == "7" and str(Arf(None)) == "inf"
    with pytest.raises(ValueError):
        Arf.finite(None)
    with pytest.raises(TypeError):
        Arf()
