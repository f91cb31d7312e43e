"""Value semantics of the record classes that sorts, sets and dict keys use.

Each immutable record compares equal to, and hashes like, another of its own
class with the same fields, never to one of another class; the ordered ones
compare as the tuple of their fields; none can be assigned to.  The mutable
records keep their defaults, with one fresh dict per instance.
"""

import copy
import itertools

import pytest

from complicial import tdelta
from complicial.categorify import Pasting, PastingFactor, Word
from complicial.factorization import StageReport
from complicial.lifting import AnodyneExtension
from complicial.nerves import NerveInfo
from complicial.twocat import (AdjointEquivalence, FiniteCategory, OneCell,
                               TwoCell)
from oracles import LiftingProblem, TwoFunctor

_A = tdelta.delta(1)
_B = tdelta.delta_t(1)
_EXT = AnodyneExtension("triviality", (("l", 1),), _A, _B)
_MAP = tdelta.identity_map(_A)

# class -> (field names, two field tuples that differ, ordered?)
RECORDS = {
    OneCell: (("id", "src", "tgt", "identity"),
              [("f", "x", "y", False), ("f", "x", "y", True)], True),
    TwoCell: (("id", "src", "tgt", "identity"),
              [("a", "f", "g", False), ("a", "f", "f", False)], True),
    AdjointEquivalence: (("f", "g", "eta", "eps"),
                         [("f", "g", "u", "c"), ("g", "f", "u", "c")], True),
    Word: (("src", "tgt", "gens"),
           [("x", "y", ("a",)), ("x", "y", ("a", "b"))], True),
    PastingFactor: (("pre", "gen", "post"),
                    [((), "A|t", ("a",)), (("a",), "A|t", ())], True),
    Pasting: (("src", "factors"),
              [(Word("x", "y", ("a",)), ()),
               (Word("x", "y", ("a",)), (PastingFactor((), "A|t", ()),))],
              True),
    TwoFunctor: (("on_objects", "on_one", "on_two"),
                 [((("x", "x"),), (), ()), ((("x", "y"),), (), ())], False),
    FiniteCategory: (("objects", "arrows", "comp"),
                     [(("x",), (OneCell("ix", "x", "x", True),), ()),
                      (("x", "y"), (), ())], False),
    AnodyneExtension: (("family", "params", "A", "B"),
                       [("triviality", (("l", 1),), _A, _B),
                        ("triviality", (("l", 1),), _A, _A)], False),
    LiftingProblem: (("extension", "along"),
                     [(_EXT, _MAP), (_EXT, tdelta.identity_map(_A))], False),
}


def _fields(rec):
    return tuple(getattr(rec, f) for f in RECORDS[type(rec)][0])


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_equal_fields_mean_equal_records(cls):
    names, values, _ = RECORDS[cls]
    for v in values:
        a, b = cls(*v), cls(*v)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(v)
        assert _fields(a) == v
        assert len({a, b}) == 1
    x, y = (cls(*v) for v in values)
    assert x != y and not x == y
    assert len({x, y}) == 2
    assert copy.copy(x) == x and _fields(copy.copy(x)) == values[0]


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_records_are_immutable(cls):
    names, values, _ = RECORDS[cls]
    rec = cls(*values[0])
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, values[1][names.index(name)])
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert _fields(rec) == values[0]


def test_records_of_different_classes_are_unequal():
    one, two = OneCell("f", "x", "y"), TwoCell("f", "x", "y")
    assert one != two and two != one
    assert len({one, two}) == 2
    assert AdjointEquivalence("f", "x", "y", "z") != \
        OneCell("f", "x", "y", "z")
    for cls, (_, values, _) in RECORDS.items():
        assert cls(*values[0]) != values[0]
    with pytest.raises(TypeError):
        one < two  # noqa: B015


@pytest.mark.parametrize("cls", [c for c, r in RECORDS.items() if r[2]],
                         ids=lambda c: c.__name__)
def test_order_is_the_tuple_order_of_the_fields(cls):
    names, values, _ = RECORDS[cls]
    recs = [cls(*v) for v in values]
    recs += [cls(*v) for v in values]
    for a, b in itertools.product(recs, repeat=2):
        ta, tb = _fields(a), _fields(b)
        assert (a < b) == (ta < tb)
        assert (a <= b) == (ta <= tb)
        assert (a > b) == (ta > tb)
        assert (a >= b) == (ta >= tb)
    assert [_fields(r) for r in sorted(set(recs))] == sorted(set(values))


@pytest.mark.parametrize("cls", [c for c, r in RECORDS.items() if not r[2]],
                         ids=lambda c: c.__name__)
def test_unordered_records_refuse_order(cls):
    names, values, _ = RECORDS[cls]
    with pytest.raises(TypeError):
        cls(*values[0]) < cls(*values[1])  # noqa: B015


def test_defaults():
    assert OneCell("f", "x", "y") == OneCell("f", "x", "y", False)
    assert TwoCell("a", "f", "g") == TwoCell("a", "f", "g", False)
    assert Word("x", "x").gens == ()
    assert Pasting(Word("x", "x")).factors == ()
    a, b = NerveInfo("C", 2), NerveInfo("C", 2)
    assert (a.C, a.dim) == ("C", 2)
    for field in ("two_data", "two_index", "by_faces"):
        assert getattr(a, field) == {}
        assert getattr(a, field) is not getattr(b, field)
    r, s = StageReport("P1", 0, [], []), StageReport("P2", 0, [], [])
    assert r.notes == {} and r.notes is not s.notes
    assert StageReport("P4", 1, [], [], notes={"k": 1}).notes == {"k": 1}
