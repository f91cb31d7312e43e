"""Duality as an oracle for the lift search.

Reversing the order of the vertices is an isomorphism from a tDelta-set X
onto ``opposite(X)`` read backwards.  It sends horn(k, m) to horn(m - k, m)
and thinness(k, m) to thinness(m - k, m), and it fixes the triviality
extensions and saturation(-1).  So the check of X against an extension and
the check of ``opposite(X)`` against its dual reach the same verdict, and
count the same maps when both pass, although the lift search walks the two
in mirrored slot orders.  saturation(l) for l >= 0 is left out: its dual,
Delta[3]_eq * Delta[l], is not in the library.

The same holds one level up: the nerve of ``opposite_category(C)``, the
2-category with its 1-cells reversed and its 2-cells kept, is isomorphic to
``opposite`` of the nerve of C.  So the two have the same level sizes, and
every extension of the library reaches the same verdict and count on both.
Both hold on the catalog and on random posets and their suspensions.
"""

import pytest
from hypothesis import given, settings

from complicial import nerves, twocat
from complicial.lifting import anodyne_library, check_extension
from complicial.tdelta import TDeltaMap
from oracles import opposite, opposite_category
from test_nerves import posets

DIM = 4
LIBRARY = anodyne_library(2, DIM)
CATALOG = twocat.standard_examples()


def _dual(ext):
    """The extension of LIBRARY opposite to ext, or None if it has none."""
    p = dict(ext.params)
    if ext.family in ("horn", "thinness"):
        params = (("k", p["m"] - p["k"]), ("m", p["m"]))
    elif ext.family == "triviality" or p == {"l": -1}:
        params = ext.params
    else:
        return None
    return next(e for e in LIBRARY
                if e.family == ext.family and e.params == params)


PAIRS = [(e, d) for e in LIBRARY if (d := _dual(e)) is not None]


def _reversal(X, Y, m):
    """The map opposite(X) -> Y of two shapes on Delta[m] that sends the
    vertex tuple of each simplex and token to its mirror image."""
    def mirror(sid):
        return "".join(str(m - int(v)) for v in reversed(sid))

    simg = [[Y._idx[k][mirror(s)] for s in level]
            for k, level in enumerate(X._ids)]
    timg = [None] + [[Y._tok_idx[k]["t|" + mirror(t[2:])] for t in level]
                     for k, level in enumerate(X._tok_ids[1:], 1)]
    return TDeltaMap(opposite(X), Y, simg, timg)


def test_dual_extensions_are_the_opposite_shapes():
    assert [e.label() for e in LIBRARY if _dual(e) is None] == [
        "saturation(l=0)"]
    for e, d in PAIRS:
        assert _dual(d) is e
        m = len(e.B._ids[0]) - 1
        for X, Y in ((e.A, d.A), (e.B, d.B)):
            f = _reversal(X, Y, m)
            assert f.src.validate() == [] and opposite(f.src).same_as(X)
            assert f.is_valid() and f.is_mono(), (e.label(), d.label())
            assert f.src.counts() == Y.counts()


def _assert_checks_agree(X, Y, pairs):
    """Each extension pair (e, d) gets the same verdict on X and Y, and the
    same count where it passes."""
    for e, d in pairs:
        r, s = check_extension(X, e), check_extension(Y, d)
        assert r.passed == s.passed, (e.label(), d.label())
        if r.passed:
            assert r.maps_checked == s.maps_checked, (e.label(), d.label())


def _assert_opposite_category_agrees(C, marking):
    """C^op validates, and its nerve and the opposite of the nerve of C have
    the same level sizes and get the same verdicts and counts.  Returns the
    nerve of C and its opposite."""
    op = opposite_category(C)
    assert op.validate() == []
    X = nerves.nerve_with_info(C, DIM, marking)[0]
    Y = opposite(X)
    Z = nerves.nerve_with_info(op, DIM, marking)[0]
    assert Z.counts() == Y.counts()
    _assert_checks_agree(Z, Y, [(e, e) for e in LIBRARY])
    return X, Y


@pytest.mark.parametrize("marking", ["natural", "rs"])
@pytest.mark.parametrize("entry", sorted(CATALOG))
def test_lift_search_agrees_with_its_mirror_image(entry, marking):
    X = nerves.nerve_with_info(CATALOG[entry], DIM, marking)[0]
    op = opposite(X)
    assert op.validate() == []
    _assert_checks_agree(X, op, PAIRS)


@pytest.mark.parametrize("marking", ["natural", "rs"])
@pytest.mark.parametrize("entry", sorted(CATALOG))
def test_nerve_of_the_opposite_category_is_the_opposite_nerve(entry, marking):
    _assert_opposite_category_agrees(CATALOG[entry], marking)


@given(posets())
@settings(max_examples=15, deadline=None)
def test_duality_on_random_two_categories(P):
    """Both dualities on the locally discrete and the suspended posets of
    tests/test_nerves.py."""
    for C in (twocat.two_category_from_category(P, "P"),
              twocat.suspension(P, "SP")):
        for marking in ("natural", "rs"):
            X, op = _assert_opposite_category_agrees(C, marking)
            assert op.validate() == []
            _assert_checks_agree(X, op, PAIRS)
