import gc
import hashlib
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complicial import lifting, tdelta, twocat
from complicial.nerves import (duskin_nerve, natural_nerve, nerve_with_info,
                               rs_nerve, rs_to_natural)
from complicial.twocat import InvalidInput
from oracles import (nerve_map, rs_fully_faithful_check, two_functors,
                     witnesses)
from samples import fan


@pytest.fixture(scope="module")
def catalog():
    return twocat.standard_examples()


NERVE_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "nerve_digests.json").read_text())


def nerve_digest(C, N, marking):
    """SHA-256 of the nerve document, its name and its 2-simplex data."""
    X, info = nerve_with_info(C, N, marking)
    h = hashlib.sha256()
    h.update(json.dumps(X.to_json_dict(), sort_keys=True).encode())
    h.update(json.dumps([X.name, list(info.two_data.items())]).encode())
    return h.hexdigest()


def test_nerves_are_pinned(catalog):
    """Ids, order, markings and witness data of every catalog nerve, in
    every marking, at dims 3 and 5."""
    assert len(NERVE_DIGESTS) == len(catalog) * 3 * 2
    got = {key: nerve_digest(catalog[key.split("/")[0]],
                             int(key.split("/")[2]), key.split("/")[1])
           for key in NERVE_DIGESTS}
    assert got == NERVE_DIGESTS


def test_nerve_of_point(catalog):
    X = duskin_nerve(catalog["chain-0"], 5)
    assert [len(X.simplex_ids(m)) for m in range(6)] == [1] * 6


def test_nerve_of_arrow_counts(catalog):
    X = duskin_nerve(catalog["chain-1"], 5)
    assert [len(X.simplex_ids(m)) for m in range(6)] == [2, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("name", ["chain-2", "sigma-iso", "z2",
                                  "inv-oriental-2", "oriental-2"])
def test_nerve_counts_match_two_functor_oracle(name, catalog):
    C = catalog[name]
    X = duskin_nerve(C, 3)
    for m in range(4):
        functors = two_functors(twocat.oriental2(m), C)
        assert len(X.simplex_ids(m)) == len(functors), (name, m)


# level sizes of the plain nerves of the orientals O(4) and O(5), each step
# of whose walks draws fewer rows than ``MAX_LEVEL``
ORIENTAL_LEVELS = {4: [5, 31, 205, 1411, 9947, 71303],
                   5: [6, 63, 732, 9240, 121482]}


@pytest.mark.parametrize("m, N", [(4, 5), (5, 3), (5, 4)])
def test_oriental_nerves_under_the_cap_are_built(m, N):
    X = duskin_nerve(twocat.oriental2(m), N)
    assert [len(X.simplex_ids(k)) for k in range(N + 1)] == \
        ORIENTAL_LEVELS[m][:N + 1]


def test_a_walk_step_past_the_cap_is_refused():
    """Level 6 of the nerve of O(4) has 517,517 simplices, but the first
    step of the walk that builds it draws 1,738,749 pairs (y_0, y_1), past
    ``MAX_LEVEL`` = 2^20; ``stretch/`` builds it under a larger cap."""
    with pytest.raises(InvalidInput, match="^nerve level 6 needs 1738749 "
                       "rows, capped at 1048576$"):
        duskin_nerve(twocat.oriental2(4), 6)


def _fan_triangles(n, k):
    """The triangles of ``fan(n, k)``: k + 1 2-cells into f on each of its
    n + 2 factorizations, one on each of the n + 2 identities and two on
    each of the 2n + k other 1-cells."""
    return (n + 2) * (k + 2) + 2 * (2 * n + k)


class _Unlisted(dict):
    """A ``comp1`` table whose entries cannot be listed: the nerve makes its
    triangles from ``comp1.items()`` and counts them from the values."""

    def items(self):
        raise AssertionError("a triangle was made before the cap was checked")


def test_triangles_are_counted_before_they_are_made(monkeypatch):
    for n, k in ((1, 0), (2, 3), (3, 1)):
        C = fan(n, k)
        assert C.validate() == []
        assert len(two_functors(twocat.oriental2(2), C)) == \
            _fan_triangles(n, k)
    n, k = 20, 30
    count = _fan_triangles(n, k)
    monkeypatch.setattr(tdelta, "MAX_LEVEL", count - 1)
    C = fan(n, k)
    C.comp1 = _Unlisted(C.comp1)
    with pytest.raises(InvalidInput, match=f"^nerve level 2 needs {count} "
                       f"rows, capped at {count - 1}$"):
        duskin_nerve(C, 2)
    monkeypatch.setattr(tdelta, "MAX_LEVEL", count)
    assert len(duskin_nerve(fan(n, k), 2).simplex_ids(2)) == count


def test_nerves_validate(catalog):
    for name in ("chain-1", "sigma-iso", "z2"):
        for marking in ("street", "rs", "natural"):
            X = nerve_with_info(catalog[name], 4, marking)[0]
            assert X.validate() == [], (name, marking)


def test_three_coskeletality(catalog):
    """Every compatible family of 3-simplices fills uniquely at level 4."""
    C = catalog["z2"]
    X = duskin_nerve(C, 4)
    s3 = X.simplex_ids(3)
    families = []
    for y0 in s3:
        for y1 in s3:
            if X.face_of(3, 0, y1) != X.face_of(3, 0, y0):
                continue
            for y2 in s3:
                if X.face_of(3, 0, y2) != X.face_of(3, 1, y0) or \
                        X.face_of(3, 1, y2) != X.face_of(3, 1, y1):
                    continue
                for y3 in s3:
                    if X.face_of(3, 0, y3) != X.face_of(3, 2, y0) or \
                            X.face_of(3, 1, y3) != X.face_of(3, 2, y1) or \
                            X.face_of(3, 2, y3) != X.face_of(3, 2, y2):
                        continue
                    for y4 in s3:
                        if X.face_of(3, 0, y4) != X.face_of(3, 3, y0) or \
                                X.face_of(3, 1, y4) != X.face_of(3, 3, y1) or \
                                X.face_of(3, 2, y4) != X.face_of(3, 3, y2) or \
                                X.face_of(3, 3, y4) != X.face_of(3, 3, y3):
                            continue
                        families.append((y0, y1, y2, y3, y4))
    assert len(families) == len(X.simplex_ids(4))
    for fam in families:
        hits = [s for s in X.simplex_ids(4)
                if tuple(X.face_of(4, i, s) for i in range(5)) == fam]
        assert len(hits) == 1


def test_rs_marking_rules(catalog):
    X, info = nerve_with_info(catalog["chain-2"], 4, "rs")
    # nerve of a 1-category: every triangle witnessed by an identity
    for sid in X.simplex_ids(2):
        assert len(X.tokens_over(2, sid)) == 1
    S, sinfo = nerve_with_info(catalog["sigma-iso"], 4, "rs")
    for e in S.nondegenerate_ids(1):
        assert S.tokens_over(1, e) == []
    point = rs_nerve(catalog["chain-0"], 4)
    for m in range(1, 5):
        for s in point.simplex_ids(m):
            n = len(point.tokens_over(m, s))
            assert n == 1  # everything degenerate or dimension >= 3


def test_natural_marking_of_arrow(catalog):
    X = natural_nerve(catalog["chain-1"], 4)
    marked1 = [e for e in X.simplex_ids(1) if X.tokens_over(1, e)]
    assert marked1 == ["c00", "c11"]
    assert all(len(X.tokens_over(1, e)) == 1 for e in marked1)


def test_natural_marking_of_discrete_iso(catalog):
    X = natural_nerve(catalog["iso"], 4)
    for e in X.simplex_ids(1):
        assert len(X.tokens_over(1, e)) == 1
    assert X.is_stratified()


def test_natural_marking_multiplicity_z2(catalog):
    X = natural_nerve(catalog["z2"], 4)
    assert len(X.tokens_over(1, "e")) == 2
    assert not X.is_stratified()


def _rs_to_natural(C, N):
    return rs_to_natural(rs_nerve(C, N), natural_nerve(C, N))


def test_rs_to_natural_point_is_iso(catalog):
    f = _rs_to_natural(catalog["chain-0"], 4)
    assert f.is_valid() and f.is_mono()
    for m in range(1, 5):
        assert len(f.src.token_ids(m)) == len(f.dst.token_ids(m))


def test_rs_to_natural_structure(catalog):
    for name in ("chain-1", "inv-oriental-2", "z2", "sigma-iso"):
        f = _rs_to_natural(catalog[name], 4)
        assert f.is_valid(), name
        assert f.is_mono(), name


def test_rs_to_natural_token_diff_inverted_oriental(catalog):
    f = _rs_to_natural(catalog["inv-oriental-2"], 4)
    rs, nat = f.src, f.dst
    image = {f.apply_token(2, t) for t in rs.token_ids(2)}
    added = [t for t in nat.token_ids(2) if t not in image]
    _, info = nerve_with_info(catalog["inv-oriental-2"], 4, "natural")
    witnesses = {info.witness(nat.under_of(2, t)) for t in added}
    assert witnesses == {"a02>012", "b012>02"}


def test_nerve_functoriality_naturality_square(catalog):
    C, D = catalog["chain-1"], catalog["sigma-iso"]
    F = two_functors(C, D)[1]
    rs_map = nerve_map(F, C, D, 4, "rs")
    nat_map = nerve_map(F, C, D, 4, "natural")
    assert rs_map.is_valid() and nat_map.is_valid()
    left = nat_map.compose(_rs_to_natural(C, 4))
    right = _rs_to_natural(D, 4).compose(rs_map)
    assert left.to_json_dict() == right.to_json_dict()


def test_rs_fully_faithful_small(catalog):
    assert rs_fully_faithful_check(catalog["chain-0"], catalog["chain-0"], 4)
    assert rs_fully_faithful_check(catalog["chain-1"], catalog["sigma-iso"], 4)


def test_natural_stratified_iff_unique_completions(catalog):
    for name in ("chain-1", "iso", "sigma-iso", "oriental-2"):
        assert natural_nerve(catalog[name], 3).is_stratified(), name
    assert not natural_nerve(catalog["z2"], 3).is_stratified()


@pytest.mark.parametrize("N", [3, 4, 5])
def test_rs_nerves_have_no_free_level1_tokens(catalog, N):
    # every level-1 rs mark is the comarking of a vertex, so rs_to_natural
    # is the plain inclusion
    for name, C in sorted(catalog.items()):
        rs = rs_nerve(C, N)
        assert all(w is not None for w in witnesses(rs)[1][1]), name
        assert rs_to_natural(rs, natural_nerve(C, N)).is_valid(), name


@st.composite
def posets(draw):
    """A poset on 1-4 objects, as a FiniteCategory: a random set of pairs
    i < j, transitively closed."""
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    le = {(i, i) for i in range(n)} | {p for p, k in zip(pairs, keep) if k}
    for j in range(n):  # Warshall: close through each middle object in turn
        le |= {(i, k) for i, a in le if a == j for b, k in le if b == j}
    arrows = [twocat.OneCell(f"a{i}{j}", str(i), str(j), i == j)
              for i, j in sorted(le)]
    comp = {(f"a{j}{k}", f"a{i}{j}"): f"a{i}{k}"
            for i, j in le for b, k in le if b == j}
    return twocat.FiniteCategory(tuple(str(i) for i in range(n)),
                                 tuple(arrows), tuple(sorted(comp.items())))


@given(posets())
@settings(max_examples=25, deadline=None)
def test_random_small_two_categories(P):
    """Locally discrete and suspended posets: valid 2-categories whose nerve
    sizes are the 2-functor counts, with three valid markings and a valid
    comparison map."""
    for C in (twocat.two_category_from_category(P, "P"),
              twocat.suspension(P, "SP")):
        assert C.validate() == []
        X = duskin_nerve(C, 3)
        for m in range(4):
            assert len(X.simplex_ids(m)) == \
                len(two_functors(twocat.oriental2(m), C)), (C.name, m)
        for marking in ("street", "rs", "natural"):
            assert nerve_with_info(C, 4, marking)[0].validate() == []
        assert rs_to_natural(rs_nerve(C, 4), natural_nerve(C, 4)).is_valid()


def test_nerve_builds_and_domain_searches_leave_no_cycles(catalog):
    """Nothing they allocate waits for the cyclic collector, so their
    memory goes back as soon as the results are dropped."""
    X = rs_nerve(catalog["sigma-iso"], 4)
    library = lifting.anodyne_library(2, 4)
    gc.collect()
    gc.disable()
    try:
        for ext in library:
            lifting.check_extension(X, ext)
        assert gc.collect() == 0
        for marking in ("street", "rs", "natural"):
            nerve_with_info(catalog["oriental-3"], 5, marking)
        assert gc.collect() == 0
    finally:
        gc.enable()
