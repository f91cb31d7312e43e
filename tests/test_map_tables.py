"""TDeltaMap's index rows against the former string-level code.

The functions prefixed ``ref_`` are the id-walking implementations that
``TDeltaMap`` used when it stored id-keyed dicts.  They are kept here as the
oracle, and they see a map only through its document: the images of its
generators by id, read once per map.  On every stage map of the
factorization replay, and on maps whose document has one wrong simplex
image, one wrong token image or one missing token image, the row code must
give the same answers and the same composite documents.  The replay maps
and the fibrancy witnesses are also pinned by digest.  ``ref_rows`` fills
a map's derived images element by element from ``witnesses(A)``, the
reference for ``map_on_generators`` where A leaves an operator undefined.
"""

import hashlib
import json
import pathlib
import weakref

import pytest

from complicial import factorization as fz
from complicial import lifting, nerves, tdelta, twocat
from complicial.twocat import InvalidInput
from oracles import degeneracy_of, witnesses, zeta_of


_GENERATORS = weakref.WeakKeyDictionary()


def generators(f):
    """(simplex images, token images) of f's document, keyed (level, id)."""
    if f not in _GENERATORS:
        doc = f.to_json_dict()
        _GENERATORS[f] = ({(m, s): v for m, s, v in doc["simplices"]},
                          {(m, t): v for m, t, v in doc["tokens"]})
    return _GENERATORS[f]


def ref_apply_simplex(f, m, sid):
    got = generators(f)[0].get((m, sid))
    if got is not None:
        return got
    wit = witnesses(f.src)[0][m][f.src._idx[m][sid]]
    if wit is None:
        raise InvalidInput(f"map undefined on non-degenerate {sid!r}")
    i, pre = wit
    below = ref_apply_simplex(f, m - 1, f.src._ids[m - 1][pre])
    return degeneracy_of(f.dst, m - 1, i, below)


def ref_apply_token(f, m, tid):
    got = generators(f)[1].get((m, tid))
    if got is not None:
        return got
    wit = witnesses(f.src)[1][m][f.src._tok_idx[m][tid]]
    if wit is None:
        raise InvalidInput(f"map undefined on free token {tid!r}")
    i, x = wit
    below = ref_apply_simplex(f, m - 1, f.src._ids[m - 1][x])
    return zeta_of(f.dst, m - 1, i, below)


def ref_simplex_table(f):
    return {(m, s): ref_apply_simplex(f, m, s)
            for m in range(f.src.dim + 1) for s in f.src.simplex_ids(m)}


def ref_token_table(f):
    return {(m, t): ref_apply_token(f, m, t)
            for m in range(1, f.src.dim + 1) for t in f.src.token_ids(m)}


def ref_equals(f, g):
    return (f.src.same_as(g.src) and f.dst.same_as(g.dst)
            and ref_simplex_table(f) == ref_simplex_table(g)
            and ref_token_table(f) == ref_token_table(g))


def ref_compose(f, g):
    """The document of f after g."""
    simp = [[m, s, ref_apply_simplex(f, m, ref_apply_simplex(g, m, s))]
            for m in range(g.src.dim + 1) for s in g.src.nondegenerate_ids(m)]
    tok = []
    for m in range(1, g.src.dim + 1):
        wit = witnesses(g.src)[1][m]
        for i, t in enumerate(g.src._tok_ids[m]):
            if wit[i] is None:
                tok.append([m, t, ref_apply_token(f, m,
                                                  ref_apply_token(g, m, t))])
    return {"simplices": sorted(simp), "tokens": sorted(tok)}


def ref_is_mono(f):
    for m in range(f.src.dim + 1):
        imgs = [ref_apply_simplex(f, m, s) for s in f.src.simplex_ids(m)]
        if len(set(imgs)) != len(imgs):
            return False
    for m in range(1, f.src.dim + 1):
        imgs = [ref_apply_token(f, m, t) for t in f.src.token_ids(m)]
        if len(set(imgs)) != len(imgs):
            return False
    return True


def ref_is_valid(f):
    A, X = f.src, f.dst
    try:
        for m in range(1, A.dim + 1):
            for s in A.simplex_ids(m):
                for i in range(m + 1):
                    if ref_apply_simplex(f, m - 1, A.face_of(m, i, s)) != \
                            X.face_of(m, i, ref_apply_simplex(f, m, s)):
                        return False
        for m in range(A.dim):
            for s in A.simplex_ids(m):
                for i in range(m + 1):
                    if ref_apply_simplex(f, m + 1, degeneracy_of(A, m, i, s)) \
                            != degeneracy_of(X, m, i, ref_apply_simplex(f, m, s)):
                        return False
                    if ref_apply_token(f, m + 1, zeta_of(A, m, i, s)) != \
                            zeta_of(X, m, i, ref_apply_simplex(f, m, s)):
                        return False
        for m in range(1, A.dim + 1):
            for t in A.token_ids(m):
                if ref_apply_simplex(f, m, A.under_of(m, t)) != \
                        X.under_of(m, ref_apply_token(f, m, t)):
                    return False
    except (KeyError, InvalidInput):
        return False
    return True


def simplex_table(f):
    """Every simplex image of f by id, read off its rows."""
    return {(m, s): f.apply_simplex(m, s)
            for m in range(f.src.dim + 1) for s in f.src.simplex_ids(m)}


def token_table(f):
    """Every token image of f by id, read off its rows."""
    return {(m, t): f.apply_token(m, t)
            for m in range(1, f.src.dim + 1) for t in f.src.token_ids(m)}


def _outcome(fn, *args):
    """The value of fn(*args), or the exception type it raises."""
    try:
        return fn(*args)
    except (InvalidInput, KeyError) as exc:
        return type(exc)


def _stage_maps(C, N=4):
    """Every map the replay builds, named, plus the composable pairs."""
    X, info = nerves.nerve_with_info(C, N, "rs")
    P1, x_to_p1, _ = fz.stage_p1(X, info)
    P2, x_to_p2, r, s2, _ = fz.stage_p2(P1, x_to_p1)
    P3, p2_to_p3, _ = fz.stage_p3(P2, info)
    Q, p3_to_q, P4, p3_to_p4, q, s4, _ = fz.stage_p4_and_retract(P3, info)
    canonical = nerves.rs_to_natural(X, nerves.natural_nerve(C, N))
    maps = {"x_to_p1": x_to_p1, "x_to_p2": x_to_p2, "r": r, "s2": s2,
            "p2_to_p3": p2_to_p3, "p3_to_p4": p3_to_p4, "p3_to_q": p3_to_q,
            "q": q, "s4": s4, "rs_to_natural": canonical,
            "id_P2": tdelta.identity_map(P2), "id_Q": tdelta.identity_map(Q)}
    pairs = [("r", "x_to_p1"), ("r", "s2"), ("s2", "x_to_p2"),
             ("p2_to_p3", "x_to_p2"), ("q", "p3_to_p4"), ("q", "s4"),
             ("s4", "p3_to_q"), ("p3_to_q", "p2_to_p3")]
    return maps, pairs


MAP_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "map_digests.json").read_text())


def map_digest(f):
    """SHA-256 of the map document."""
    doc = json.dumps(f.to_json_dict(), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def pinned_maps():
    """For every catalog entry at N = 4: the digest of every replay map and
    of the composite rs -> natural; and, over its rs and natural nerves,
    maps_checked and the first witness's digest for every extension of
    anodyne_library(2, 4)."""
    library = lifting.anodyne_library(2, 4)
    out = {}
    for name, C in sorted(twocat.standard_examples().items()):
        maps, _ = _stage_maps(C)
        maps["composite"] = maps["p3_to_q"].compose(
            maps["p2_to_p3"]).compose(maps["x_to_p2"])
        out.update({f"{name}/{key}": map_digest(f)
                    for key, f in maps.items()})
        for marking in ("rs", "natural"):
            X = nerves.nerve_with_info(C, 4, marking)[0]
            for ext in library:
                r = lifting.check_extension(X, ext)
                out[f"{name}/{marking}/{ext.label()}/fwd"] = [
                    r.maps_checked, r.witness and map_digest(r.witness)]
    return out


def test_maps_are_pinned():
    """Map documents of the replay and of the fibrancy witnesses."""
    assert pinned_maps() == MAP_DIGESTS


NAMES = ["sigma-iso", "inv-oriental-2", "iso"]


@pytest.fixture(scope="module", params=NAMES)
def replay(request):
    return _stage_maps(twocat.standard_examples()[request.param])


def _assert_agree(f):
    assert f.is_valid() == ref_is_valid(f)
    assert _outcome(tdelta.TDeltaMap.is_mono, f) == _outcome(ref_is_mono, f)
    assert _outcome(simplex_table, f) == _outcome(ref_simplex_table, f)
    assert _outcome(token_table, f) == _outcome(ref_token_table, f)


def test_stage_maps_agree_with_string_oracle(replay):
    maps, pairs = replay
    for name, f in maps.items():
        assert f.is_valid(), name
        _assert_agree(f)
    for g_name, f_name in pairs:
        g, f = maps[g_name], maps[f_name]
        new, doc = g.compose(f), ref_compose(g, f)
        assert new.to_json_dict() == doc, (g_name, f_name)
        ref = tdelta.map_from_json_dict(f.src, g.dst, doc)
        assert new.equals(ref) and ref_equals(new, ref)
        _assert_agree(new)
    for a, b in [("r", "r"), ("q", "q"), ("x_to_p2", "x_to_p1"),
                 ("p3_to_q", "p3_to_p4"), ("id_P2", "s2")]:
        assert maps[a].equals(maps[b]) == ref_equals(maps[a], maps[b])
    assert maps["r"].compose(maps["s2"]).equals(maps["id_P2"])


def _wrong_face_image(f):
    """f with one non-degenerate edge sent to an edge of another target."""
    X = f.dst
    doc = f.to_json_dict()
    for entry in doc["simplices"]:
        m, sid, img = entry
        if m != 1:
            continue
        for other in X.simplex_ids(1):
            if X.face_of(1, 0, other) != X.face_of(1, 0, img):
                entry[2] = other
                return tdelta.map_from_json_dict(f.src, X, doc), sid
    raise AssertionError("no edge with a different target")


def _missing_token_image(f):
    """f with the stored image of one free token dropped."""
    doc = f.to_json_dict()
    m, t, _ = doc["tokens"].pop()
    return tdelta.map_from_json_dict(f.src, f.dst, doc), (m, t)


@pytest.mark.parametrize("name", ["x_to_p1", "p2_to_p3", "s4"])
def test_wrong_face_image_agrees_with_string_oracle(replay, name):
    maps, _ = replay
    f = maps[name]
    bad, sid = _wrong_face_image(f)
    assert not bad.is_valid() and not ref_is_valid(bad)
    _assert_agree(bad)
    assert bad.apply_simplex(1, sid) == ref_apply_simplex(bad, 1, sid)
    assert not bad.equals(f) and not ref_equals(bad, f)
    for g in maps.values():
        if g.src is f.dst:
            new = g.compose(bad)
            assert new.to_json_dict() == ref_compose(g, bad)
            _assert_agree(new)


def _wrong_token_image(f):
    """f with one free token sent to a token over another simplex."""
    X = f.dst
    doc = f.to_json_dict()
    for entry in doc["tokens"]:
        m, tid, img = entry
        for other in X.token_ids(m):
            if X.under_of(m, other) != X.under_of(m, img):
                entry[2] = other
                return tdelta.map_from_json_dict(f.src, X, doc)
    raise AssertionError("no token over another simplex")


@pytest.mark.parametrize("name", ["x_to_p1", "s2", "q"])
def test_wrong_token_image_agrees_with_string_oracle(replay, name):
    maps, _ = replay
    f = maps[name]
    if not generators(f)[1]:
        pytest.skip(f"{name} stores no token images here")
    bad = _wrong_token_image(f)
    assert not bad.is_valid() and not ref_is_valid(bad)
    _assert_agree(bad)
    assert not bad.equals(f) and not ref_equals(bad, f)


@pytest.mark.parametrize("name", ["x_to_p1", "s2", "q"])
def test_missing_token_image_agrees_with_string_oracle(replay, name):
    maps, _ = replay
    f = maps[name]
    if not generators(f)[1]:
        pytest.skip(f"{name} stores no token images here")
    bad, (m, t) = _missing_token_image(f)
    assert not bad.is_valid() and not ref_is_valid(bad)
    _assert_agree(bad)
    with pytest.raises(InvalidInput):
        bad.apply_token(m, t)
    with pytest.raises(InvalidInput):
        ref_apply_token(bad, m, t)
    with pytest.raises(InvalidInput):
        bad.equals(f)
    with pytest.raises(InvalidInput):
        ref_equals(bad, f)
    for g in maps.values():
        if g.src is f.dst:
            with pytest.raises(InvalidInput):
                g.compose(bad)
            with pytest.raises(InvalidInput):
                ref_compose(g, bad)


def test_compose_rejects_mismatched_ids():
    f = tdelta.identity_map(tdelta.delta(1))
    g = tdelta.identity_map(tdelta.delta(2))
    with pytest.raises(InvalidInput):
        g.compose(f)


def ref_rows(A, X, simg, timg):
    """The rows ``map_on_generators(A, X, simg, timg)`` ends with, filled
    on copies element by element: each element with a witness (i, a) in
    ``witnesses(A)`` takes X's s_i or zeta_i of the image of a."""
    deg_wit, zeta_wit = witnesses(A)
    simg = [row[:] for row in simg]
    timg = [None] + [row[:] for row in timg[1:]]
    for m in range(1, min(A.dim, X.dim) + 1):
        for row, wits, ops in ((simg[m], deg_wit[m], X._deg[m - 1]),
                               (timg[m], zeta_wit[m], X._zeta[m - 1])):
            for j, w in enumerate(wits):
                if w is not None:
                    b = simg[m - 1][w[1]]
                    row[j] = ops[w[0]][b] if b >= 0 else -1
    return simg, timg


def _assert_derived_is_witness_mask(A):
    """``_derived`` and the accessors that read it against the oracle
    ``witnesses(A)``, and ``is_stratified`` against the raw token rows."""
    for k, wits in enumerate(witnesses(A)):
        assert [{j for j, w in enumerate(level) if w is not None}
                for level in wits[k:]] == A._derived[k][k:], (A.name, k)
    simplices, tokens = witnesses(A)
    for m in range(A.dim + 1):
        assert A.nondegenerate_ids(m) == [
            s for s, w in zip(A._ids[m], simplices[m]) if w is None], A.name
        assert A.free_token_ids(m) == ([] if m == 0 else [
            t for t, w in zip(A._tok_ids[m], tokens[m]) if w is None]), A.name
    assert A.is_stratified() == all(
        len(set(A._tok_under[m])) == len(A._tok_under[m])
        for m in range(1, A.dim + 1)), A.name


def test_undefined_operators_of_the_source_write_nothing():
    """Delta[2] with s_0 and zeta_0 undefined on the vertex 2: the edge 22
    and its token become generators, and they are the last entries of
    their rows, which a write to the target -1 would overwrite."""
    D = tdelta.delta(2)
    deg = [[row[:] for row in level] for level in D._deg[:-1]] + [None]
    zeta = [[row[:] for row in level] for level in D._zeta[:-1]] + [None]
    two = D._idx[0]["2"]
    assert deg[0][0][two] == len(D._ids[1]) - 1
    assert zeta[0][0][two] == len(D._tok_ids[1]) - 1
    deg[0][0][two] = zeta[0][0][two] = -1
    A = tdelta.TruncatedTDeltaSet(2, D._ids, D._face, deg, D._tok_ids,
                                  D._tok_under, zeta, name="A")
    assert "s_0 missing on 2 (level 0)" in A.validate()
    assert not A.is_degenerate(1, "22") and "t|22" in A.free_token_ids(1)
    _assert_derived_is_witness_mask(A)
    X = tdelta.delta(2)
    simg, timg = tdelta._undefined(A)
    for m in range(3):
        for s in A.nondegenerate_ids(m):
            simg[m][A._idx[m][s]] = X._idx[m][s]
    simg[1][A._idx[1]["22"]] = X._idx[1]["01"]  # not X's s_0 of 2
    timg[1][A._tok_idx[1]["t|22"]] = X._tok_idx[1]["t|00"]
    want = ref_rows(A, X, simg, timg)
    f = tdelta.map_on_generators(A, X, simg, timg)
    assert (f._simg, f._timg) == want
    assert f.apply_simplex(1, "22") == "01"
    assert f.apply_token(1, "t|00") == f.apply_token(1, "t|22") == "t|00"


@pytest.mark.parametrize("name", sorted(twocat.standard_examples()))
def test_derived_table_is_the_witness_mask_of_catalog_nerves(name):
    C = twocat.standard_examples()[name]
    for marking in ("street", "rs", "natural"):
        for dim in range(5):
            _assert_derived_is_witness_mask(
                nerves.nerve_with_info(C, dim, marking)[0])


def test_derived_table_is_the_witness_mask_of_a_replay_stage():
    """P1 of sigma-iso marks triangles several times over, so it is not
    stratified."""
    C = twocat.standard_examples()["sigma-iso"]
    P1 = fz.stage_p1(*nerves.nerve_with_info(C, 4, "rs"))[0]
    assert not P1.is_stratified()
    _assert_derived_is_witness_mask(P1)


def test_derived_table_is_the_witness_mask_of_library_shapes():
    for ext in lifting.anodyne_library(2, 5):
        _assert_derived_is_witness_mask(ext.A)
        _assert_derived_is_witness_mask(ext.B)
