"""Standard shapes against a string-keyed reference builder.

``tdelta`` builds its standard shapes straight into index tables from the
ranks of vertex tuples.  The reference below is the construction it
replaced: every face, degeneracy, token and comarking is written as a dict
entry between string ids, with markings given as sets of string ids, and
the dicts reach a tDelta-set as a document, through the loader.  Both must
agree table for table and byte for byte, on every shape of the anodyne library
and on the gluing shapes of the factorization.
"""

import copy
import functools
import itertools

import pytest

from complicial import lifting, tdelta
from complicial.tdelta import TruncatedTDeltaSet
from complicial.twocat import InvalidInput
from oracles import tdelta_from_dicts


@functools.cache
def _seq_id(seq):
    return "".join(map(str, seq))


def _ref_simplicial(dim, level_seqs, marked, name):
    simplices = {m: [_seq_id(s) for s in level_seqs[m]] for m in range(dim + 1)}
    faces = {}
    degs = {}
    for m in range(1, dim + 1):
        for s in level_seqs[m]:
            for i in range(m + 1):
                faces[(m, i, _seq_id(s))] = _seq_id(s[:i] + s[i + 1:])
    for m in range(dim):
        for s in level_seqs[m]:
            for i in range(m + 1):
                degs[(m, i, _seq_id(s))] = _seq_id(s[:i + 1] + s[i:])
    tokens = {}
    for m in range(1, dim + 1):
        lvl = []
        for s in level_seqs[m]:
            sid = _seq_id(s)
            degenerate = any(a == b for a, b in zip(s, s[1:]))
            if degenerate or sid in marked:
                lvl.append((f"t|{sid}", sid))
        tokens[m] = lvl
    zeta = {}
    for m in range(dim):
        for s in level_seqs[m]:
            for i in range(m + 1):
                zeta[(m, i, _seq_id(s))] = f"t|{_seq_id(s[:i + 1] + s[i:])}"
    return tdelta_from_dicts(dim, simplices, faces, degs, tokens, zeta,
                             name=name)


def _monotone(m, k):
    return list(itertools.combinations_with_replacement(range(m + 1), k + 1))


def _levels(m, dim, keep=lambda vs: True):
    return [[s for s in _monotone(m, k) if keep(frozenset(s))]
            for k in range(dim + 1)]


def _nondegenerate_ids(m, dim, need=frozenset()):
    return {_seq_id(s) for lvl in range(1, dim + 1) for s in _monotone(m, lvl)
            if len(set(s)) == len(s) and need <= set(s)}


def _need(k, m):
    return frozenset(v for v in (k - 1, k, k + 1) if 0 <= v <= m)


def ref_delta(m, dim=None, marked=(), name=None):
    dim = m if dim is None else dim
    return _ref_simplicial(dim, _levels(m, dim), set(marked),
                           name or f"Delta[{m}]")


def ref_delta_t(m, dim=None):
    dim = m if dim is None else dim
    return ref_delta(m, dim, {_seq_id(range(m + 1))}, f"Delta[{m}]_t")


def ref_boundary(m, dim=None):
    dim = max(m - 1, 0) if dim is None else dim
    full = frozenset(range(m + 1))
    return _ref_simplicial(dim, _levels(m, dim, lambda vs: vs != full), set(),
                           f"dDelta[{m}]")


def ref_delta_k(k, m, dim=None):
    dim = m if dim is None else dim
    return ref_delta(m, dim, _nondegenerate_ids(m, dim, _need(k, m)),
                     f"Delta^{k}[{m}]")


def _ref_primed(k, m, dim, drops, suffix):
    dim = m if dim is None else dim
    marked = _nondegenerate_ids(m, dim, _need(k, m))
    for v in drops:
        if 0 <= v <= m:
            marked.add(_seq_id(tuple(u for u in range(m + 1) if u != v)))
    return ref_delta(m, dim, marked, f"Delta^{k}[{m}]{suffix}")


def ref_delta_k_prime(k, m, dim=None):
    return _ref_primed(k, m, dim, (k - 1, k + 1), "'")


def ref_delta_k_dprime(k, m, dim=None):
    return _ref_primed(k, m, dim, (k - 1, k, k + 1), "''")


def ref_horn(k, m, dim=None):
    dim = m if dim is None else dim
    other = frozenset(v for v in range(m + 1) if v != k)
    levels = _levels(m, dim, lambda vs: not other <= vs)
    need = _need(k, m)
    marked = {_seq_id(s) for lvl in range(1, dim + 1) for s in levels[lvl]
              if len(set(s)) == len(s) and need <= set(s)}
    return _ref_simplicial(dim, levels, marked, f"Horn^{k}[{m}]")


def ref_delta3_eq(dim=3):
    return ref_delta(3, dim, {"02", "13", "012", "013", "023", "123", "0123"},
                     "Delta[3]_eq")


def ref_delta3_sharp(dim=3):
    return ref_delta(3, dim, _nondegenerate_ids(3, dim), "Delta[3]#")


def ref_library(n, N):
    """(label, A, B) in the order of ``lifting.anodyne_library``."""
    out = []
    for m in range(1, N + 1):
        for k in range(m + 1):
            out.append((f"horn(k={k},m={m})", ref_horn(k, m, m),
                        ref_delta_k(k, m, m)))
    for m in range(2, N + 1):
        for k in range(m + 1):
            out.append((f"thinness(k={k},m={m})", ref_delta_k_prime(k, m, m),
                        ref_delta_k_dprime(k, m, m)))
    for l in range(n + 1, N + 1):
        out.append((f"triviality(l={l})", ref_delta(l, l), ref_delta_t(l, l)))
    for l in range(-1, N - 3):
        if l == -1:
            A, B = ref_delta3_eq(3), ref_delta3_sharp(3)
        else:
            pad = l + 4
            base = ref_delta(l, pad)
            A = tdelta.join(base, ref_delta3_eq(pad), out_dim=pad,
                            name=f"Delta[{l}]*Delta[3]_eq")
            B = tdelta.join(base, ref_delta3_sharp(pad), out_dim=pad,
                            name=f"Delta[{l}]*Delta[3]#")
        out.append((f"saturation(l={l})", A, B))
    return out


def _assert_same(X, R):
    assert X.name == R.name
    assert X.same_as(R)
    assert X.to_json_dict() == R.to_json_dict()
    assert X.validate() == []


def assert_library_matches_reference(N, checked):
    """Compare each shape of anodyne_library(2, N) whose (name, dim) is not
    in checked with its reference, and add it to checked.  The dim-6 shapes
    that the dim-5 library lacks are compared in stretch/."""
    library = lifting.anodyne_library(2, N)
    reference = ref_library(2, N)
    assert [e.label() for e in library] == [r[0] for r in reference]
    for ext, (_, A, B) in zip(library, reference):
        for X, R in ((ext.A, A), (ext.B, B)):
            if (X.name, X.dim) not in checked:
                _assert_same(X, R)
                checked.add((X.name, X.dim))


def test_library_shapes_match_reference():
    assert_library_matches_reference(5, set())


GLUING_AND_SMALL = [
    # the factorization's gluing shapes (stages P1, P3 and P4)
    (lambda: tdelta.join(tdelta.delta(0, dim=4), tdelta.delta3_eq(dim=4),
                         out_dim=4, name="Delta[0]*Delta[3]_eq"),
     lambda: tdelta.join(ref_delta(0, 4), ref_delta3_eq(4), out_dim=4,
                         name="Delta[0]*Delta[3]_eq")),
    (lambda: tdelta.join(tdelta.delta(0, dim=4), tdelta.delta3_sharp(dim=4),
                         out_dim=4, name="Delta[0]*Delta[3]#"),
     lambda: tdelta.join(ref_delta(0, 4), ref_delta3_sharp(4), out_dim=4,
                         name="Delta[0]*Delta[3]#")),
    (lambda: tdelta.delta_k_prime(2, 3, dim=3),
     lambda: ref_delta_k_prime(2, 3, 3)),
    (lambda: tdelta.delta_k_dprime(2, 3, dim=3),
     lambda: ref_delta_k_dprime(2, 3, 3)),
    (lambda: tdelta.delta3_eq(3), lambda: ref_delta3_eq(3)),
    (lambda: tdelta.delta3_sharp(3), lambda: ref_delta3_sharp(3)),
    # default and padded truncations, boundaries
    (lambda: tdelta.delta(0), lambda: ref_delta(0)),
    (lambda: tdelta.delta(2, dim=4), lambda: ref_delta(2, 4)),
    (lambda: tdelta.delta_t(2, dim=4), lambda: ref_delta_t(2, 4)),
    (lambda: tdelta.delta_k(1, 3, dim=5), lambda: ref_delta_k(1, 3, 5)),
    (lambda: tdelta.horn(1, 3, dim=4), lambda: ref_horn(1, 3, 4)),
    (lambda: tdelta.boundary(0), lambda: ref_boundary(0)),
    (lambda: tdelta.boundary(3), lambda: ref_boundary(3)),
    (lambda: tdelta.boundary(2, dim=3), lambda: ref_boundary(2, 3)),
    # ten or more vertices: string order of ids differs from vertex order
    (lambda: tdelta.delta(11, dim=2), lambda: ref_delta(11, 2)),
    (lambda: tdelta.horn(0, 10, dim=1), lambda: ref_horn(0, 10, 1)),
]


@pytest.mark.parametrize(
    "build,ref", GLUING_AND_SMALL,
    ids=[f"shape{i}" for i in range(len(GLUING_AND_SMALL))])
def test_other_shapes_match_reference(build, ref):
    _assert_same(build(), ref())


def test_shapes_in_any_build_order_match_reference():
    """Shapes on one Delta[m] share its rows; building them in an order
    unlike the library's, and again, still gives the reference tables."""
    tdelta._delta_tables.cache_clear()
    order = [
        (lambda: tdelta.delta_k(1, 4), lambda: ref_delta_k(1, 4)),
        (lambda: tdelta.horn(1, 4), lambda: ref_horn(1, 4)),
        (lambda: tdelta.delta(4), lambda: ref_delta(4)),
        (lambda: tdelta.boundary(4, dim=4), lambda: ref_boundary(4, 4)),
        (lambda: tdelta.delta(4, dim=5), lambda: ref_delta(4, 5)),
        (lambda: tdelta.delta_k(1, 4), lambda: ref_delta_k(1, 4)),
    ]
    built = []
    for build, ref in order:
        X, R = build(), ref()
        _assert_same(X, R)
        assert ([X.tokens_over(m, s) for m in range(1, X.dim + 1)
                 for s in X.simplex_ids(m)] ==
                [R.tokens_over(m, s) for m in range(1, R.dim + 1)
                 for s in R.simplex_ids(m)])
        built.append(X)
    assert built[0]._face[4][0] is built[2]._face[4][0] is built[5]._face[4][0]


def test_constructor_checks_every_row_and_shares_the_delta_rows():
    """The shapes on one Delta[m] share its id, face and degeneracy row
    objects, since the constructor adopts every row it need not reorder;
    each shape indexes its own levels, and every row handed in, also beside
    the cached Delta[m] ids, is ordered and checked."""
    X, Y = tdelta.delta(3, dim=4), tdelta.delta_k(1, 3, dim=4)
    H = tdelta.horn(1, 3, dim=4)
    _, ids, face, deg = tdelta._delta_tables(3, 4)
    assert all(X._ids[m] is Y._ids[m] is ids[m] for m in range(5))
    assert X._face[4][0] is Y._face[4][0] is face[4][0]
    assert X._deg[0][0] is Y._deg[0][0] is deg[0][0]
    assert all(X._idx[m] == Y._idx[m] for m in range(5))
    assert not any(X._idx[m] is Y._idx[m] or X._idx[m] is H._idx[m]
                   for m in range(5))
    assert X._tok_idx[1] == Y._tok_idx[1]
    assert X._tok_idx[1] is not Y._tok_idx[1]
    assert tdelta._delta_tables(10, 1)[1][0][:4] == ["0", "1", "10", "2"]
    _, ids, face, deg = tdelta._delta_tables(2, 2)
    tok_ids, tok_under, zeta = tdelta._minimal_tokens(2, ids, deg, [set()] * 3)
    copied = TruncatedTDeltaSet(2, [list(level) for level in ids], face, deg,
                                tok_ids, tok_under, zeta, name="Delta[2]")
    _assert_same(copied, tdelta.delta(2))
    # token levels in reverse string order on the cached rows are put in order
    back = [None] + [level[::-1] for level in tok_ids[1:]]
    flip = [[[len(back[m + 1]) - 1 - t for t in row] for row in zeta[m]]
            for m in range(2)] + [None]
    reversed_tokens = TruncatedTDeltaSet(
        2, ids, face, deg, back, [None] + [u[::-1] for u in tok_under[1:]],
        flip, name="Delta[2]")
    _assert_same(reversed_tokens, tdelta.delta(2))

    under, z, f, d = map(copy.deepcopy, (tok_under, zeta, face, deg))
    under[1][0] = z[0][0][0] = f[1][0][0] = d[0][0][0] = 99
    cases = [((ids, face, deg, tok_ids, under, zeta), "unknown simplex under"),
             ((ids, face, deg, tok_ids, tok_under, z), "unknown token as zeta_0"),
             ((ids, f, deg, tok_ids, tok_under, zeta), "unknown simplex as d_0"),
             ((ids, face, d, tok_ids, tok_under, zeta), "unknown simplex as s_0"),
             (([ids[0], [ids[1][0]] * len(ids[1]), ids[2]], face, deg,
               tok_ids, tok_under, zeta), "duplicate simplex ids at level 1")]
    for args, message in cases:
        with pytest.raises(InvalidInput, match=message):
            TruncatedTDeltaSet(2, *args)


def test_constructor_refuses_a_token_over_no_simplex():
    """-1 in ``tok_under`` is refused as the loader refuses an unknown
    ``under``: such a token would validate, and write and reload as a token
    over the last simplex of its level."""
    _, ids, face, deg = tdelta._delta_tables(1, 1)
    tok_ids, tok_under, zeta = tdelta._minimal_tokens(1, ids, deg, [set()] * 2)
    tok_under[1][tok_ids[1].index("t|00")] = -1
    with pytest.raises(InvalidInput,
                       match=r"^unknown simplex under of 't\|00'$"):
        TruncatedTDeltaSet(1, ids, face, deg, tok_ids, tok_under, zeta)
