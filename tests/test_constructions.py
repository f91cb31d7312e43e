"""Constructions on index tables against the string-keyed code they replaced.

``coproduct``, ``pushout`` and ``join`` build their results straight from the
index tables of their inputs.  The ``ref_`` functions below are the
constructions they replaced: every simplex and token is copied through its
string id and the per-id lookups into id-keyed dicts, which reach a
tDelta-set as a document, through the loader.  They are kept here as the
oracle, on random inputs and on the shapes of the anodyne library: the
results must agree table for table, with the same names, the same maps and
``validate() == []``.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complicial import lifting, nerves, tdelta, twocat
from complicial.tdelta import (boundary, coproduct, delta, delta3_eq,
                               delta3_sharp, delta_k, delta_k_dprime,
                               delta_k_prime, delta_t, horn, identity_map,
                               inclusion_map, join, pushout,
                               pushout_family)
from complicial.twocat import InvalidInput
from oracles import iter_maps
from test_shapes import tdelta_from_dicts


def degeneracy_of(X, m, i, sid):
    j = X._deg[m][i][X._idx[m][sid]]
    if j < 0:
        raise InvalidInput(f"degeneracy s_{i} undefined on {sid!r}")
    return X._ids[m + 1][j]


def zeta_of(X, m, i, sid):
    j = X._zeta[m][i][X._idx[m][sid]]
    if j < 0:
        raise InvalidInput(f"zeta_{i} undefined on {sid!r}")
    return X._tok_ids[m + 1][j]


def ref_join(A, B, out_dim=None, name=None):
    """Join of stratified sets; a*b is marked iff a or b is marked.

    Both inputs must be presented at truncation >= the output truncation so
    that mixed degeneracies stay inside the available levels; the standard
    shape constructors take a ``dim`` argument for exactly this padding.
    """
    if not A.is_stratified() or not B.is_stratified():
        raise InvalidInput("join requires stratified inputs")
    out_dim = min(A.dim, B.dim) if out_dim is None else out_dim
    if A.dim < out_dim or B.dim < out_dim:
        raise InvalidInput("join factors must be padded to the output "
                           "truncation")

    la = lambda a: f"{a}*"
    rb = lambda b: f"*{b}"
    jn = lambda a, b: f"{a}*{b}"

    simplices = {}
    faces = {}
    degs = {}
    marked = set()

    def a_marked(m, a):
        return bool(A.tokens_over(m, a))

    def b_marked(m, b):
        return bool(B.tokens_over(m, b))

    for m in range(out_dim + 1):
        lvl = [la(a) for a in A.simplex_ids(m)]
        lvl += [rb(b) for b in B.simplex_ids(m)]
        for p in range(m):
            q = m - 1 - p
            lvl += [jn(a, b) for a in A.simplex_ids(p)
                    for b in B.simplex_ids(q)]
        simplices[m] = lvl

    for m in range(1, out_dim + 1):
        for a in A.simplex_ids(m):
            for i in range(m + 1):
                faces[(m, i, la(a))] = la(A.face_of(m, i, a))
            if not A.is_degenerate(m, a) and a_marked(m, a):
                marked.add((m, la(a)))
        for b in B.simplex_ids(m):
            for i in range(m + 1):
                faces[(m, i, rb(b))] = rb(B.face_of(m, i, b))
            if not B.is_degenerate(m, b) and b_marked(m, b):
                marked.add((m, rb(b)))
        for p in range(m):
            q = m - 1 - p
            for a in A.simplex_ids(p):
                for b in B.simplex_ids(q):
                    s = jn(a, b)
                    for i in range(m + 1):
                        if i <= p:
                            faces[(m, i, s)] = rb(b) if p == 0 \
                                else jn(A.face_of(p, i, a), b)
                        else:
                            j = i - p - 1
                            faces[(m, i, s)] = la(a) if q == 0 \
                                else jn(a, B.face_of(q, j, b))
                    nd = not (A.is_degenerate(p, a) if p else False) and \
                        not (B.is_degenerate(q, b) if q else False)
                    if nd and ((p >= 1 and a_marked(p, a)) or
                               (q >= 1 and b_marked(q, b))):
                        marked.add((m, s))

    for m in range(out_dim):
        for a in A.simplex_ids(m):
            for i in range(m + 1):
                degs[(m, i, la(a))] = la(degeneracy_of(A, m, i, a))
        for b in B.simplex_ids(m):
            for i in range(m + 1):
                degs[(m, i, rb(b))] = rb(degeneracy_of(B, m, i, b))
        for p in range(m):
            q = m - 1 - p
            for a in A.simplex_ids(p):
                for b in B.simplex_ids(q):
                    s = jn(a, b)
                    for i in range(m + 1):
                        if i <= p:
                            degs[(m, i, s)] = jn(degeneracy_of(A, p, i, a), b)
                        else:
                            degs[(m, i, s)] = jn(a, degeneracy_of(B, q, i - p - 1, b))

    return ref_tokens_from_marks(out_dim, simplices, faces, degs, marked,
                                 name or f"{A.name} * {B.name}")


def ref_tokens_from_marks(dim, simplices, faces, degs, marked, name):
    """Assemble a stratified object: minimal tokens plus the marked set."""
    deg_image = {}
    for (m, i, s), y in degs.items():
        deg_image.setdefault((m + 1, y), (m, i, s))
    tokens = {}
    for m in range(1, dim + 1):
        lvl = []
        for s in simplices.get(m, ()):
            if (m, s) in deg_image or (m, s) in marked:
                lvl.append((f"t|{s}", s))
        tokens[m] = lvl
    zeta = {(m, i, s): f"t|{y}" for (m, i, s), y in degs.items()}
    return tdelta_from_dicts(dim, simplices, faces, degs, tokens, zeta,
                             name=name)


def ref_coproduct(parts, name=""):
    """Disjoint union, ids prefixed by the part index."""
    if not parts:
        raise InvalidInput("empty coproduct needs an explicit dimension")
    dim = max(p.dim for p in parts)
    simplices = {m: [] for m in range(dim + 1)}
    faces, degs, zeta = {}, {}, {}
    tokens = {m: [] for m in range(1, dim + 1)}
    for idx, P in enumerate(parts):
        tag = lambda s: f"{idx}:{s}"
        for m in range(P.dim + 1):
            simplices[m] += [tag(s) for s in P.simplex_ids(m)]
            for s in P.simplex_ids(m):
                for i in range(m + 1):
                    if m >= 1:
                        faces[(m, i, tag(s))] = tag(P.face_of(m, i, s))
                    if m < P.dim:
                        degs[(m, i, tag(s))] = tag(degeneracy_of(P, m, i, s))
                        zeta[(m, i, tag(s))] = tag(zeta_of(P, m, i, s))
        for m in range(1, P.dim + 1):
            tokens[m] += [(tag(t), tag(P.under_of(m, t)))
                          for t in P.token_ids(m)]
    return tdelta_from_dicts(dim, simplices, faces, degs, tokens, zeta,
                             name=name)


def ref_pushout(f, i, prefix="B.", name=""):
    """Pushout of f: A -> X along a monomorphism i: A -> B.

    Returns (P, X -> P, B -> P).  X keeps its ids; elements of B outside the
    image of i enter with the given prefix.  Unlike ``pushout`` it does not
    reject the dimensions where P comes out wrong.
    """
    A, X, B = f.src, f.dst, i.dst
    if not i.is_mono():
        raise InvalidInput("pushout implemented along monomorphisms only")
    dim = X.dim
    if B.dim > dim:
        raise InvalidInput("pushout target truncation too small")

    s_img = {}  # (m, B-id) -> (m, P-id) for the image of i
    for m in range(A.dim + 1):
        for s in A.simplex_ids(m):
            s_img[(m, i.apply_simplex(m, s))] = f.apply_simplex(m, s)
    t_img = {}
    for m in range(1, A.dim + 1):
        for t in A.token_ids(m):
            t_img[(m, i.apply_token(m, t))] = f.apply_token(m, t)

    def new_sid(m, b):
        return s_img.get((m, b)) or f"{prefix}{b}"

    def new_tid(m, t):
        return t_img.get((m, t)) or f"{prefix}{t}"

    simplices = {m: list(X.simplex_ids(m)) for m in range(dim + 1)}
    faces, degs, zeta = {}, {}, {}
    tokens = {m: [(t, X.under_of(m, t)) for t in X.token_ids(m)]
              for m in range(1, dim + 1)}
    for m in range(1, dim + 1):
        for s in X.simplex_ids(m):
            for k in range(m + 1):
                faces[(m, k, s)] = X.face_of(m, k, s)
    for m in range(dim):
        for s in X.simplex_ids(m):
            for k in range(m + 1):
                degs[(m, k, s)] = degeneracy_of(X, m, k, s)
                zeta[(m, k, s)] = zeta_of(X, m, k, s)

    for m in range(B.dim + 1):
        for b in B.simplex_ids(m):
            if (m, b) in s_img:
                continue
            sid = new_sid(m, b)
            simplices[m].append(sid)
            for k in range(m + 1):
                if m >= 1:
                    faces[(m, k, sid)] = new_sid(m - 1, B.face_of(m, k, b))
                if m < B.dim:
                    degs[(m, k, sid)] = new_sid(m + 1, degeneracy_of(B, m, k, b))
                    zeta[(m, k, sid)] = new_tid(m + 1, zeta_of(B, m, k, b))
    for m in range(1, B.dim + 1):
        for t in B.token_ids(m):
            if (m, t) in t_img:
                continue
            tokens[m].append((new_tid(m, t), new_sid(m, B.under_of(m, t))))

    P = tdelta_from_dicts(dim, simplices, faces, degs, tokens, zeta, name=name)
    x_to_p = inclusion_map(X, P)
    b_simp = [[m, b, new_sid(m, b)] for m in range(B.dim + 1)
              for b in B.nondegenerate_ids(m)]
    b_tok = []
    for m in range(1, B.dim + 1):
        wit = B._zeta_wit[m]
        b_tok += [[m, t, new_tid(m, t)]
                  for k, t in enumerate(B._tok_ids[m]) if wit[k] is None]
    b_to_p = tdelta.map_from_json_dict(B, P, {"simplices": b_simp,
                                              "tokens": b_tok})
    return P, x_to_p, b_to_p




# -- inputs -----------------------------------------------------------------------

SHAPE_BUILDERS = {
    "delta": lambda k, m, dim: delta(m, dim),
    "delta_t": lambda k, m, dim: delta_t(m, dim),
    "boundary": lambda k, m, dim: boundary(m, dim),
    "horn": lambda k, m, dim: horn(k, m, dim),
    "delta_k": lambda k, m, dim: delta_k(k, m, dim),
    "delta_k_prime": lambda k, m, dim: delta_k_prime(k, m, dim),
}


@st.composite
def standard_shapes(draw, dim=None, max_dim=3):
    """A standard shape on at most max_dim + 1 vertices, presented at
    ``dim``, or else at a drawn dimension no lower than its own."""
    m = draw(st.integers(0, max_dim if dim is None else min(dim, max_dim)))
    k = draw(st.integers(0, m))
    dim = draw(st.integers(m, max_dim)) if dim is None else dim
    return SHAPE_BUILDERS[draw(st.sampled_from(sorted(SHAPE_BUILDERS)))](
        k, m, dim)


@st.composite
def join_factors(draw, out_dim):
    """A shape padded to out_dim: a simplex with a random sub-marking of its
    non-degenerate simplices, a horn or a boundary."""
    m = draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["delta", "horn", "boundary"]))
    if kind == "horn" and m:
        return horn(draw(st.integers(0, m)), m, dim=out_dim)
    if kind == "boundary":
        return boundary(m, dim=out_dim)
    cells = [s for lvl in range(1, min(m, out_dim) + 1)
             for s in itertools.combinations(range(m + 1), lvl + 1)]
    marked = draw(st.sets(st.sampled_from(cells))) if cells else set()
    return delta(m, dim=out_dim, marked=marked)


@functools.cache
def catalog_nerve(name, marking, N):
    return nerves.nerve_with_info(twocat.standard_examples()[name], N,
                                  marking)[0]


def _gluing_extension(draw, N):
    """(A, B): a horn filling padded to N, or an inclusion that adds only
    tokens, presented at N or at its own dimension as the replay does."""
    kind = "horn" if draw(st.booleans()) else draw(
        st.sampled_from(["thinness", "triviality", "saturation"]))
    m = draw(st.integers(1 if kind == "horn" else 2, N))
    k = draw(st.integers(0, m))
    if kind == "horn":
        return horn(k, m, dim=N), delta_k(k, m, dim=N)
    dim = draw(st.sampled_from([m, N]))
    if kind == "thinness":
        return delta_k_prime(k, m, dim=dim), delta_k_dprime(k, m, dim=dim)
    if kind == "triviality":
        return delta(m, dim=dim), delta_t(m, dim=dim)
    dim = draw(st.sampled_from([3, N]))
    return delta3_eq(dim), delta3_sharp(dim)


@st.composite
def gluings(draw, X, count):
    """``count`` gluings (f: A -> X, A -> B), each f among the first maps
    of the canonical enumeration."""
    out = []
    for _ in range(count):
        A, B = _gluing_extension(draw, X.dim)
        j = draw(st.integers(0, 4))
        f = next(itertools.islice(iter_maps(A, X), j, None), None) or \
            next(iter_maps(A, X))
        out.append((f, inclusion_map(A, B)))
    return out


# the empty category's nerve receives no gluing maps
nerve_keys = st.tuples(st.sampled_from(sorted(set(twocat.standard_examples())
                                              - {"empty"})),
                       st.sampled_from(["rs", "natural"]),
                       st.sampled_from([3, 4]))


def assert_same(T, R):
    assert T.same_as(R) and T.name == R.name
    assert T.validate() == []


# -- coproduct ------------------------------------------------------------------

@given(st.data())
@settings(max_examples=60, deadline=None)
def test_coproduct_matches_dict_oracle(data):
    padded = data.draw(st.booleans())
    dim = data.draw(st.integers(0, 3)) if padded else None
    parts = data.draw(st.lists(standard_shapes(dim), min_size=1,
                               max_size=12))
    C, R = coproduct(parts, name="C"), ref_coproduct(parts, name="C")
    assert C.same_as(R) and C.name == R.name
    if len({P.dim for P in parts}) == 1:
        assert C.validate() == []


def test_coproduct_of_twelve_parts_orders_ids_as_strings():
    parts = [delta(m % 3, dim=2) for m in range(12)]
    C, R = coproduct(parts, name="C"), ref_coproduct(parts, name="C")
    assert_same(C, R)
    assert C.simplex_ids(0)[:5] == ["0:0", "10:0", "10:1", "11:0", "11:1"]


# -- join -------------------------------------------------------------------------

@given(st.data())
@settings(max_examples=60, deadline=None)
def test_join_matches_dict_oracle(data):
    out_dim = data.draw(st.integers(0, 4))
    A = data.draw(join_factors(out_dim))
    B = data.draw(join_factors(out_dim))
    assert_same(join(A, B, out_dim=out_dim, name="J"),
                ref_join(A, B, out_dim=out_dim, name="J"))


def _library_joins():
    for N in (5, 6):
        for l in range(0, N - 3):
            pad = l + 4
            for B in (delta3_eq(pad), delta3_sharp(pad)):
                yield delta(l, dim=pad), B, pad
    yield delta(11, dim=2), delta(0, dim=2), 2    # ten or more vertices
    yield horn(1, 2, dim=3), delta_t(1, dim=3), 3
    yield boundary(2, dim=3), delta3_eq(3), 3


@pytest.mark.parametrize("A, B, out_dim", list(_library_joins()),
                         ids=lambda v: getattr(v, "name", str(v)))
def test_library_joins_match_dict_oracle(A, B, out_dim):
    assert_same(join(A, B, out_dim=out_dim), ref_join(A, B, out_dim=out_dim))


# -- pushout ----------------------------------------------------------------------

@given(nerve_keys, st.data())
@settings(max_examples=60, deadline=None)
def test_pushout_matches_dict_oracle(key, data):
    X = catalog_nerve(*key)
    (f, i), = data.draw(gluings(X, 1))
    P, x_to_p, b_to_p = pushout(f, i, prefix="g.", name="P")
    R, x_to_r, b_to_r = ref_pushout(f, i, prefix="g.", name="P")
    assert_same(P, R)
    assert x_to_p.equals(x_to_r) and b_to_p.equals(b_to_r)


def fold_of_ref_pushouts(X, gluings, prefix, name=""):
    P, x_to_p, b_maps = X, identity_map(X), []
    for k, (fk, ik) in enumerate(gluings):
        P, step, bk = ref_pushout(x_to_p.compose(fk), ik,
                                  prefix=f"{prefix}{k}:", name=name)
        x_to_p = step.compose(x_to_p)
        b_maps = [step.compose(b) for b in b_maps] + [bk]
    return P, x_to_p, b_maps


@given(nerve_keys, st.integers(1, 3), st.data())
@settings(max_examples=30, deadline=None)
def test_pushout_family_matches_fold_of_dict_pushouts(key, count, data):
    X = catalog_nerve(*key)
    family = data.draw(gluings(X, count))
    P, x_to_p, b_maps = pushout_family(X, family, prefix="g", name="P")
    R, x_to_r, r_maps = fold_of_ref_pushouts(X, family, "g", name="P")
    assert_same(P, R)
    assert x_to_p.equals(x_to_r)
    assert all(b.equals(r) for b, r in zip(b_maps, r_maps, strict=True))


def test_library_gluings_keep_lower_dimension():
    """The replay's gluings: extensions at their own dimension that add only
    tokens at their top level, into a nerve of higher dimension."""
    X = catalog_nerve("sigma-iso", "rs", 4)
    for ext in (lifting.saturation(-1), lifting.thinness(2, 3)):
        f = next(iter_maps(ext.A, X))
        P, x_to_p, b_to_p = pushout(f, ext.inclusion, name="P")
        R, x_to_r, b_to_r = ref_pushout(f, ext.inclusion, name="P")
        assert ext.B.dim < X.dim
        assert_same(P, R)
        assert x_to_p.equals(x_to_r) and b_to_p.equals(b_to_r)
