"""Constructions on index tables against the string-keyed code they replaced.

``join`` builds its result straight from the index tables of its inputs.
``pushout`` glues marks only: it builds P on X's own simplex rows and adds
the tokens of B, and ``pushout_family`` is a fold of ``pushout``.  The
``ref_`` functions are string-keyed constructions: every simplex and token
is copied through its string id and the per-id lookups into id-keyed dicts,
which reach a tDelta-set as a document, through the loader.  ``ref_join``
is below; ``ref_pushout`` and its fold live in ``tests/oracles.py`` and are
general pushouts, which may append simplices.  They are kept as the oracle,
on random inputs and on the shapes of the anodyne library: the results must
agree table for table, with the same names, the same maps and
``validate() == []``.  The gluings drawn here add only tokens (thinness,
triviality and saturation), as those of the factorization replay do.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complicial import lifting, nerves, twocat
from complicial.tdelta import (boundary, delta, delta3_eq, delta3_sharp,
                               delta_k_dprime, delta_k_prime, delta_t, horn,
                               inclusion_map, join, pushout, pushout_family)
from complicial.twocat import InvalidInput
from oracles import (degeneracy_of, fold_of_ref_pushouts, iter_maps,
                     ref_pushout, tdelta_from_dicts)


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


# -- inputs -----------------------------------------------------------------------

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
    """(A, B): an inclusion that adds only tokens, presented at N or at its
    own dimension as the replay does."""
    kind = draw(st.sampled_from(["thinness", "triviality", "saturation"]))
    m = draw(st.integers(2, N))
    k = draw(st.integers(0, m))
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
