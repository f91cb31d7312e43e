"""Duskin nerves of finite 2-categories with three markings.

A 2-simplex of the nerve is a triple (u, v, alpha) with alpha: w => v.u a
2-cell witnessing the triangle; a 3-simplex is a quadruple of 2-simplices
whose two pastings agree; everything in dimension four and up is a
boundary-compatible tuple of one-lower simplices (the nerve is 3-coskeletal).

Markings:

* street  - only degenerate simplices, each once (the plain nerve);
* rs      - identity-witnessed triangles and everything above dimension 2;
* natural - triangles witnessed by invertible 2-cells, and each 1-simplex
            once per way of completing it to an adjoint equivalence, which
            can mark one simplex several times.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import attrgetter

from . import tdelta, twocat
from .tdelta import TruncatedTDeltaSet
from .twocat import InvalidInput


class NerveInfo:
    """Construction metadata: witness cells behind the simplex ids."""

    __slots__ = ("C", "dim", "two_data", "two_index", "by_faces")

    def __init__(self, C, dim):
        self.C, self.dim = C, dim
        self.two_data = {}   # sid -> (u, v, alpha)
        self.two_index = {}  # (u, v, alpha) -> sid
        self.by_faces = {}   # m >= 3 -> {face-index tuple: simplex index}

    def witness(self, sid):
        return self.two_data[sid][2]

    def triangle(self, u, v, alpha):
        return self.two_index[(u, v, alpha)]


def completion_token(f, ae):
    """``t|f|g|eta|eps``, where a backslash escapes each backslash and bar
    of the four ids, so that different completions get different ids."""
    return "|".join(["t"] + [c.replace("\\", "\\\\").replace("|", "\\|")
                             for c in (f, ae.g, ae.eta, ae.eps)])


def unit_token(C, f):
    """The token of f's unit completion (f, f, id_f, id_f)."""
    i2 = C.identity2_of(f)
    return completion_token(f, twocat.AdjointEquivalence(f, f, i2, i2))


def _capped(m, rows):
    """InvalidInput if a step of building level m makes more than
    ``tdelta.MAX_LEVEL`` rows."""
    if rows > tdelta.MAX_LEVEL:
        raise InvalidInput(f"nerve level {m} needs {rows} rows, capped at "
                           f"{tdelta.MAX_LEVEL}")


def _levels(C, N, info):
    """(ids, face, deg) of the nerve's levels 0..N, each level in the
    string order of its ids: face[m][i] is the index row of d_i on level m,
    deg[m][i] that of s_i on level m.  Fills ``info``'s triangle tables and
    ``by_faces``."""
    ids = [list(C.objects)]
    face, deg = [None], []
    if N >= 1:
        ids.append(sorted(C.one_cells))
        at0 = {x: j for j, x in enumerate(ids[0])}
        at1 = {f: j for j, f in enumerate(ids[1])}
        cells = [C.one_cells[f] for f in ids[1]]
        face.append([[at0[c.tgt] for c in cells], [at0[c.src] for c in cells]])
        deg.append([[at1[C.identity_of(x)] for x in ids[0]]])
    if N >= 2:  # the triangles (u, v, alpha), alpha a 2-cell into vu
        into = twocat._group(C.two_cells, attrgetter("tgt"))
        _capped(2, sum(len(into.get(vu, ())) for vu in C.comp1.values()))
        triples = sorted((u, v, a) for (v, u), vu in C.comp1.items()
                         for a in into.get(vu, ()))
        info.two_data = {f"W2.{k}": t for k, t in enumerate(triples)}
        info.two_index = {t: sid for sid, t in info.two_data.items()}
        ids.append(sorted(info.two_data))  # "W2.10" before "W2.2"
        two = list(map(info.two_data.__getitem__, ids[2]))
        at2 = {t: j for j, t in enumerate(two)}
        face.append([[at1[v] for _, v, _ in two],
                     [at1[C.two_cells[a].src] for _, _, a in two],
                     [at1[u] for u, _, _ in two]])
        deg.append([[at2[(C.identity_of(c.src), f, C.identity2_of(f))]
                     for f, c in zip(ids[1], cells)],
                    [at2[(f, C.identity_of(c.tgt), C.identity2_of(f))]
                     for f, c in zip(ids[1], cells)]])
    for m in range(3, N + 1):
        cols = _compatible_tuples(m, face[m - 1])
        if m == 3:
            keep = list(map(_pastings_agree, repeat(C),
                            *[map(two.__getitem__, c) for c in cols]))
            cols = [list(compress(c, keep)) for c in cols]
        info.by_faces[m] = _add_tuple_level(m, cols, ids, face, deg)
    return ids, face, deg


def _pastings_agree(C, *faces):
    """Whether the faces d_0..d_3 of a compatible 3-simplex, as (u, v,
    alpha) triples, paste to one 2-cell both ways."""
    (_, a23, a123), (_, _, a023), (a01, _, a013), (_, _, a012) = faces
    return C.vert(C.wr(a123, a01), a013) == C.vert(C.wl(a23, a012), a023)


def _compatible_tuples(m, below):
    """The columns (y_0, ..., y_m) of the families of (m-1)-simplices with
    d_i y_j = d_{j-1} y_i for all i < j, in lexicographic order; ``below``
    holds the face rows of level m-1.  InvalidInput, before a step of the
    walk is built, if it has more than ``tdelta.MAX_LEVEL`` rows."""
    fits = [tdelta.face_table(below, range(k)) for k in range(1, m + 1)]
    return tdelta.compatible_columns(below, range(m + 1), fits,
                                     range(len(below[0])),
                                     lambda rows: _capped(m, rows))[0]


def _add_tuple_level(m, cols, ids, face, deg):
    """Append level m, whose simplices have the faces of the columns
    ``cols`` (cols[i] the d_i of each, the families in lexicographic order),
    and the degeneracies of level m-1 into it; return {face tuple: index}."""
    order = sorted(range(len(cols[0])), key=str)  # the string order of ids
    rows = [list(map(c.__getitem__, order)) for c in cols]
    at = {t: j for j, t in enumerate(zip(*rows))}
    below, s, z = face[m - 1], deg[m - 2], range(len(ids[m - 1]))
    ids.append([f"W{m}.{k}" for k in order])
    face.append(rows)
    # d_j s_i z is s_{i-1} d_j z below i, z at i and i+1, s_i d_{j-1} z above
    deg.append([list(map(at.__getitem__, zip(
        *[map(s[i - 1].__getitem__, r) for r in below[:i]], z, z,
        *[map(s[i].__getitem__, r) for r in below[i + 1:]])))
        for i in range(m)])
    return at


def nerve_with_info(C, N=5, marking="street"):
    """(X, info): the nerve of C up to dimension N with the given marking.
    C must be valid (``C.validate()`` empty), as the CLI checks.
    InvalidInput on a bad marking or N, and, before it is built, on a level
    that takes more than ``tdelta.MAX_LEVEL`` rows."""
    if marking not in ("street", "rs", "natural"):
        raise InvalidInput(f"unknown marking {marking!r}")
    if N > tdelta.MAX_DIM:
        raise InvalidInput(f"nerve dimension capped at {tdelta.MAX_DIM}")
    if N < 0:
        raise InvalidInput("dimension bound must be >= 0")
    info = NerveInfo(C, N)
    ids, face, deg = _levels(C, N, info)
    # the marked non-degenerate simplices; _minimal_tokens adds the others
    marked = [None] + [set() for _ in range(N)]
    if marking != "street":
        for m in range(2, N + 1):
            marked[m] = set(range(len(ids[m])))
        if N >= 2:  # triangles witnessed by identities, or by invertibles
            thin = {a for a, c in C.two_cells.items() if c.identity} \
                if marking == "rs" else twocat.invertible_2cells(C)
            marked[2] = {j for j, sid in enumerate(ids[2])
                         if info.witness(sid) in thin}
    tok_ids, tok_under, zeta = tdelta._minimal_tokens(N, ids, deg, marked)
    if marking == "natural" and N >= 1:
        # level 1 carries one token per adjoint-equivalence completion
        pairs = [(completion_token(f, ae), j) for j, f in enumerate(ids[1])
                 for ae in twocat.adjoint_equivalence_completions(C, f)]
        tok_ids[1] = [t for t, _ in pairs]
        tok_under[1] = [j for _, j in pairs]
        at = {t: k for k, t in enumerate(tok_ids[1])}
        zeta[0] = [[at.get(unit_token(C, C.identity_of(x)), -2)
                    for x in ids[0]]]
    name = {"street": "N_street", "rs": "N_rs", "natural": "N_nat"}[marking]
    X = TruncatedTDeltaSet(N, ids, face, deg + [None], tok_ids, tok_under,
                           zeta, name=f"{name}({C.name or '?'},{N})")
    return X, info


def duskin_nerve(C, N=5):
    """The plain (minimally marked) nerve."""
    return nerve_with_info(C, N, "street")[0]


def rs_nerve(C, N=5):
    return nerve_with_info(C, N, "rs")[0]


def natural_nerve(C, N=5):
    return nerve_with_info(C, N, "natural")[0]


def rs_to_natural(rs, nat):
    """The inclusion of the rs nerve into the natural nerve of the same C
    and N: identity on simplices, and each rs mark lands on the natural mark
    with the same id (every level-1 rs mark is degenerate)."""
    return tdelta.inclusion_map(rs, nat)

