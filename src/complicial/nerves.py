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


def _in_id_order(prefix, items):
    """(ids, items): the k-th item is named prefix + str(k), and both lists
    are in the string order of those ids (``"W2.10"`` before ``"W2.2"``)."""
    order = sorted(range(len(items)), key=str)
    return [prefix + str(k) for k in order], [items[k] for k in order]


def _levels(C, N, info):
    """(ids, faces, deg) of the nerve's levels 0..N, each level in the
    string order of its ids: faces[m] holds one tuple (d_0 y, ..., d_m y)
    of level-(m-1) indices per m-simplex y, deg[m][i] the index rows of
    s_i.  Fills ``info``'s triangle tables and ``by_faces``."""
    ids = [list(C.objects)]
    faces, deg = [None], []
    if N >= 1:
        ids.append(sorted(C.one_cells))
        at0 = {x: j for j, x in enumerate(ids[0])}
        at1 = {f: j for j, f in enumerate(ids[1])}
        cells = [C.one_cells[f] for f in ids[1]]
        faces.append([(at0[c.tgt], at0[c.src]) for c in cells])
        deg.append([[at1[C.identity_of(x)] for x in ids[0]]])
    if N >= 2:
        triples = []
        for u, ucell in C.one_cells.items():
            for v, vcell in C.one_cells.items():
                if vcell.src != ucell.tgt:
                    continue
                vu = C.comp(v, u)
                for w in C.one_cells:
                    for alpha in C.two_cells_between(w, vu):
                        triples.append((u, v, alpha))
        triples.sort()
        info.two_data = {f"W2.{k}": t for k, t in enumerate(triples)}
        info.two_index = {t: sid for sid, t in info.two_data.items()}
        level, two = _in_id_order("W2.", triples)
        at2 = {t: j for j, t in enumerate(two)}
        ids.append(level)
        faces.append([(at1[v], at1[C.two_cells[alpha].src], at1[u])
                      for u, v, alpha in two])
        deg.append([[at2[(C.identity_of(c.src), f, C.identity2_of(f))]
                     for f, c in zip(ids[1], cells)],
                    [at2[(f, C.identity_of(c.tgt), C.identity2_of(f))]
                     for f, c in zip(ids[1], cells)]])
    for m in range(3, N + 1):
        tuples = _compatible_tuples(m, faces[m - 1])
        if m == 3:
            tuples = [t for t in tuples
                      if _pastings_agree(C, [two[y] for y in t])]
        info.by_faces[m] = _add_tuple_level(m, tuples, ids, faces, deg)
    return ids, faces, deg


def _pastings_agree(C, faces):
    """Whether the faces d_0..d_3 of a compatible 3-simplex, as (u, v,
    alpha) triples, paste to one 2-cell both ways."""
    (_, a23, a123), (_, _, a023), (a01, _, a013), (_, _, a012) = faces
    return C.vert(C.wr(a123, a01), a013) == C.vert(C.wl(a23, a012), a023)


def _compatible_tuples(m, below):
    """The tuples (y_0, ..., y_m) of (m-1)-simplices with d_i y_j = d_{j-1}
    y_i for all i < j, in lexicographic order; ``below`` holds the face
    tuple of each (m-1)-simplex.  InvalidInput, before they are built, if
    their bound, len(below) times the last of ``tdelta.family_bounds``,
    exceeds ``tdelta.MAX_LEVEL``."""
    face = [[f[i] for f in below] for i in range(m)]
    fits = [tdelta.face_table(face, range(k)) for k in range(1, m + 1)]
    bound = len(below) * tdelta.family_bounds(fits)[-1]
    if bound > tdelta.MAX_LEVEL:
        raise InvalidInput(f"nerve level {m} is bounded by {bound} simplices,"
                           f" capped at {tdelta.MAX_LEVEL}")
    cols = tdelta.compatible_columns(face, range(m + 1), fits,
                                     range(len(below)))[0]
    return list(zip(*cols))


def _add_tuple_level(m, tuples, ids, faces, deg):
    """Append level m, whose simplices are the sorted face tuples, and the
    degeneracies of level m-1 into it; return {face tuple: index}."""
    level, tuples = _in_id_order(f"W{m}.", tuples)
    at = {t: j for j, t in enumerate(tuples)}
    s = [*deg[m - 2], ()]  # s_{-1} and s_{m-1} are never applied
    ids.append(level)
    faces.append(tuples)
    # d_j s_i z is s_{i-1} d_j z below i, z at i and i+1, s_i d_{j-1} z above
    deg.append([[at[(*map(s[i - 1].__getitem__, y[:i]), z, z,
                     *map(s[i].__getitem__, y[i + 1:]))]
                 for z, y in enumerate(faces[m - 1])] for i in range(m)])
    return at


def nerve_with_info(C, N=5, marking="street"):
    if marking not in ("street", "rs", "natural"):
        raise InvalidInput(f"unknown marking {marking!r}")
    if N > tdelta.MAX_DIM:
        raise InvalidInput(f"nerve dimension capped at {tdelta.MAX_DIM}")
    if N < 0:
        raise InvalidInput("dimension bound must be >= 0")
    info = NerveInfo(C, N)
    ids, faces, deg = _levels(C, N, info)
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
    if marking == "natural":
        # level 1 carries one token per adjoint-equivalence completion
        if N >= 1:
            pairs = [(completion_token(f, ae), j) for j, f in enumerate(ids[1])
                     for ae in twocat.adjoint_equivalence_completions(C, f)]
            tok_ids[1] = [t for t, _ in pairs]
            tok_under[1] = [j for _, j in pairs]
            at = {t: k for k, t in enumerate(tok_ids[1])}
            zeta[0] = [[at.get(unit_token(C, C.identity_of(x)), -2)
                        for x in ids[0]]]
    face = [None] + [[[t[i] for t in faces[m]] for i in range(m + 1)]
                     for m in range(1, N + 1)]
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

