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

from dataclasses import dataclass, field

from . import tdelta, twocat
from .tdelta import TDeltaMap, TruncatedTDeltaSet
from .twocat import InvalidInput


@dataclass
class NerveInfo:
    """Construction metadata: witness cells behind the simplex ids."""

    C: object
    dim: int
    two_data: dict = field(default_factory=dict)   # sid -> (u, v, alpha)
    two_index: dict = field(default_factory=dict)  # (u, v, alpha) -> sid
    completions: dict = field(default_factory=dict)

    def witness(self, sid):
        return self.two_data[sid][2]

    def triangle(self, u, v, alpha):
        return self.two_index[(u, v, alpha)]


def completion_token(f, ae):
    return f"t|{f}|{ae.g}|{ae.eta}|{ae.eps}"


def _duskin_levels(C, N):
    """Simplex levels, faces and degeneracies of the nerve, plus info."""
    if N > tdelta.MAX_DIM:
        raise InvalidInput(f"nerve dimension capped at {tdelta.MAX_DIM}")
    info = NerveInfo(C, N)
    levels = {0: sorted(C.objects)}
    faces = {}
    degs = {}
    if N >= 1:
        levels[1] = sorted(C.one_cells)
        for f in levels[1]:
            cell = C.one_cells[f]
            faces[(1, 0, f)] = cell.tgt
            faces[(1, 1, f)] = cell.src
        for x in levels[0]:
            degs[(0, 0, x)] = C.identity_of(x)
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
        levels[2] = []
        for k, (u, v, alpha) in enumerate(triples):
            sid = f"W2.{k}"
            levels[2].append(sid)
            info.two_data[sid] = (u, v, alpha)
            info.two_index[(u, v, alpha)] = sid
            faces[(2, 0, sid)] = v
            faces[(2, 1, sid)] = C.two_cells[alpha].src
            faces[(2, 2, sid)] = u
        for f in levels[1]:
            cell = C.one_cells[f]
            i2 = C.identity2_of(f)
            degs[(1, 0, f)] = info.two_index[(C.identity_of(cell.src), f, i2)]
            degs[(1, 1, f)] = info.two_index[(f, C.identity_of(cell.tgt), i2)]
    if N >= 3:
        by_uv = {}
        for sid, (u, v, alpha) in info.two_data.items():
            by_uv.setdefault((u, v), []).append(sid)
        for lst in by_uv.values():
            lst.sort()
        quads = []
        for y3 in levels[2]:
            a01, a12, a012 = info.two_data[y3]
            a02 = C.two_cells[a012].src
            for y0 in levels[2]:
                b_u, a23, a123 = info.two_data[y0]
                if b_u != a12:
                    continue
                a13 = C.two_cells[a123].src
                lhs_whisk = C.wr(a123, a01)
                rhs_whisk = C.wl(a23, a012)
                for y2 in by_uv.get((a01, a13), ()):
                    a013 = info.two_data[y2][2]
                    a03 = C.two_cells[a013].src
                    lhs = C.vert(lhs_whisk, a013)
                    for y1 in by_uv.get((a02, a23), ()):
                        a023 = info.two_data[y1][2]
                        if C.two_cells[a023].src != a03:
                            continue
                        if lhs == C.vert(rhs_whisk, a023):
                            quads.append((y0, y1, y2, y3))
        quads.sort()
        _install_tuple_level(3, quads, levels, faces, degs)
    for m in range(4, N + 1):
        prev = levels[m - 1]
        prefix = {}
        for sid in prev:
            key = ()
            for i in range(m + 1):
                prefix.setdefault((i, key), []).append(sid)
                if i < m:
                    key = key + (faces[(m - 1, i, sid)],)
        tuples = []

        def extend(partial):
            j = len(partial)
            if j == m + 1:
                tuples.append(tuple(partial))
                return
            key = tuple(faces[(m - 1, j - 1, y)] for y in partial)
            for cand in prefix.get((j, key), ()):
                partial.append(cand)
                extend(partial)
                partial.pop()

        for y0 in prev:
            extend([y0])
        tuples.sort()
        _install_tuple_level(m, tuples, levels, faces, degs)
    return levels, faces, degs, info


def _install_tuple_level(m, tuples, levels, faces, degs):
    index = {}
    levels[m] = []
    for k, tup in enumerate(tuples):
        sid = f"W{m}.{k}"
        levels[m].append(sid)
        index[tup] = sid
        for i in range(m + 1):
            faces[(m, i, sid)] = tup[i]
    for z in levels[m - 1]:
        for i in range(m):
            parts = []
            for j in range(m + 1):
                if j < i:
                    parts.append(degs[(m - 2, i - 1, faces[(m - 1, j, z)])])
                elif j in (i, i + 1):
                    parts.append(z)
                else:
                    parts.append(degs[(m - 2, i, faces[(m - 1, j - 1, z)])])
            degs[(m - 1, i, z)] = index[tuple(parts)]


def _degenerate_sids(levels, degs, N):
    out = set()
    for m in range(N):
        for s in levels[m]:
            for i in range(m + 1):
                out.add((m + 1, degs[(m, i, s)]))
    return out


def _assemble(C, N, levels, faces, degs, info, marking):
    degen = _degenerate_sids(levels, degs, N)
    tokens = {}
    zeta = {}

    if marking == "natural":
        info.completions = {f: twocat.adjoint_equivalence_completions(C, f)
                            for f in sorted(C.one_cells)}
    inv2 = twocat.invertible_2cells(C) if marking in ("rs", "natural") else {}

    def marked_plain(m, sid):
        if (m, sid) in degen:
            return True
        if marking == "street":
            return False
        if m == 1:
            return False  # non-degenerate 1-simplices handled separately
        if m == 2:
            alpha = info.witness(sid)
            if marking == "rs":
                return C.two_cells[alpha].identity
            return alpha in inv2
        return True  # m >= 3 fully marked in both rs and natural

    for m in range(1, N + 1):
        lvl = []
        if m == 1 and marking == "natural":
            for f in levels[1]:
                for ae in info.completions[f]:
                    lvl.append((completion_token(f, ae), f))
        else:
            for sid in levels.get(m, ()):
                if marked_plain(m, sid):
                    lvl.append((f"t|{sid}", sid))
        tokens[m] = lvl

    for m in range(N):
        for s in levels[m]:
            for i in range(m + 1):
                target = degs[(m, i, s)]
                if m == 0 and marking == "natural":
                    idc = C.identity_of(s)
                    ae = twocat.AdjointEquivalence(
                        idc, idc, C.identity2_of(idc), C.identity2_of(idc))
                    zeta[(0, 0, s)] = completion_token(idc, ae)
                else:
                    zeta[(m, i, s)] = f"t|{target}"

    name = {"street": "N_street", "rs": "N_rs", "natural": "N_nat"}[marking]
    X = TruncatedTDeltaSet(N, levels, faces, degs, tokens, zeta,
                           name=f"{name}({C.name or '?'},{N})")
    return X


def nerve_with_info(C, N=5, marking="street"):
    if marking not in ("street", "rs", "natural"):
        raise InvalidInput(f"unknown marking {marking!r}")
    levels, faces, degs, info = _duskin_levels(C, N)
    return _assemble(C, N, levels, faces, degs, info, marking), info


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


def nerve_map(F, C, D, N=5, marking="rs"):
    """The map of nerves induced by a 2-functor F: C -> D."""
    XC, infoC = nerve_with_info(C, N, marking)
    XD, infoD = nerve_with_info(D, N, marking)
    img = {(0, x): F.ob(x) for x in XC.simplex_ids(0)}
    img.update({(1, f): F.one(f) for f in XC.simplex_ids(1)})
    if N >= 2:
        for sid in XC.simplex_ids(2):
            u, v, alpha = infoC.two_data[sid]
            img[(2, sid)] = infoD.triangle(F.one(u), F.one(v), F.two(alpha))
    for m in range(3, N + 1):
        index = {}
        for sid in XD.simplex_ids(m):
            index[tuple(XD.face_of(m, i, sid) for i in range(m + 1))] = sid
        for sid in XC.simplex_ids(m):
            key = tuple(img[(m - 1, XC.face_of(m, i, sid))]
                        for i in range(m + 1))
            img[(m, sid)] = index[key]
    simp = {(m, s): img[(m, s)] for m in range(N + 1)
            for s in XC.nondegenerate_ids(m)}
    by_token = {completion_token(f, ae): (f, ae)
                for f, aes in infoC.completions.items() for ae in aes}
    tok = {}
    for m in range(1, N + 1):
        wit = XC._zeta_wit[m]
        for k, t in enumerate(XC._tok_ids[m]):
            if wit[k] is not None:
                continue
            if m == 1 and marking == "natural":
                f, ae = by_token[t]
                img_ae = twocat.AdjointEquivalence(F.one(f), F.one(ae.g),
                                                   F.two(ae.eta), F.two(ae.eps))
                tok[(m, t)] = completion_token(F.one(f), img_ae)
            else:
                sid = XC.under_of(m, t)
                tok[(m, t)] = f"t|{img[(m, sid)]}"
    return TDeltaMap(XC, XD, simp, tok)


def rs_fully_faithful_check(C, D, N=4, budget=None):
    """Compare nerve-map and 2-functor counts; True on exact agreement."""
    if N < 4:
        raise InvalidInput("faithfulness needs dimension at least 4")
    A = rs_nerve(C, N)
    X = rs_nerve(D, N)
    nerve_maps = tdelta.maps(A, X, budget=budget)
    functors = twocat.two_functors(C, D)
    return len(nerve_maps) == len(functors)
