"""Replay of the anodyne factorization from the marked to the natural nerve.

Starting from the identity-marked nerve of a 2-category C, four gluing
stages produce the natural marking without touching the underlying
simplicial set:

* P1: for every non-identity invertible 2-cell, glue the degenerate-join
  saturation extension along the 4-simplex built from the cell, its inverse
  and identities; this marks the invertible triangles with degenerate 0th
  face, several times over.
* P2: collapse the multiple marks; a retract of P1 under the base nerve.
* P3: for every non-identity invertible 2-cell and every factorization of
  its target with a non-identity outer factor, glue a thinness extension;
  now every invertible triangle is marked exactly once.
* P4: for every adjoint-equivalence completion glue the bare saturation
  extension, marking equivalence edges four times per completion; the final
  quotient identifies the marks belonging to one completion and lands in
  the natural nerve, again as a retract.

Every stage checks its expected marking characterization and the final
object is compared for strict equality with the natural nerve.
"""

from __future__ import annotations

from . import lifting, nerves, tdelta, twocat
from .lifting import saturation, thinness
from .nerves import completion_token, unit_token
from .tdelta import inclusion_map, map_on_generators


class StageError(Exception):
    """A stage assertion failed; the replay does not match the construction."""


def _simplex(X, info, stage, tri, vs):
    """The index in X, a stage over the nerve of info, of the simplex on
    the vertices vs (at least three) whose triangle on (i, j, k) is the
    triple (u, v, alpha) ``tri((i, j, k))``; the nerve is 3-coskeletal."""
    m = len(vs) - 1
    if m == 2:
        try:
            return X._idx[2][info.triangle(*tri(vs))]
        except KeyError as exc:
            raise StageError(f"{stage} skeleton fails: {exc.args[0]} is not "
                             f"a triangle of the nerve") from None
    faces = tuple(_simplex(X, info, stage, tri, vs[:i] + vs[i + 1:])
                  for i in range(m + 1))
    j = info.by_faces[m].get(faces)
    if j is None:
        raise StageError(f"no {m}-simplex has the prescribed boundary")
    return j


def _glue(X, ext, xs, stage, name):
    """Push ext out along maps of its top simplex onto each simplex of X
    with an index in xs, built and checked by the compiled lift plan.
    Returns (P, X -> P, [B_k -> P], number of gluings); P is built on the
    simplex rows of X."""
    plan, incl = lifting._compile_plan(ext), inclusion_map(ext.A, ext.B)
    good = lifting._admitted(X, plan.m, plan.domain_marks)
    gluings = []
    for x in xs:
        if good and not good[x]:
            raise StageError(f"{stage}: a marked simplex of {ext.A.name} "
                             f"lands on an unmarked one at "
                             f"{X._ids[plan.m][x]}")
        gluings.append((lifting._part_to_map(X, ext, plan, (x,)), incl))
    P, x_to_p, b_maps = tdelta.pushout_family(
        X, gluings, prefix=f"{stage.lower()}.", name=name)
    return P, x_to_p, b_maps, len(gluings)


def _retract(base_to_p, stage, name, labels=None):
    """Identify the marks of P = base_to_p.dst (by labels, if given) and
    check that the quotient Q is a retract of P under the base.  Returns
    (Q, base -> Q, quotient P -> Q, section Q -> P)."""
    P, base = base_to_p.dst, base_to_p.src
    Q, q = tdelta.identify_markings(P, name=name, labels=labels)
    s = _section_of_collapse(P, Q, q, base)
    base_to_q = q.compose(base_to_p)
    if not (q.is_valid() and s.is_valid()):
        raise StageError(f"{stage}: quotient or section is not a map")
    if not q.compose(s).equals(tdelta.identity_map(Q)):
        raise StageError(f"{stage}: collapse retraction fails")
    if not s.compose(base_to_q).equals(base_to_p):
        raise StageError(f"{stage}: section does not restrict to {base.name}")
    return Q, base_to_q, q, s


class StageReport:
    __slots__ = ("name", "gluings", "tokens_before", "tokens_after", "notes")

    def __init__(self, name, gluings, tokens_before, tokens_after, notes=None):
        self.name, self.gluings = name, gluings
        self.tokens_before, self.tokens_after = tokens_before, tokens_after
        self.notes = {} if notes is None else notes


def _invertible_nonidentity(C):
    inv = twocat.invertible_2cells(C)
    return {a: b for a, b in inv.items() if not C.two_cells[a].identity}


def stage_p1(X, info):
    """Glue degenerate-join saturation extensions, one per invertible 2-cell.

    X, info = nerve_with_info(C, N, "rs").  Returns (P1, map X -> P1, report).
    """
    C = info.C
    if info.dim < 4:
        raise twocat.InvalidInput("stage P1 needs dimension at least 4")
    inv = _invertible_nonidentity(C)
    tops = []
    for alpha in sorted(inv):
        beta = inv[alpha]
        f = C.two_cells[alpha].src
        g = C.two_cells[alpha].tgt
        y = C.one_cells[f].tgt
        idy = C.identity_of(y)
        id2 = C.identity2_of
        edges = {(0, 1): f, (0, 2): g, (0, 3): f, (0, 4): g}
        wit = {(0, 1, 2): beta, (0, 1, 3): id2(f), (0, 1, 4): beta,
               (0, 2, 3): alpha, (0, 2, 4): id2(g), (0, 3, 4): beta}

        def tri(ijk):
            i, j, k = ijk
            return (edges.get((i, j), idy), edges.get((j, k), idy),
                    wit.get(ijk, id2(idy)))
        tops.append(_simplex(X, info, "P1", tri, (0, 1, 2, 3, 4)))
    P1, x_to_p1, _, n = _glue(X, saturation(0), tops, "P1", f"P1({C.name})")
    report = StageReport("P1", n, X.counts()["tokens"], P1.counts()["tokens"])
    return P1, x_to_p1, report


def _section_of_collapse(P, Q, to_q, base):
    """Section of a token collapse P -> Q: each token of Q goes back to the
    least member of its class that is a token of the earlier stage base,
    else to the least member.  Q has the simplices of P."""
    simg = [list(range(len(level))) for level in Q._ids]
    timg = [None]
    for m in range(1, P.dim + 1):
        keep = set(base.token_ids(m))
        row = [-1] * len(Q._tok_ids[m])
        # tokens of base first, then any; P's tokens are in id order, so
        # the first one seen in a class is its least such member
        for first in (True, False):
            for t, q in enumerate(to_q._timg[m]):
                if row[q] < 0 and (not first or P._tok_ids[m][t] in keep):
                    row[q] = t
        timg.append(row)
    return map_on_generators(Q, P, simg, timg)


def stage_p2(P1, x_to_p1):
    """Collapse repeated marks; exhibit the retract under the base nerve.

    Returns (P2, map rs -> P2, retraction P1 -> P2, section P2 -> P1,
    report).
    """
    P2, x_to_p2, r, s = _retract(x_to_p1, "P2", P1.name.replace("P1", "P2"))
    report = StageReport("P2", 0, P1.counts()["tokens"], P2.counts()["tokens"])
    return P2, x_to_p2, r, s, report


def stage_p3(P2, info):
    """Glue thinness extensions until every invertible triangle is marked.

    info is the NerveInfo of the rs nerve under P2.  Returns (P3,
    map P2 -> P3, report).
    """
    C = info.C
    inv = _invertible_nonidentity(C)
    tops = []
    for alpha in sorted(inv):
        tgt = C.two_cells[alpha].tgt
        for (g2, g1), res in sorted(C.comp1.items()):
            if res != tgt or C.one_cells[g2].identity:
                continue
            z = C.one_cells[g2].tgt
            idz = C.identity_of(z)
            id2 = C.identity2_of
            tri = {(1, 2, 3): (g2, idz, id2(g2)), (0, 2, 3): (tgt, idz, alpha),
                   (0, 1, 3): (g1, g2, alpha), (0, 1, 2): (g1, g2, id2(tgt))}
            tops.append(_simplex(P2, info, "P3", tri.get, (0, 1, 2, 3)))
    P3, p2_to_p3, _, n = _glue(P2, thinness(2, 3), tops, "P3",
                               P2.name.replace("P2", "P3"))
    report = StageReport("P3", n, P2.counts()["tokens"], P3.counts()["tokens"])
    return P3, p2_to_p3, report


def stage_p4_and_retract(P3, info):
    """Glue saturation extensions for every completion, then identify marks.

    info is the NerveInfo of the rs nerve under P3.  Returns (Q, map P3 -> Q,
    P4, map P3 -> P4, quotient P4 -> Q, section Q -> P4, report).  Q carries
    the natural-nerve token labels.
    """
    C, inv = info.C, twocat.invertible_2cells(info.C)
    completions = [ae for f in sorted(C.one_cells)
                   for ae in twocat.adjoint_equivalence_completions(C, f)]
    tops = []
    for ae in completions:
        f, g, eta, eps = ae.f, ae.g, ae.eta, ae.eps
        x = C.one_cells[f].src
        y = C.one_cells[f].tgt
        id2 = C.identity2_of
        tri = {(1, 2, 3): (g, f, inv.get(eps)), (0, 1, 2): (f, g, eta),
               (0, 2, 3): (C.identity_of(x), f, id2(f)),
               (0, 1, 3): (f, C.identity_of(y), id2(f))}
        tops.append(_simplex(P3, info, "P4", tri.get, (0, 1, 2, 3)))
    P4, p3_to_p4, b_maps, n = _glue(P3, saturation(-1), tops, "P4",
                                    P3.name.replace("P3", "P4"))

    # classify the level-1 tokens of P4 by completion
    cls = {}
    for m in range(2, P4.dim + 1):
        for t in P4.token_ids(m):
            cls[(m, t)] = f"t|{P4.under_of(m, t)}"
    for t in P3.token_ids(1):
        idc = P3.under_of(1, t)
        if not C.one_cells[idc].identity:
            raise StageError("P3 marks a non-identity 1-simplex")
        cls[(1, t)] = unit_token(C, idc)
    known = set(completions)
    for ae, bmap in zip(completions, b_maps):
        transpose = twocat.transpose_completion(C, ae)
        if transpose not in known:
            raise StageError(f"transpose of {ae} is not a completion")
        for edge, owner, key in (("01", ae.f, ae), ("23", ae.f, ae),
                                 ("03", ae.f, ae), ("12", ae.g, transpose)):
            t = bmap.apply_token(1, f"t|{edge}")
            if (1, t) in cls and cls[(1, t)] != completion_token(owner, key):
                raise StageError("conflicting completion classes")
            cls[(1, t)] = completion_token(owner, key)

    Q, p3_to_q, q, s = _retract(p3_to_p4, "P4", P4.name.replace("P4", "Q"),
                                labels=cls)
    report = StageReport("P4", n, P3.counts()["tokens"],
                         Q.counts()["tokens"],
                         notes={"p4_tokens": P4.counts()["tokens"]})
    return Q, p3_to_q, P4, p3_to_p4, q, s, report


def _check_characterization(P, info, stage, expected):
    """Raise unless each triangle of P carries expected(v, alpha) tokens,
    where v is its 0th edge and alpha its 2-cell."""
    for sid, (u, v, alpha) in info.two_data.items():
        n, want = len(P.tokens_over(2, sid)), expected(v, alpha)
        if n != want:
            raise StageError(
                f"{stage} marking off at {sid}: got {n}, expected {want}")


def _check_p3_characterization(P3, info):
    """P3 marks every invertible triangle once and nothing else."""
    inv = twocat.invertible_2cells(info.C)
    _check_characterization(P3, info, "P3", lambda v, alpha: int(alpha in inv))


def verify_factorization(C, N=5):
    """Replay P1-P4 once on the rs nerve of C and compare the result with the
    natural nerve on the nose.

    Returns (P1, P2, P3, P4, Q, summary); raises StageError on a mismatch.
    """
    X, info = nerves.nerve_with_info(C, N, "rs")
    P1, x_to_p1, rep1 = stage_p1(X, info)
    P2, x_to_p2, r12, s21, rep2 = stage_p2(P1, x_to_p1)
    P3, p2_to_p3, rep3 = stage_p3(P2, info)
    inv = twocat.invertible_2cells(C)
    _check_characterization(P2, info, "P2", lambda v, alpha: int(
        C.two_cells[alpha].identity or
        (alpha in inv and C.one_cells[v].identity)))
    _check_p3_characterization(P3, info)
    Q, p3_to_q, P4, p3_to_p4, q, s, rep4 = stage_p4_and_retract(P3, info)
    for stage_map in (x_to_p1, x_to_p2, p2_to_p3, p3_to_p4, p3_to_q):
        if not stage_map.is_mono():
            raise StageError("stage map is not a monomorphism")
    nat = nerves.natural_nerve(C, N)
    if not Q.same_as(nat):
        raise StageError("final object differs from the natural nerve")
    composite = p3_to_q.compose(p2_to_p3).compose(x_to_p2)
    if not composite.equals(nerves.rs_to_natural(X, nat)):
        raise StageError("composite differs from the canonical comparison map")
    summary = {
        "category": C.name,
        "dim": N,
        "stages": [
            {"name": r.name, "gluings": r.gluings,
             "tokens_before": r.tokens_before, "tokens_after": r.tokens_after,
             **({"notes": r.notes} if r.notes else {})}
            for r in (rep1, rep2, rep3, rep4)],
        "final_equals_natural_nerve": True,
        "composite_equals_rs_to_natural": True,
    }
    return P1, P2, P3, P4, Q, summary
