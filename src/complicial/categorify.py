"""2-polygraph presentations of categorified marked simplicial sets.

``categorify`` turns a finite truncated set into a presentation by one rule
per generator family, whatever the dimension: vertices give 0-generators,
non-degenerate edges 1-generators and non-degenerate triangles
2-generators.  A free mark, a token that no zeta_i picks, gives a formal
inverse on a triangle and an adjoint-equivalence gadget on an edge.
Tetrahedra give the pasting relations.  Degenerate simplices normalize to
identities and give no generator of their own.

A pasting is a vertical list of whiskered 2-generators; each factor stores
the 1-generator words applied before and after its generator, so pastings
rewrite plain words.  Relations are unordered pairs of parallel pastings.
"""

from __future__ import annotations

from . import nerves, twocat
from .record import OrderedRecord, Record
from .twocat import InvalidInput


class CounitRelationError(Exception):
    """A transcription relation fails inside the target 2-category."""


class Word(OrderedRecord):
    __slots__ = ("src", "tgt", "gens")
    _defaults = ((),)


class PastingFactor(OrderedRecord):
    __slots__ = ("pre", "gen", "post")


class Pasting(OrderedRecord):
    __slots__ = ("src", "factors")  # a Word; PastingFactors
    _defaults = ((),)


class TwoPolygraph(Record):
    __slots__ = ("zero_gens",
                 "one_gens",    # id -> (src, tgt)
                 "two_gens",    # id -> (Word, Word)
                 "relations")   # of (Pasting, Pasting), each pair sorted

    def word(self, src, gens):
        tgt = src
        for g in gens:
            s, t = self.one_gens[g]
            if s != tgt:
                raise InvalidInput(f"word not composable at {g}")
            tgt = t
        return Word(src, tgt, tuple(gens))

    def apply_factor(self, word, factor):
        src, tgt = self.two_gens[factor.gen]
        if word.gens != factor.pre + src.gens + factor.post:
            raise InvalidInput(
                f"factor {factor.gen} does not apply to {word.gens}")
        return self.word(word.src, factor.pre + tgt.gens + factor.post)

    def apply_pasting(self, pasting):
        w = pasting.src
        for f in pasting.factors:
            w = self.apply_factor(w, f)
        return w

    def validate(self):
        errs = []
        for g, (s, t) in self.one_gens.items():
            if s not in self.zero_gens or t not in self.zero_gens:
                errs.append(f"1-generator {g} has unknown endpoints")
        for g, (src, tgt) in self.two_gens.items():
            try:
                self.word(src.src, src.gens)
                self.word(tgt.src, tgt.gens)
            except InvalidInput as exc:
                errs.append(f"2-generator {g}: {exc}")
                continue
            if (src.src, src.tgt) != (tgt.src, tgt.tgt):
                errs.append(f"2-generator {g} has non-parallel boundary")
        for k, (p1, p2) in enumerate(self.relations):
            try:
                t1 = self.apply_pasting(p1)
                t2 = self.apply_pasting(p2)
            except InvalidInput as exc:
                errs.append(f"relation {k}: {exc}")
                continue
            if p1.src != p2.src or t1 != t2:
                errs.append(f"relation {k} relates non-parallel pastings")
        return errs

    def counts(self):
        return {"zero": len(self.zero_gens), "one": len(self.one_gens),
                "two": len(self.two_gens), "relations": len(self.relations)}

    def to_json_dict(self):
        def pasting_doc(p):
            return {"src": [p.src.src, p.src.tgt, list(p.src.gens)],
                    "factors": [[list(f.pre), f.gen, list(f.post)]
                                for f in p.factors]}
        return {
            "zero_gens": list(self.zero_gens),
            "one_gens": [[g, s, t] for g, (s, t) in sorted(self.one_gens.items())],
            "two_gens": [[g, [src.src, src.tgt, list(src.gens)],
                          [tgt.src, tgt.tgt, list(tgt.gens)]]
                         for g, (src, tgt) in sorted(self.two_gens.items())],
            "relations": [[pasting_doc(p1), pasting_doc(p2)]
                          for p1, p2 in self.relations],
        }


def _pair(p1, p2):
    return (p1, p2) if p1 <= p2 else (p2, p1)


def _alone(gen):
    """The factors of the pasting that is the 2-generator gen, unwhiskered."""
    return (PastingFactor((), gen, ()),)


def _inverse_relations(src, tgt, gen, inv):
    """The two relations that make the 2-generator inv: tgt => src inverse
    to the pasting src => tgt whose factors are gen."""
    return [_pair(Pasting(src, gen + _alone(inv)), Pasting(src)),
            _pair(Pasting(tgt, _alone(inv) + gen), Pasting(tgt))]


def categorify(X):
    """Presentation of the categorification of a finite truncated set."""

    def edge_word(e):
        if X.is_degenerate(1, e):
            v = X.face_of(1, 1, e)
            return Word(v, v, ())
        return Word(X.face_of(1, 1, e), X.face_of(1, 0, e), (f"E|{e}",))

    def tri_boundary(x):
        src = edge_word(X.face_of(2, 1, x))
        left = edge_word(X.face_of(2, 2, x))
        right = edge_word(X.face_of(2, 0, x))
        return src, Word(left.src, right.tgt, left.gens + right.gens)

    def tri_factors(x, pre, post):
        if X.is_degenerate(2, x):
            return ()
        return (PastingFactor(pre, f"A|{x}", post),)

    one_gens = {f"E|{e}": (X.face_of(1, 1, e), X.face_of(1, 0, e))
                for e in X.nondegenerate_ids(1)}
    two_gens = {f"A|{x}": tri_boundary(x) for x in X.nondegenerate_ids(2)}
    relations = []

    # a free mark on a triangle inverts it; on a degenerate triangle, an
    # identity, the two inverse relations coincide
    for t in X.free_token_ids(2):
        x = X.under_of(2, t)
        src, tgt = tri_boundary(x)
        two_gens[f"Ainv|{t}"] = (tgt, src)
        relations += _inverse_relations(src, tgt, tri_factors(x, (), ()),
                                        f"Ainv|{t}")

    # a free mark on an edge f: x -> y gives an adjoint equivalence
    for t in X.free_token_ids(1):
        we = edge_word(X.under_of(1, t))
        x, y = we.src, we.tgt
        g = f"G|{t}"
        one_gens[g] = (y, x)
        idx_w = Word(x, x, ())
        idy_w = Word(y, y, ())
        gf = Word(x, x, we.gens + (g,))
        fg = Word(y, y, (g,) + we.gens)
        eta, eta_i = f"Eta|{t}", f"EtaInv|{t}"
        eps, eps_i = f"Eps|{t}", f"EpsInv|{t}"
        two_gens[eta] = (idx_w, gf)
        two_gens[eta_i] = (gf, idx_w)
        two_gens[eps] = (fg, idy_w)
        two_gens[eps_i] = (idy_w, fg)
        relations += _inverse_relations(idx_w, gf, _alone(eta), eta_i)
        relations += _inverse_relations(fg, idy_w, _alone(eps), eps_i)
        # f*eta = (eps*f)^-1 and g*eps = (eta*g)^-1
        f_eta = Pasting(we, (PastingFactor((), eta, we.gens),))
        epsinv_f = Pasting(we, (PastingFactor(we.gens, eps_i, ()),))
        relations.append(_pair(f_eta, epsinv_f))
        gfg = Word(y, y, (g,) + we.gens + (g,))
        g_eps = Pasting(gfg, (PastingFactor((), eps, (g,)),))
        etainv_g = Pasting(gfg, (PastingFactor((g,), eta_i, ()),))
        relations.append(_pair(g_eps, etainv_g))

    for x in X.nondegenerate_ids(3):
        d0 = X.face_of(3, 0, x)
        d1 = X.face_of(3, 1, x)
        d2 = X.face_of(3, 2, x)
        d3 = X.face_of(3, 3, x)
        w01 = edge_word(X.face_of(2, 2, d3))
        w23 = edge_word(X.face_of(2, 0, d0))
        src = edge_word(X.face_of(2, 1, d2))
        lhs = Pasting(src, tri_factors(d2, (), ()) +
                      tri_factors(d0, w01.gens, ()))
        rhs = Pasting(src, tri_factors(d1, (), ()) +
                      tri_factors(d3, (), w23.gens))
        if lhs != rhs:
            relations.append(_pair(lhs, rhs))

    P = TwoPolygraph(tuple(X.simplex_ids(0)), one_gens, two_gens,
                     tuple(sorted(set(relations))))
    errs = P.validate()
    if errs:
        raise InvalidInput("categorify produced an ill-typed presentation: "
                           + "; ".join(errs[:3]))
    return P


# -- the counit of the nerve-categorification adjunction ----------------------

class CounitAssignment(Record):
    # nerve: the natural nerve that polygraph presents
    __slots__ = ("polygraph", "on_one", "on_two", "nerve", "info")


def _eval_word(C, on_one, w):
    return C.compose_word(w.src, [on_one[g] for g in w.gens])


def _eval_pasting(C, on_one, on_two, p):
    acc = C.identity2_of(_eval_word(C, on_one, p.src))
    obj = p.src.src
    for f in p.factors:
        pre = C.compose_word(obj, [on_one[g] for g in f.pre])
        cell = C.wr(on_two[f.gen], pre)
        post = C.compose_word(C.tgt_obj(cell), [on_one[g] for g in f.post])
        acc = C.vert(C.wl(post, cell), acc)
    return acc


def counit_assignment(C, N=4):
    """The generator assignment of the counit on categorify(natural nerve).

    Every relation of the presentation is evaluated inside C; a failing
    relation raises, since it would falsify the transcription.  N >= 3, so
    that the tetrahedron pasting relations are part of the presentation.
    """
    if N < 3:
        raise InvalidInput("counit check needs dimension at least 3")
    X, info = nerves.nerve_with_info(C, N, "natural")
    P = categorify(X)
    inv = twocat.invertible_2cells(C)
    by_token = {nerves.completion_token(f, ae): ae for f in sorted(C.one_cells)
                for ae in twocat.adjoint_equivalence_completions(C, f)}
    on_one = {}
    on_two = {}
    for g in P.one_gens:
        kind, rest = g.split("|", 1)
        on_one[g] = rest if kind == "E" else by_token[rest].g
    for g in P.two_gens:
        kind, rest = g.split("|", 1)
        if kind == "A":
            on_two[g] = info.witness(rest)
        elif kind == "Ainv":
            on_two[g] = inv[info.witness(X.under_of(2, rest))]
        else:
            ae = by_token[rest]
            on_two[g] = {"Eta": ae.eta, "EtaInv": inv[ae.eta],
                         "Eps": ae.eps, "EpsInv": inv[ae.eps]}[kind]
    failures = []
    for k, (p1, p2) in enumerate(P.relations):
        try:
            v1 = _eval_pasting(C, on_one, on_two, p1)
            v2 = _eval_pasting(C, on_one, on_two, p2)
        except KeyError as exc:
            failures.append((k, f"ill-typed in target: {exc}"))
            continue
        if v1 != v2:
            failures.append((k, f"{v1} != {v2}"))
    if failures:
        raise CounitRelationError(
            f"{len(failures)} relation(s) fail in {C.name}: {failures[:3]}")
    return CounitAssignment(P, on_one, on_two, X, info)


class SectionResult(Record):
    __slots__ = ("ok", "mismatches")

    def __bool__(self):
        return self.ok


def section_check(assignment, x, y):
    """Check that the counit retracts the hom-category embedding at (x, y).

    ``assignment`` is ``counit_assignment(C, N)``; C and the nerve are read
    off it.  The embedding sends a 1-cell to its generator word and a
    2-cell phi: a => b to the triangle generator over (id_x, b; phi);
    applying the counit assignment must give back exactly the cells of C.
    """
    X, info = assignment.nerve, assignment.info
    C = info.C
    on_one, on_two = assignment.on_one, assignment.on_two
    mismatches = []
    idx = C.identity_of(x)

    def embed_word(f):
        return Word(x, x, ()) if C.one_cells[f].identity \
            else Word(x, y, (f"E|{f}",))

    for f in C.hom(x, y):
        got = _eval_word(C, on_one, embed_word(f))
        if got != f:
            mismatches.append(("one", f, got))
        for b in C.hom(x, y):
            for phi in C.two_cells_between(f, b):
                sid = info.triangle(idx, b, phi)
                if X.is_degenerate(2, sid):
                    got = C.identity2_of(f)
                else:
                    got = _eval_pasting(
                        C, on_one, on_two,
                        Pasting(embed_word(f),
                                (PastingFactor((), f"A|{sid}", ()),)))
                if got != phi:
                    mismatches.append(("two", phi, got))
    return SectionResult(not mismatches, mismatches)
