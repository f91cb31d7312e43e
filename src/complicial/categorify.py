"""2-polygraph presentations of categorified marked simplicial sets.

``categorify`` turns a finite truncated set into a presentation: vertices
give 0-generators, non-degenerate edges give 1-generators, triangles give
2-generators (with formal inverses for marked triangles), marked edges give
an adjoint-equivalence gadget each, and tetrahedra give the pasting
relations.  Degenerate simplices normalize to identities and contribute
nothing.

A pasting is a vertical list of whiskered 2-generators; each factor stores
the 1-generator words applied before and after its generator, so pastings
rewrite plain words.  Relations are unordered pairs of parallel pastings.

``evaluate_presentation`` builds the finite 2-category presented by a small
enough presentation: it refuses cyclic 1-generator graphs, closes the
pasting cells under composition with interchange-canonical normal forms
(cancelling recognizable formal-inverse pairs), and quotients by the
remaining relations through a congruence closure.
"""

from __future__ import annotations

from . import nerves, twocat
from .record import OrderedRecord, Record
from .twocat import FiniteTwoCategory, InvalidInput, OneCell, TwoCell


class EvaluationRefused(RuntimeError):
    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


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


def _inverse_relations(src, tgt, gen, inv_gen):
    around1 = Pasting(src, (PastingFactor((), gen, ()),
                            PastingFactor((), inv_gen, ())))
    around2 = Pasting(tgt, (PastingFactor((), inv_gen, ()),
                            PastingFactor((), gen, ())))
    return [_pair(around1, Pasting(src)), _pair(around2, Pasting(tgt))]


def categorify(X):
    """Presentation of the categorification of a finite truncated set."""
    zero = tuple(X.simplex_ids(0))
    one_gens = {}
    two_gens = {}
    relations = []

    def edge_word(e):
        if X.is_degenerate(1, e):
            v = X.face_of(1, 1, e)
            return Word(v, v, ())
        return Word(X.face_of(1, 1, e), X.face_of(1, 0, e), (f"E|{e}",))

    if X.dim >= 1:
        for e in X.nondegenerate_ids(1):
            one_gens[f"E|{e}"] = (X.face_of(1, 1, e), X.face_of(1, 0, e))

    def tri_boundary(x):
        src = edge_word(X.face_of(2, 1, x))
        left = edge_word(X.face_of(2, 2, x))
        right = edge_word(X.face_of(2, 0, x))
        return src, Word(left.src, right.tgt, left.gens + right.gens)

    def tri_factors(x, pre, post):
        if X.is_degenerate(2, x):
            return ()
        return (PastingFactor(pre, f"A|{x}", post),)

    if X.dim >= 2:
        for x in X.nondegenerate_ids(2):
            two_gens[f"A|{x}"] = tri_boundary(x)
        zwit = X._zeta_wit[2]
        for idx, w in enumerate(zwit):
            if w is not None:
                continue
            t = X._tok_ids[2][idx]
            x = X.under_of(2, t)
            src, tgt = tri_boundary(x)
            inv_id = f"Ainv|{t}"
            two_gens[inv_id] = (tgt, src)
            if X.is_degenerate(2, x):
                p = Pasting(src, (PastingFactor((), inv_id, ()),))
                relations.append(_pair(p, Pasting(src)))
            else:
                gen_f = PastingFactor((), f"A|{x}", ())
                inv_f = PastingFactor((), inv_id, ())
                relations.append(_pair(Pasting(src, (gen_f, inv_f)),
                                       Pasting(src)))
                relations.append(_pair(Pasting(tgt, (inv_f, gen_f)),
                                       Pasting(tgt)))

    if X.dim >= 1:
        zwit = X._zeta_wit[1]
        for idx, w in enumerate(zwit):
            if w is not None:
                continue
            t = X._tok_ids[1][idx]
            e = X.under_of(1, t)
            we = edge_word(e)
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
            relations.extend(_inverse_relations(idx_w, gf, eta, eta_i))
            relations.extend(_inverse_relations(fg, idy_w, eps, eps_i))
            # f*eta = (eps*f)^-1 and g*eps = (eta*g)^-1
            f_eta = Pasting(we, (PastingFactor((), eta, we.gens),))
            epsinv_f = Pasting(we, (PastingFactor(we.gens, eps_i, ()),))
            relations.append(_pair(f_eta, epsinv_f))
            gfg = Word(y, y, (g,) + we.gens + (g,))
            g_eps = Pasting(gfg, (PastingFactor((), eps, (g,)),))
            etainv_g = Pasting(gfg, (PastingFactor((g,), eta_i, ()),))
            relations.append(_pair(g_eps, etainv_g))

    if X.dim >= 3:
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

    P = TwoPolygraph(zero, one_gens, two_gens, tuple(sorted(set(relations))))
    errs = P.validate()
    if errs:
        raise InvalidInput("categorify produced an ill-typed presentation: "
                           + "; ".join(errs[:3]))
    return P


# -- evaluation ---------------------------------------------------------------

def _one_cell_words(P, limit):
    """All composable 1-generator words; refuses cyclic generator graphs."""
    outgoing = {}
    for g, (s, t) in sorted(P.one_gens.items()):
        outgoing.setdefault(s, []).append(g)
    color = {}

    def visit(v):
        color[v] = 1
        for g in outgoing.get(v, ()):
            t = P.one_gens[g][1]
            if color.get(t) == 1:
                raise EvaluationRefused(
                    f"1-generator graph has a cycle through {t}")
            if color.get(t) is None:
                visit(t)
        color[v] = 2

    for v in P.zero_gens:
        if color.get(v) is None:
            visit(v)
    words = [Word(v, v, ()) for v in P.zero_gens]
    frontier = list(words)
    while frontier:
        w = frontier.pop()
        for g in outgoing.get(w.tgt, ()):
            nxt = Word(w.src, P.one_gens[g][1], w.gens + (g,))
            words.append(nxt)
            frontier.append(nxt)
            if len(words) > limit:
                raise EvaluationRefused("too many 1-cell words")
    return sorted(set(words))


def _detect_inverse_pairs(P):
    """Formal inverse pairs recognizable from bare cancellation relations."""
    inv = {}
    consumed = set()
    for rel in P.relations:
        lens = sorted(len(p.factors) for p in rel)
        if lens != [0, 2]:
            continue
        long = rel[0] if len(rel[0].factors) == 2 else rel[1]
        f1, f2 = long.factors
        if f1.pre or f1.post or f2.pre or f2.post:
            continue
        inv[f1.gen] = f2.gen
        inv[f2.gen] = f1.gen
        consumed.add(rel)
    return inv, consumed


def _normalize(P, inv, factors):
    """Interchange-canonical, inverse-cancelled factor sequence.

    Adjacent factors acting on disjoint word segments commute; the canonical
    form applies the leftmost segment first.  A factor followed by its
    formal inverse on the same segment cancels.
    """
    fs = list(factors)
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(fs):
            a, b = fs[i], fs[i + 1]
            sa, ta = P.two_gens[a.gen]
            sb, tb = P.two_gens[b.gen]
            p1, s1, t1 = len(a.pre), len(sa.gens), len(ta.gens)
            p2, s2 = len(b.pre), len(sb.gens)
            if inv.get(a.gen) == b.gen and a.pre == b.pre and a.post == b.post:
                del fs[i:i + 2]
                changed = True
                i = max(i - 1, 0)
                continue
            if p2 + s2 <= p1 and (p2 < p1 or s2 > 0):
                new_b = PastingFactor(a.pre[:p2], b.gen,
                                      a.pre[p2 + s2:] + sa.gens + a.post)
                new_a = PastingFactor(a.pre[:p2] + tb.gens + a.pre[p2 + s2:],
                                      a.gen, a.post)
                fs[i], fs[i + 1] = new_b, new_a
                changed = True
                i = max(i - 1, 0)
                continue
            if p2 >= p1 + t1 and p2 - t1 + s1 < p1:
                off = p2 - p1 - t1
                new_b = PastingFactor(a.pre + sa.gens + a.post[:off],
                                      b.gen, a.post[off + s2:])
                new_a = PastingFactor(a.pre, a.gen,
                                      a.post[:off] + tb.gens
                                      + a.post[off + s2:])
                fs[i], fs[i + 1] = new_b, new_a
                changed = True
                i = max(i - 1, 0)
                continue
            i += 1
    return tuple(fs)


def _closure_cells(P, words, inv, budget):
    """All pasting cells, keyed (source word, canonical factors) -> target."""
    cells = {}
    frontier = []
    for w in words:
        cells[(w, ())] = w
        frontier.append((w, ()))
    word_set = {(w.src, w.gens): w for w in words}
    gens = sorted(P.two_gens.items())
    while frontier:
        src, fs = frontier.pop()
        tgt = cells[(src, fs)]
        for gid, (gsrc, gtgt) in gens:
            glen = len(gsrc.gens)
            for p in range(len(tgt.gens) - glen + 1):
                if tgt.gens[p:p + glen] != gsrc.gens:
                    continue
                pre, post = tgt.gens[:p], tgt.gens[p + glen:]
                if glen == 0:
                    obj = src.src
                    for g1 in pre:
                        obj = P.one_gens[g1][1]
                    if obj != gsrc.src:
                        continue
                nf = _normalize(P, inv, fs + (PastingFactor(pre, gid, post),))
                key = (src, nf)
                if key in cells:
                    continue
                cells[key] = word_set[(tgt.src, pre + gtgt.gens + post)]
                frontier.append(key)
                if len(cells) > budget:
                    raise EvaluationRefused(
                        "2-cell closure exceeded the budget")
    return cells


class _UnionFind(dict):
    def find(self, a):
        while self[a] != a:
            self[a] = self[self[a]]
            a = self[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self[rb] = ra
        return True


def evaluate_presentation(P, budget=20000):
    """The finite 2-category presented by P, when small enough to build.

    Returns (FiniteTwoCategory, word_to_cell, cell_class): the 1-cell id of
    each generator word, and the 2-cell id of each closure cell.
    """
    errs = P.validate()
    if errs:
        raise InvalidInput("; ".join(errs))
    words = _one_cell_words(P, limit=budget)
    inv, consumed = _detect_inverse_pairs(P)
    cells = _closure_cells(P, words, inv, budget)

    def wid(w):
        return f"id|{w.src}" if not w.gens else "w|" + ".".join(w.gens)

    one = [OneCell(wid(w), w.src, w.tgt, not w.gens) for w in words]
    comp1 = {}
    for w1 in words:
        for w2 in words:
            if w1.tgt == w2.src:
                comp1[(wid(w2), wid(w1))] = wid(
                    Word(w1.src, w2.tgt, w1.gens + w2.gens))

    def vcomp_cells(c2, c1):
        return (c1[0], _normalize(P, inv, c1[1] + c2[1]))

    def whisk_l(w, c):
        nfs = tuple(PastingFactor(f.pre, f.gen, f.post + w.gens)
                    for f in c[1])
        nsrc = Word(c[0].src, w.tgt, c[0].gens + w.gens)
        return (nsrc, _normalize(P, inv, nfs))

    def whisk_r(c, w):
        nfs = tuple(PastingFactor(w.gens + f.pre, f.gen, f.post)
                    for f in c[1])
        nsrc = Word(w.src, c[0].tgt, w.gens + c[0].gens)
        return (nsrc, _normalize(P, inv, nfs))

    uf = _UnionFind({c: c for c in cells})
    pending = []

    def merge(a, b):
        if uf.union(a, b):
            pending.append((a, b))

    for rel in P.relations:
        if rel in consumed:
            continue
        a = (rel[0].src, _normalize(P, inv, rel[0].factors))
        b = (rel[1].src, _normalize(P, inv, rel[1].factors))
        if a not in cells or b not in cells:
            raise EvaluationRefused("relation outside the closed cell set")
        merge(a, b)

    cell_list = sorted(cells)
    while pending:
        a, b = pending.pop()
        for c in cell_list:
            if cells[a] == c[0]:
                merge(vcomp_cells(c, a), vcomp_cells(c, b))
            if cells[c] == a[0]:
                merge(vcomp_cells(a, c), vcomp_cells(b, c))
        for w in words:
            if w.src == cells[a].tgt:
                merge(whisk_l(w, a), whisk_l(w, b))
            if w.tgt == a[0].src:
                merge(whisk_r(a, w), whisk_r(b, w))

    names = {}
    for k, r in enumerate(sorted({uf.find(c) for c in cell_list})):
        names[r] = f"p|{k}"
    cid = {c: names[uf.find(c)] for c in cell_list}
    identity_class = {cid[(w, ())]: w for w in words}
    two = []
    for r in sorted(names):
        name = names[r]
        if name in identity_class:
            w0 = identity_class[name]
            two.append(TwoCell(name, wid(w0), wid(w0), True))
        else:
            two.append(TwoCell(name, wid(r[0]), wid(cells[r]), False))

    def fill(table, key, value, what):
        if table.setdefault(key, value) != value:
            raise EvaluationRefused(
                f"{what} is not well-defined on classes; "
                "presentation out of scope")

    vcomp, wl, wr = {}, {}, {}
    for c1 in cell_list:
        for c2 in cell_list:
            if cells[c1] == c2[0]:
                fill(vcomp, (cid[c2], cid[c1]), cid[vcomp_cells(c2, c1)],
                     "vertical composition")
    for c in cell_list:
        for w in words:
            if w.src == cells[c].tgt:
                fill(wl, (wid(w), cid[c]), cid[whisk_l(w, c)], "whiskering")
            if w.tgt == c[0].src:
                fill(wr, (cid[c], wid(w)), cid[whisk_r(c, w)], "whiskering")
    C = FiniteTwoCategory(P.zero_gens, one, comp1, two, vcomp, wl, wr,
                          name="eval")
    word_to_cell = {w: wid(w) for w in words}
    return C, word_to_cell, cid


def evaluate_free(P, budget=20000):
    """Free finite 2-category on a relation-free presentation, or refusal."""
    if P.relations:
        raise EvaluationRefused("presentation has relations; not free")
    C, _, _ = evaluate_presentation(P, budget=budget)
    return C


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
    by_token = {}
    for f, aes in info.completions.items():
        for ae in aes:
            by_token[nerves.completion_token(f, ae)] = ae
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


def section_check(C, x, y, N=4, assignment=None):
    """Check that the counit retracts the hom-category embedding at (x, y).

    The embedding sends a 1-cell to its generator word and a 2-cell
    phi: a => b to the triangle generator over (id_x, b; phi); applying the
    counit assignment must give back exactly the cells of C.
    """
    if assignment is None:
        assignment = counit_assignment(C, N)
    X, info = assignment.nerve, assignment.info
    if info.C is not C or info.dim != N:
        raise InvalidInput(f"counit assignment built for {info.C.name} at "
                           f"N = {info.dim}, not for {C.name} at N = {N}")
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
