"""Finite strict 2-categories: validation, cell search, and a standard catalog.

Cells live in explicit finite tables.  Composition of 1-cells, vertical
composition of 2-cells and the two whiskerings are stored; horizontal
composition is determined by them through the interchange law, which
``validate`` checks.

Whiskering conventions (fixed once, used everywhere):

* ``whisker_l[(c, alpha)]`` is ``c * alpha``: for ``alpha: a => b`` in
  ``hom(x, y)`` and ``c: y -> z``, the result is ``c.a => c.b``.
* ``whisker_r[(alpha, c)]`` is ``alpha * c``: for ``alpha: a => b`` in
  ``hom(y, z)`` and ``c: x -> y``, the result is ``a.c => b.c``.

With these conventions the triangle identities of an adjunction
``(f, g, eta, eps)`` read ``(eps*f) . (f*eta) = id_f`` and
``(g*eps) . (eta*g) = id_g``.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import attrgetter

from .record import OrderedRecord, Record


class InvalidInput(ValueError):
    """Malformed constructor data or JSON document."""


def read_document(kind, doc, read):
    """``read(doc)``; InvalidInput unless ``doc`` is a JSON object.
    ``read``'s own InvalidInput passes unchanged, and any KeyError,
    TypeError or ValueError it raises is wrapped once as a bad document."""
    if type(doc) is not dict:
        raise InvalidInput(f"{kind} document is not a JSON object")
    try:
        return read(doc)
    except InvalidInput:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"bad {kind} document: {exc}") from exc


def typed(v, kind, what):
    """``v`` if its type is exactly ``kind`` (str, list or dict); else
    InvalidInput naming ``what`` and ``v``."""
    if type(v) is not kind:
        name = {str: "a string", list: "a list", dict: "an object"}[kind]
        raise InvalidInput(f"{what} {v!r} is not {name}")
    return v


class OneCell(OrderedRecord):
    __slots__ = ("id", "src", "tgt", "identity")
    _defaults = (False,)


class TwoCell(OrderedRecord):
    __slots__ = ("id", "src", "tgt", "identity")  # src, tgt: parallel 1-cells
    _defaults = (False,)


class AdjointEquivalence(OrderedRecord):
    """A completion (f, g, eta, eps) with invertible unit and counit."""

    __slots__ = ("f", "g", "eta", "eps")


class FiniteTwoCategory:
    def __init__(self, objects, one_cells, comp1, two_cells, vcomp,
                 whisker_l, whisker_r, name=""):
        self.name = name
        self.objects = tuple(sorted(objects))
        self.one_cells = {c.id: c for c in one_cells}
        self.two_cells = {c.id: c for c in two_cells}
        self.comp1 = dict(comp1)
        self.vcomp = dict(vcomp)
        self.whisker_l = dict(whisker_l)
        self.whisker_r = dict(whisker_r)
        self._completions = {}  # 1-cell -> its completions, filled on demand
        if len(set(self.objects)) != len(self.objects):
            raise InvalidInput("duplicate object ids")
        if len(self.one_cells) != len(list(one_cells)):
            raise InvalidInput("duplicate 1-cell ids")
        if len(self.two_cells) != len(list(two_cells)):
            raise InvalidInput("duplicate 2-cell ids")

    # -- basic accessors ---------------------------------------------------

    @cached_property
    def _identity_of(self):
        return {c.src: c.id for c in self.one_cells.values() if c.identity}

    @cached_property
    def _identity2_of(self):
        return {c.src: c.id for c in self.two_cells.values() if c.identity}

    def identity_of(self, obj):
        return self._identity_of[obj]

    def identity2_of(self, one_cell):
        return self._identity2_of[one_cell]

    def src_obj(self, two_cell):
        return self.one_cells[self.two_cells[two_cell].src].src

    def tgt_obj(self, two_cell):
        return self.one_cells[self.two_cells[two_cell].src].tgt

    def comp(self, g, f):
        """g after f."""
        return self.comp1[(g, f)]

    def vert(self, beta, alpha):
        """beta after alpha, vertically."""
        return self.vcomp[(beta, alpha)]

    def wl(self, c, alpha):
        """c * alpha, whiskering on the left 1-cell side."""
        return self.whisker_l[(c, alpha)]

    def wr(self, alpha, c):
        """alpha * c, whiskering on the right 1-cell side."""
        return self.whisker_r[(alpha, c)]

    @cached_property
    def _hom(self):
        return _group(self.one_cells)

    def hom(self, x, y):
        return list(self._hom.get((x, y), []))

    @cached_property
    def _two_between(self):
        return _group(self.two_cells)

    def two_cells_between(self, a, b):
        return list(self._two_between.get((a, b), []))

    @cached_property
    def _inverse2(self):
        """2-cell -> its vertical inverse, for the invertible ones."""
        out = {}
        for a in sorted(self.two_cells):
            sa, ta = self.two_cells[a].src, self.two_cells[a].tgt
            for b in self.two_cells_between(ta, sa):
                if self.vert(b, a) == self.identity2_of(sa) and \
                        self.vert(a, b) == self.identity2_of(ta):
                    out[a] = b
                    break
        return out

    def compose_word(self, x, cells):
        """Composite of 1-cells listed in application order, id_x if empty."""
        acc = self.identity_of(x)
        for c in cells:
            acc = self.comp(c, acc)
        return acc

    # -- validation --------------------------------------------------------

    def validate(self):
        """Exhaustive axiom check; returns the list of violations."""
        errs = []
        add = errs.append
        oc, tc = self.one_cells, self.two_cells
        for c in oc.values():
            if c.src not in self.objects or c.tgt not in self.objects:
                add(f"1-cell {c.id}: unknown endpoint")
            if c.identity and c.src != c.tgt:
                add(f"identity 1-cell {c.id} is not an endomorphism")
        errs += _identity_errors(self.objects, oc, "object", "1-cell")
        for c in tc.values():
            if c.src not in oc or c.tgt not in oc:
                add(f"2-cell {c.id}: unknown boundary 1-cell")
                continue
            s, t = oc[c.src], oc[c.tgt]
            if (s.src, s.tgt) != (t.src, t.tgt):
                add(f"2-cell {c.id}: boundary 1-cells not parallel")
            if c.identity and c.src != c.tgt:
                add(f"identity 2-cell {c.id} is not an endo 2-cell")
        errs += _identity_errors(oc, tc, "1-cell", "2-cell")
        for key, table, kinds in (("comp1", self.comp1, (oc, oc, oc)),
                                  ("vcomp", self.vcomp, (tc, tc, tc)),
                                  ("whisker_l", self.whisker_l, (oc, tc, tc)),
                                  ("whisker_r", self.whisker_r, (tc, oc, tc))):
            for (p, q), r in sorted(table.items()):
                if not all(c in k for c, k in zip((p, q, r), kinds)):
                    add(f"{key}[{p},{q}] = {r}: unknown cell")
        if errs:
            return errs  # tables below assume well-typed cells

        # 1-cells by the object they leave or enter, 2-cells by their source
        leaving = _group(oc, attrgetter("src"))
        entering = _group(oc, attrgetter("tgt"))
        above = _group(tc, attrgetter("src"))
        errs += _domain_errors(
            "comp1", self.comp1,
            {(g, f) for f in oc for g in leaving[oc[f].tgt]},
            "composable pair ", "pair ")
        errs += _ends_errors("comp1", self.comp1, oc,
                             lambda g, f: (oc[f].src, oc[g].tgt), "endpoints")
        if errs:
            return errs

        for f in sorted(oc):
            ix = self.identity_of(oc[f].src)
            iy = self.identity_of(oc[f].tgt)
            if self.comp(f, ix) != f:
                add(f"right unit fails at {f}")
            if self.comp(iy, f) != f:
                add(f"left unit fails at {f}")
        for (g, f) in sorted(self.comp1):
            for h in leaving[oc[g].tgt]:
                if self.comp(h, self.comp(g, f)) != \
                        self.comp(self.comp(h, g), f):
                    add(f"comp1 associativity fails at ({h},{g},{f})")

        errs += _domain_errors(
            "vcomp", self.vcomp,
            {(b, a) for a in tc for b in above[tc[a].tgt]},
            "pair ", "pair ")
        errs += _ends_errors("vcomp", self.vcomp, tc,
                             lambda b, a: (tc[a].src, tc[b].tgt))
        errs += _domain_errors(
            "whisker_l", self.whisker_l,
            {(c, a) for a in tc for c in leaving[self.tgt_obj(a)]})
        errs += _domain_errors(
            "whisker_r", self.whisker_r,
            {(a, c) for a in tc for c in entering[self.src_obj(a)]})
        if errs:
            return errs

        errs += _ends_errors("whisker_l", self.whisker_l, tc, lambda c, a: (
            self.comp(c, tc[a].src), self.comp(c, tc[a].tgt)))
        errs += _ends_errors("whisker_r", self.whisker_r, tc, lambda a, c: (
            self.comp(tc[a].src, c), self.comp(tc[a].tgt, c)))
        if errs:
            return errs

        for a in sorted(tc):
            i_s = self.identity2_of(tc[a].src)
            i_t = self.identity2_of(tc[a].tgt)
            if self.vert(a, i_s) != a or self.vert(i_t, a) != a:
                add(f"vertical unit fails at {a}")
        for (b, a) in sorted(self.vcomp):
            for c in above[tc[b].tgt]:
                if self.vert(c, self.vert(b, a)) != \
                        self.vert(self.vert(c, b), a):
                    add(f"vcomp associativity fails at ({c},{b},{a})")

        for (c, a), r in sorted(self.whisker_l.items()):
            if self.one_cells[c].identity and r != a:
                add(f"whisker_l by identity changes {a}")
            if tc[a].identity and r != self.identity2_of(self.comp(c, tc[a].src)):
                add(f"whisker_l[{c},{a}] of identity not identity")
        for (a, c), r in sorted(self.whisker_r.items()):
            if self.one_cells[c].identity and r != a:
                add(f"whisker_r by identity changes {a}")
            if tc[a].identity and r != self.identity2_of(self.comp(tc[a].src, c)):
                add(f"whisker_r[{a},{c}] of identity not identity")
        for (b, a) in sorted(self.vcomp):
            for c in sorted(oc):
                if oc[c].src == self.tgt_obj(a):
                    if self.wl(c, self.vert(b, a)) != \
                            self.vert(self.wl(c, b), self.wl(c, a)):
                        add(f"whisker_l not functorial at ({c},{b},{a})")
                if oc[c].tgt == self.src_obj(a):
                    if self.wr(self.vert(b, a), c) != \
                            self.vert(self.wr(b, c), self.wr(a, c)):
                        add(f"whisker_r not functorial at ({b},{a},{c})")
        for (g, f) in sorted(self.comp1):
            for a in sorted(tc):
                if self.tgt_obj(a) == oc[f].src:
                    if self.wl(self.comp(g, f), a) != self.wl(g, self.wl(f, a)):
                        add(f"iterated whisker_l fails at ({g},{f},{a})")
                if self.src_obj(a) == oc[g].tgt:
                    if self.wr(a, self.comp(g, f)) != self.wr(self.wr(a, g), f):
                        add(f"iterated whisker_r fails at ({a},{g},{f})")
        for a in sorted(tc):
            for c in leaving[self.tgt_obj(a)]:
                for e in entering[self.src_obj(a)]:
                    if self.wr(self.wl(c, a), e) != self.wl(c, self.wr(a, e)):
                        add(f"whisker order mismatch at ({c},{a},{e})")

        from_obj = _group(tc, lambda c: oc[c.src].src)
        for a in sorted(tc):
            for b in from_obj[self.tgt_obj(a)]:
                lhs = self.vert(self.wr(b, tc[a].tgt), self.wl(tc[b].src, a))
                rhs = self.vert(self.wl(tc[b].tgt, a), self.wr(b, tc[a].src))
                if lhs != rhs:
                    add(f"interchange fails at ({b},{a})")
        return errs

    # -- JSON --------------------------------------------------------------

    def to_json_dict(self):
        return {
            "objects": list(self.objects),
            "one_cells": [
                {"id": c.id, "src": c.src, "tgt": c.tgt, "identity": c.identity}
                for _, c in sorted(self.one_cells.items())],
            "comp1": [
                {"g": g, "f": f, "result": r}
                for (g, f), r in sorted(self.comp1.items())],
            "two_cells": [
                {"id": c.id, "src": c.src, "tgt": c.tgt, "identity": c.identity}
                for _, c in sorted(self.two_cells.items())],
            "vcomp": [[b, a, r] for (b, a), r in sorted(self.vcomp.items())],
            "whisker_l": [[c, a, r] for (c, a), r in sorted(self.whisker_l.items())],
            "whisker_r": [[a, c, r] for (a, c), r in sorted(self.whisker_r.items())],
        }

    @classmethod
    def from_json_dict(cls, doc, name=""):
        """Load a document; InvalidInput unless every object, cell id,
        boundary and result is a string, every cell and ``comp1`` entry an
        object, every ``identity`` a JSON bool and every row of
        ``vcomp``/``whisker_l``/``whisker_r`` a triple, and no table gives a
        pair twice."""
        def read(doc):
            objects = [typed(x, str, "object")
                       for x in _list(doc, "objects")]
            one = [OneCell(*_cell(d, "1-cell"))
                   for d in _list(doc, "one_cells")]
            two = [TwoCell(*_cell(d, "2-cell"))
                   for d in _list(doc, "two_cells")]
            entries = (typed(d, dict, "comp1 entry")
                       for d in _list(doc, "comp1"))
            comp1 = _table("comp1", (
                [typed(d[k], str, f"comp1 {k}") for k in ("g", "f", "result")]
                for d in entries))
            vcomp, wl, wr = (_table(key, _triples(doc, key))
                             for key in ("vcomp", "whisker_l", "whisker_r"))
            return objects, one, comp1, two, vcomp, wl, wr
        return cls(*read_document("2-category", doc, read), name=name)


def _group(cells, key=attrgetter("src", "tgt")):
    """{key(cell): the ids of the cells with that key, in id order}."""
    out = {}
    for k in sorted(cells):
        out.setdefault(key(cells[k]), []).append(k)
    return out


def _identity_errors(bases, cells, base, kind):
    """Each base that is not the source of exactly one identity cell."""
    ids = {x: [] for x in bases}
    for c in cells.values():
        if c.identity and c.src in ids:
            ids[c.src].append(c.id)
    return [f"{base} {x}: expected one identity {kind}, got {i}"
            for x, i in ids.items() if len(i) != 1]


def _domain_errors(key, table, pairs, missing="", extra=""):
    """Where ``table`` is not defined on exactly its composable ``pairs``:
    the missing pairs, then the extra ones."""
    return ([f"{key} missing on {missing}{p}"
             for p in sorted(pairs - table.keys())] +
            [f"{key} defined on non-composable {extra}{p}"
             for p in sorted(table.keys() - pairs)])


def _ends_errors(key, table, cells, ends, what="boundary"):
    """The rows ``(p, q) -> r`` of ``table`` whose result ``r`` has other
    ends than ``ends(p, q)``."""
    return [f"{key}[{p},{q}] = {r}: wrong {what}"
            for (p, q), r in sorted(table.items())
            if (cells[r].src, cells[r].tgt) != ends(p, q)]


def _list(doc, key):
    return typed(doc[key], list, f"2-category {key}")


def _cell(d, what):
    """(id, src, tgt, identity) of a cell entry; ``identity`` defaults to
    false."""
    identity = typed(d, dict, what).get("identity", False)
    if type(identity) is not bool:
        raise InvalidInput(f"{what} identity {identity!r} is not a bool")
    return (*(typed(d[k], str, f"{what} {k}") for k in ("id", "src", "tgt")),
            identity)


def _table(key, rows):
    """{(a, b): result} of the [a, b, result] rows of one table;
    InvalidInput on a pair given twice."""
    out = {}
    for a, b, r in rows:
        if (a, b) in out:
            raise InvalidInput(f"{key} gives the pair ({a}, {b}) twice")
        out[(a, b)] = r
    return out


def _triples(doc, key):
    for row in _list(doc, key):
        if type(row) is not list or len(row) != 3:
            raise InvalidInput(f"{key} row {row!r} is not a triple")
        yield tuple(typed(v, str, f"{key} entry") for v in row)


# -- derived cell searches ---------------------------------------------------

def invertible_2cells(C):
    """Map each 2-cell to its vertical inverse where one exists."""
    return dict(C._inverse2)


def adjoint_equivalence_completions(C, f):
    """All (g, eta, eps) completing f to an adjoint equivalence.

    Exhaustive over the finite tables; ordered lexicographically in
    (g, eta, eps) ids.  The search runs once per 1-cell of C.
    """
    if f in C._completions:
        return list(C._completions[f])
    cell = C.one_cells[f]
    x, y = cell.src, cell.tgt
    inv = C._inverse2
    id_f = C.identity2_of(f)
    out = []
    for g in C.hom(y, x):
        gf = C.comp(g, f)
        fg = C.comp(f, g)
        id_g = C.identity2_of(g)
        for eta in C.two_cells_between(C.identity_of(x), gf):
            if eta not in inv:
                continue
            for eps in C.two_cells_between(fg, C.identity_of(y)):
                if eps not in inv:
                    continue
                if C.vert(C.wr(eps, f), C.wl(f, eta)) != id_f:
                    continue
                if C.vert(C.wl(g, eps), C.wr(eta, g)) != id_g:
                    continue
                out.append(AdjointEquivalence(f, g, eta, eps))
    C._completions[f] = sorted(out)
    return list(C._completions[f])


def transpose_completion(C, ae):
    """The completion of g induced by (f, g, eta, eps): (g, f, eps^-1, eta^-1)."""
    return AdjointEquivalence(ae.g, ae.f, C._inverse2[ae.eps],
                              C._inverse2[ae.eta])


# -- finite 1-categories and standard 2-categories ----------------------------

class FiniteCategory(Record):
    """A finite 1-category: arrow table with identities flagged.  ``comp``
    may leave out the composites that the unit laws fix."""

    __slots__ = ("objects", "arrows", "comp")  # OneCells; ((g, f), result)s

    def arrow_map(self):
        return {a.id: a for a in self.arrows}

    def comp_map(self):
        return dict(self.comp)


def chain_category(m):
    """The totally ordered set [m] as a category; m = -1 gives the empty one."""
    n = range(m + 1)
    arrows = tuple(OneCell(f"c{i}{j}", str(i), str(j), i == j)
                   for i in n for j in n[i:])
    comp = {(f"c{j}{k}", f"c{i}{j}"): f"c{i}{k}"
            for i in n for j in n[i + 1:] for k in n[j + 1:]}
    return FiniteCategory(tuple(map(str, n)), arrows,
                          tuple(sorted(comp.items())))


def iso_category():
    """The free isomorphism: x ~= y."""
    arrows = (
        OneCell("ix", "x", "x", True), OneCell("iy", "y", "y", True),
        OneCell("f", "x", "y"), OneCell("g", "y", "x"))
    comp = ((("f", "g"), "iy"), (("g", "f"), "ix"))
    return FiniteCategory(("x", "y"), arrows, comp)


def parallel_pair_category():
    """The free parallel pair of arrows x => y."""
    arrows = (
        OneCell("ix", "x", "x", True), OneCell("iy", "y", "y", True),
        OneCell("s", "x", "y"), OneCell("t", "x", "y"))
    return FiniteCategory(("x", "y"), arrows, ())


def _with_units(objects, one, comp1, two, vcomp, wl, wr, name):
    """The 2-category of the given cells and tables, with every entry that
    the unit laws fix added to the tables: composites with identity
    1-cells, vertical composites with identity 2-cells, whiskerings by
    identity 1-cells and whiskerings of identity 2-cells.  An entry that
    is given already stays as given."""
    id1 = {c.src: c.id for c in one if c.identity}
    id2 = {c.src: c.id for c in two if c.identity}
    ends = {c.id: (c.src, c.tgt) for c in one}
    for f in one:
        comp1.setdefault((f.id, id1[f.src]), f.id)
        comp1.setdefault((id1[f.tgt], f.id), f.id)
    for a in two:
        x, y = ends[a.src]
        vcomp.setdefault((a.id, id2[a.src]), a.id)
        vcomp.setdefault((id2[a.tgt], a.id), a.id)
        wl.setdefault((id1[y], a.id), a.id)
        wr.setdefault((a.id, id1[x]), a.id)
    for (g, f), r in comp1.items():
        wl.setdefault((g, id2[f]), id2[r])
        wr.setdefault((id2[g], f), id2[r])
    return FiniteTwoCategory(objects, one, comp1, two, vcomp, wl, wr,
                             name=name)


def two_category_from_category(D, name=""):
    """Read a 1-category as a locally discrete 2-category."""
    two = [TwoCell(f"i2_{f}", f, f, True) for f in sorted(D.arrow_map())]
    return _with_units(D.objects, list(D.arrows), D.comp_map(), two, {}, {},
                       {}, name)


def suspension(D, name=""):
    """Two objects x, y with hom(x, y) = D and no other non-identity cells."""
    arrows = D.arrow_map()
    one = [OneCell("ix", "x", "x", True), OneCell("iy", "y", "y", True)]
    one += [OneCell(f"s_{o}", "x", "y") for o in sorted(D.objects)]
    two = [TwoCell("i2_ix", "ix", "ix", True), TwoCell("i2_iy", "iy", "iy", True)]
    # the identity 2-cell of s_o is s_{the identity arrow of o}
    two += [TwoCell(f"s_{a}", f"s_{c.src}", f"s_{c.tgt}", c.identity)
            for a, c in sorted(arrows.items())]
    vcomp = {(f"s_{b}", f"s_{a}"): f"s_{r}" for (b, a), r in D.comp
             if not (arrows[a].identity or arrows[b].identity)}
    return _with_units(("x", "y"), one, {}, two, vcomp, {}, {}, name)


def oriental2(m):
    """The 2-truncated m-th oriental.

    Objects 0..m; 1-cells are strictly increasing vertex paths, composed by
    concatenation; hom(i, j) is the inclusion poset of sets of interior
    vertices, with the direct edge below every refinement.
    """
    if not 0 <= m <= 6:
        raise InvalidInput("oriental2 supports 0 <= m <= 6")
    paths = []  # tuples of vertices, len >= 2
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            for r in range(j - i):
                for mid in itertools.combinations(range(i + 1, j), r):
                    paths.append((i, *mid, j))
    pid = lambda p: "f" + "".join(map(str, p))
    one = [OneCell(f"e{i}", str(i), str(i), True) for i in range(m + 1)]
    one += [OneCell(pid(p), str(p[0]), str(p[-1])) for p in sorted(paths)]
    comp1 = {(pid(q), pid(p)): pid(p + q[1:])
             for p in paths for q in paths if q[0] == p[-1]}
    # 2-cells: P => Q between parallel paths with interior(P) <= interior(Q)
    cells2 = [(p, q) for p in paths for q in paths
              if (p[0], p[-1]) == (q[0], q[-1]) and set(p) <= set(q)]
    aid = lambda p, q: f"a{''.join(map(str, p))}>{''.join(map(str, q))}"
    two = [TwoCell(aid(p, q), pid(p), pid(q), p == q)
           for p, q in sorted(cells2)]
    two += [TwoCell(f"ie{i}", f"e{i}", f"e{i}", True) for i in range(m + 1)]
    proper = [(p, q) for p, q in cells2 if p != q]
    vcomp = {(aid(q, r), aid(p, q)): aid(p, r)
             for p, q in proper for q2, r in proper if q2 == q}
    wl, wr = {}, {}
    for p, q in proper:
        for c in paths:
            if c[0] == p[-1]:
                wl[(pid(c), aid(p, q))] = aid(p + c[1:], q + c[1:])
            if c[-1] == p[0]:
                wr[(aid(p, q), pid(c))] = aid(c + p[1:], c + q[1:])
    return _with_units([str(i) for i in range(m + 1)], one, comp1, two,
                       vcomp, wl, wr, f"O2[{m}]")


def inverted_oriental2():
    """O2[2] with a strict inverse adjoined to its unique non-identity 2-cell."""
    C = oriental2(2)
    alpha, beta = "a02>012", "b012>02"
    two = [*C.two_cells.values(), TwoCell(beta, "f012", "f02")]
    vcomp = {**C.vcomp, (beta, alpha): "a02>02", (alpha, beta): "a012>012"}
    return _with_units(C.objects, list(C.one_cells.values()), dict(C.comp1),
                       two, vcomp, dict(C.whisker_l), dict(C.whisker_r),
                       "IO2[2]")


def z2_two_cell_group():
    """One object, one 1-cell, 2-cell group {1, sigma} with sigma^2 = 1."""
    one = [OneCell("e", "*", "*", True)]
    two = [TwoCell("u", "e", "e", True), TwoCell("sg", "e", "e")]
    return _with_units(("*",), one, {}, two, {("sg", "sg"): "u"}, {}, {},
                       "Z2")


def standard_examples():
    """The bundled catalog, keyed by short names."""
    cat = {}
    cat["empty"] = two_category_from_category(chain_category(-1), name="[-1]")
    for m in range(7):
        cat[f"chain-{m}"] = two_category_from_category(
            chain_category(m), name=f"[{m}]")
    cat["iso"] = two_category_from_category(iso_category(), name="I")
    cat["sigma-iso"] = suspension(iso_category(), name="Sigma I")
    cat["sigma-arrow"] = suspension(chain_category(1), name="Sigma [1]")
    cat["sigma-parallel"] = suspension(parallel_pair_category(),
                                       name="Sigma parallel")
    cat["oriental-2"] = oriental2(2)
    cat["oriental-3"] = oriental2(3)
    cat["inv-oriental-2"] = inverted_oriental2()
    cat["z2"] = z2_two_cell_group()
    return cat
