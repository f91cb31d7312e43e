"""Truncated presheaves on the stratified simplex category.

A ``TruncatedTDeltaSet`` stores, for each level ``m`` up to a bound ``dim``,
a finite simplex set with face and degeneracy maps, and for ``m >= 1`` a
finite set of marking tokens with an underlying-simplex map.  Comarking
``zeta_i : S_m -> M_{m+1}`` picks the token of the i-th degeneracy, so the
presheaf relations are

    u(zeta_i(x)) = s_i(x)              and
    zeta_{j+1}(s_i(x)) = zeta_i(s_j(x))   for i <= j,

on top of the usual simplicial identities.  Tokens over one simplex need not
be unique; stratified means every ``u`` is injective.

Ids are strings; every construction hands the constructor integer index
rows, which the lift search reads directly.  Values are immutable
after construction.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import cached_property, lru_cache, reduce
from operator import eq, itemgetter

from .twocat import InvalidInput, read_document, typed


DEFAULT_BUDGET = 50_000_000
MAX_DIM = 6  # the largest dimension of a nerve, library or loaded document
# the most rows a nerve level may take, counted before they are built: its
# triangles, or the families of each step of the walk that builds a level
MAX_LEVEL = 1 << 20


def get_budget(budget=None):
    """The given budget, else the default; InvalidInput below 1."""
    if budget is None:
        return DEFAULT_BUDGET
    if budget < 1:
        raise InvalidInput(f"search budget {budget} must be >= 1")
    return budget


class BudgetExceeded(RuntimeError):
    """Search budget exhausted; distinct from a definitive negative answer."""


def _index(ids, kind, m):
    if not set(map(type, ids)) <= {str}:
        raise InvalidInput(f"{kind} ids at level {m} must be strings")
    table = {s: i for i, s in enumerate(ids)}
    if len(table) != len(ids):
        raise InvalidInput(f"duplicate {kind} ids at level {m}")
    return table


def _unique(level, kind, m):
    """Raise unless one level of ids, in string order, holds distinct
    strings; the messages are those of ``_index``."""
    if not set(map(type, level)) <= {str}:
        raise InvalidInput(f"{kind} ids at level {m} must be strings")
    if any(map(eq, level, itertools.islice(level, 1, None))):
        raise InvalidInput(f"duplicate {kind} ids at level {m}")


def _check(row, targets, what, sources, low=-1):
    """Raise unless every entry of ``row`` is an index into targets, or -1
    (an undefined operator) where ``low`` is -1."""
    if row and (min(row) < low or max(row) >= len(targets)):
        j = next(j for j, v in enumerate(row) if not low <= v < len(targets))
        raise InvalidInput(f"unknown {what} of {sources[j]!r}")


def _then(row, op):
    """``row`` followed by the index row ``op``."""
    return list(map(op.__getitem__, row))


def _level_order(level):
    """(order, place) for one level of ids: its indices in the string order
    of the ids, and the new index of each old one; None if already sorted."""
    if level == sorted(level):
        return None
    order = sorted(range(len(level)), key=level.__getitem__)
    place = [0] * len(order)
    for new, old in enumerate(order):
        place[old] = new
    return order, place


def _reorder(row, src, dst):
    """``row``, indexed by the elements of one level and naming elements of
    another, once both levels are sorted; ``src`` and ``dst`` are their
    ``_level_order``.  Negative entries stay as they are."""
    if src is not None:
        row = list(map(row.__getitem__, src[0]))
    if dst is not None:
        place = dst[1]
        row = [place[v] if v >= 0 else v for v in row]
    return row


class TruncatedTDeltaSet:
    def __init__(self, dim, ids, face, deg, tok_ids, tok_under, zeta,
                 name=""):
        """The tDelta-set on these ids and index rows: every level is put
        in the string order of its ids, the rows are remapped to match,
        checked and adopted (a row that needs no remapping is adopted as
        it is, so the shapes on one Delta[m] share its rows).

        ``ids[m]`` and ``tok_ids[m]`` list unique string ids in any order;
        ``face[m][i]``, ``deg[m][i]`` and ``zeta[m][i]`` give per simplex of
        level m the index of its image, and ``tok_under[m]`` per token the
        index of its simplex.  Slots that do not exist (``face[0]``,
        ``deg[dim]``, ``zeta[dim]``, ``tok_ids[0]``, ``tok_under[0]``) are
        ignored.  A row entry is the index of an element of the right level,
        or -1 where the operator is undefined (``validate`` reports those);
        anything else, and a token over no simplex, names an unknown element.
        """
        if dim < 0:
            raise InvalidInput("dimension bound must be >= 0")
        s_ord = [_level_order(level) for level in ids]
        t_ord = [None] + [_level_order(tok_ids[m]) for m in range(1, dim + 1)]
        self.dim = dim
        self.name = name
        self._ids = [_reorder(ids[m], s_ord[m], None) for m in range(dim + 1)]
        self._tok_ids = [None] + [_reorder(tok_ids[m], t_ord[m], None)
                                  for m in range(1, dim + 1)]
        ids, tok_ids = self._ids, self._tok_ids
        for m in range(dim + 1):
            _unique(ids[m], "simplex", m)
            if m:
                _unique(tok_ids[m], "token", m)
        self._face = face = [None] + [
            [_reorder(row, s_ord[m], s_ord[m - 1]) for row in face[m]]
            for m in range(1, dim + 1)]
        self._deg = deg = [
            [_reorder(row, s_ord[m], s_ord[m + 1]) for row in deg[m]]
            for m in range(dim)] + [None]
        self._zeta = zeta = [
            [_reorder(row, s_ord[m], t_ord[m + 1]) for row in zeta[m]]
            for m in range(dim)] + [None]
        self._tok_under = tok_under = [None] + [
            _reorder(tok_under[m], t_ord[m], s_ord[m])
            for m in range(1, dim + 1)]
        for m in range(dim + 1):
            for i in range(m + 1):
                if m:
                    _check(face[m][i], ids[m - 1], f"simplex as d_{i}", ids[m])
                if m < dim:
                    _check(deg[m][i], ids[m + 1], f"simplex as s_{i}", ids[m])
                    _check(zeta[m][i], tok_ids[m + 1], f"token as zeta_{i}",
                           ids[m])
            if m:
                _check(tok_under[m], ids[m], "simplex under", tok_ids[m], 0)

    # -- id-level accessors --------------------------------------------------

    def simplex_ids(self, m):
        return list(self._ids[m]) if 0 <= m <= self.dim else []

    def token_ids(self, m):
        return list(self._tok_ids[m]) if 1 <= m <= self.dim else []

    def face_of(self, m, i, sid):
        j = self._face[m][i][self._idx[m][sid]]
        if j < 0:
            raise InvalidInput(f"face d_{i} undefined on {sid!r}")
        return self._ids[m - 1][j]

    def under_of(self, m, tid):
        return self._ids[m][self._tok_under[m][self._tok_idx[m][tid]]]

    def tokens_over(self, m, sid):
        return [self._tok_ids[m][t]
                for t in self._tokens_over_idx[m].get(self._idx[m][sid], [])]

    def is_degenerate(self, m, sid):
        return self._idx[m][sid] in self._derived[0][m]

    def nondegenerate_ids(self, m):
        if not 0 <= m <= self.dim:
            return []
        hit = self._derived[0][m]
        return [s for i, s in enumerate(self._ids[m]) if i not in hit]

    def free_token_ids(self, m):
        """The tokens of level m that no zeta_i picks, in index order."""
        if not 1 <= m <= self.dim:
            return []
        hit = self._derived[1][m]
        return [t for i, t in enumerate(self._tok_ids[m]) if i not in hit]

    def counts(self):
        return {
            "simplices": [len(self._ids[m]) for m in range(self.dim + 1)],
            "tokens": [len(self._tok_ids[m]) for m in range(1, self.dim + 1)],
        }

    def __repr__(self):
        return (f"TruncatedTDeltaSet({self.name or 'anonymous'}, dim={self.dim}, "
                f"sizes={[len(x) for x in self._ids]})")

    # -- derived structure ----------------------------------------------------

    @cached_property
    def _idx(self):
        """Per level, the index of each simplex id."""
        return [{s: i for i, s in enumerate(level)} for level in self._ids]

    @cached_property
    def _tok_idx(self):
        """Per level from 1 on, the index of each token id."""
        return [None] + [{t: i for i, t in enumerate(level)}
                         for level in self._tok_ids[1:]]

    @cached_property
    def _derived(self):
        """(simplices, tokens): per level, the indices of the degenerate
        simplices and of the comarked tokens, the targets of the s_i and
        zeta_i rows one level down; none at level 0."""
        return tuple([set()] + [set().union(*rows) - {-1}
                                for rows in table[:-1]]
                     for table in (self._deg, self._zeta))

    @cached_property
    def _memo(self):
        """Tables that other modules derive from these rows and keep with
        them (the lift search's per-level tables); filled on their use."""
        return {}

    @cached_property
    def _tokens_over_idx(self):
        out = [None]
        for m in range(1, self.dim + 1):
            d = {}
            for t, u in enumerate(self._tok_under[m]):
                d.setdefault(u, []).append(t)
            out.append(d)
        return out

    # -- checks ----------------------------------------------------------------

    def _identities(self):
        """(text, m, lhs, rhs) for each presheaf identity on level m, in
        report order; each side is the index rows it applies, first to
        last, and () is the identity."""
        d, s, z, u = self._face, self._deg, self._zeta, self._tok_under
        dim = self.dim
        for m in range(2, dim + 1):
            for j in range(m + 1):
                for i in range(j):
                    yield (f"d_{i} d_{j} != d_{j-1} d_{i}", m,
                           (d[m][j], d[m-1][i]), (d[m][i], d[m-1][j-1]))
        for m in range(dim - 1):
            for i in range(m + 1):
                for j in range(i, m + 1):
                    yield (f"s_{i} s_{j} != s_{j+1} s_{i}", m,
                           (s[m][j], s[m+1][i]), (s[m][i], s[m+1][j+1]))
        for m in range(dim):  # at m = 0 only i in {j, j + 1} occur
            for j in range(m + 1):
                for i in range(m + 2):
                    yield (f"d_{i} s_{j} identity fails", m,
                           (s[m][j], d[m+1][i]),
                           (d[m][i], s[m-1][j-1]) if i < j else
                           () if i <= j + 1 else (d[m][i-1], s[m-1][j]))
        for m in range(dim):
            for i in range(m + 1):
                yield f"u(zeta_{i}) != s_{i}", m, (z[m][i], u[m+1]), (s[m][i],)
        for m in range(dim - 1):
            for i in range(m + 1):
                for j in range(i, m + 1):
                    yield (f"zeta_{j+1} s_{i} != zeta_{i} s_{j}", m,
                           (s[m][i], z[m+1][j+1]), (s[m][j], z[m+1][i]))

    def validate(self):
        """Presheaf relation report; empty means valid."""
        ids, dim = self._ids, self.dim
        rows = [(f"d_{i}", m, self._face[m][i])
                for m in range(1, dim + 1) for i in range(m + 1)]
        rows += [(f"{op}_{i}", m, table[m][i])
                 for m in range(dim) for i in range(m + 1)
                 for op, table in (("s", self._deg), ("zeta", self._zeta))]
        errs = [f"{op} missing on {ids[m][j]} (level {m})"
                for op, m, row in rows if row and min(row) < 0
                for j, v in enumerate(row) if v < 0]
        if errs:
            return errs
        for text, m, lhs, rhs in self._identities():
            a, b = (reduce(_then, side[1:], side[0]) if side
                    else list(range(len(ids[m]))) for side in (lhs, rhs))
            if a != b:
                errs += [f"{text} at {ids[m][k]}"
                         for k, (x, y) in enumerate(zip(a, b)) if x != y]
        return errs

    def is_stratified(self):
        return all(len(self._tokens_over_idx[m]) == len(self._tok_under[m])
                   for m in range(1, self.dim + 1))

    def same_underlying(self, other):
        """Whether both have the same simplicial set: ids, faces and
        degeneracies, whatever their marks."""
        return (self.dim == other.dim and self._ids == other._ids and
                self._face == other._face and self._deg == other._deg)

    def same_as(self, other):
        return (self.same_underlying(other) and
                self._tok_ids == other._tok_ids and
                self._tok_under == other._tok_under and
                self._zeta == other._zeta)

    # -- JSON -------------------------------------------------------------------

    def to_json_dict(self):
        ids, toks, dim = self._ids, self._tok_ids, self.dim

        def entries(table, at, lo, hi, shift):
            # [m, i, s, v] per simplex s of level m, one (m, i) block after
            # another, v read off table[m][i] in at[m + shift]; an entry -1,
            # an undefined operator, is left out as the loader reads it
            out = []
            for m in range(lo, hi):
                to = at[m + shift]
                for i, row in enumerate(table[m]):
                    out += [[m, i, s, to[v]] for s, v in zip(ids[m], row)
                            if v >= 0]
            return out

        return {
            "dim": dim,
            "simplices": [list(level) for level in ids],
            "faces": entries(self._face, ids, 1, dim + 1, -1),
            "degeneracies": entries(self._deg, ids, 0, dim, 1),
            "tokens": [[{"id": t, "under": ids[m][u]}
                        for t, u in zip(toks[m], self._tok_under[m])]
                       for m in range(1, dim + 1)],
            "zeta": entries(self._zeta, toks, 0, dim, 1),
        }

    @classmethod
    def from_json_dict(cls, doc, name=""):
        """Load a document; InvalidInput on anything the tables would drop
        or misread: ``simplices``, ``tokens``, each of their levels, the
        face, degeneracy and zeta tables and each of their entries must be
        lists, and each token an object.

        ``dim`` is checked before anything is allocated.
        """
        def read(doc):
            dim = doc["dim"]
            if type(dim) is not int or not 0 <= dim <= MAX_DIM:
                raise InvalidInput(f"tDelta-set dim {dim!r} is not an integer"
                                   f" in 0..{MAX_DIM}")
            simplices = _list(doc["simplices"], "simplices")
            tokens = _list(doc["tokens"], "tokens")
            if len(simplices) > dim + 1 or len(tokens) > dim:
                raise InvalidInput(f"more simplex or token levels than dim "
                                   f"{dim} has")
            ids = [list(_list(level, f"simplices level {m}"))
                   for m, level in enumerate(simplices)]
            ids += [[] for _ in range(len(ids), dim + 1)]
            idx = [_index(ids[m], "simplex", m) for m in range(dim + 1)]
            token = itemgetter("id", "under")
            pairs = [None] + [
                [token(typed(d, dict, "token"))
                 for d in _list(level, f"tokens level {m}")]
                for m, level in enumerate(tokens, 1)]
            pairs += [[] for _ in range(len(pairs), dim + 1)]
            tok_ids = [None] + [[t for t, _ in p] for p in pairs[1:]]
            tok_idx = [None] + [_index(tok_ids[m], "token", m)
                                for m in range(1, dim + 1)]
            tok_under = [None] + [[idx[m].get(u, -2) for _, u in pairs[m]]
                                  for m in range(1, dim + 1)]
            face = _rows(doc, "faces", idx, 1, dim, [None] + idx)
            deg = _rows(doc, "degeneracies", idx, 0, dim - 1, idx[1:])
            zeta = _rows(doc, "zeta", idx, 0, dim - 1, tok_idx[1:])
            return dim, ids, face, deg, tok_ids, tok_under, zeta
        return cls(*read_document("tDelta-set", doc, read), name=name)


def _list(v, what):
    return typed(v, list, f"tDelta-set {what}")


def _rows(doc, key, idx, lo, hi, to):
    """Index rows of the [m, i, s, v] entries of ``doc[key]``, levels lo..hi:
    rows[m][i] at the index of s is the index of v in ``to[m]``, -2 for an
    unknown v, and -1 where no entry is given.  InvalidInput on an entry the
    tables would drop."""
    rows = [[[-1] * len(idx[m]) for _ in range(m + 1)] if lo <= m <= hi
            else None for m in range(len(idx))]
    what = f"{key} entry"
    for entry in _list(doc[key], key):
        if type(entry) is not list:
            typed(entry, list, what)
        m, i, s, v = entry
        ok = type(m) is type(i) is int and lo <= m <= hi and 0 <= i <= m
        j = idx[m].get(s) if ok else None
        if j is None or rows[m][i][j] != -1:
            raise InvalidInput(
                f"{key} entry {[m, i, s, v]!r} would be dropped: it needs a "
                f"level in {lo}..{hi}, an index in 0..level, a simplex of "
                f"that level, and no repeat")
        rows[m][i][j] = to[m].get(v, -2)
    return rows


# -- compatible families ------------------------------------------------------

def face_table(face, faces):
    """{(d_i y for i in faces): [y, ...]} over the simplices y of one level,
    whose face rows are ``face``; each list in index order."""
    fits = {}
    for y, key in enumerate(zip(*[face[i] for i in faces])):
        fits.setdefault(key, []).append(y)
    return fits


def compatible_columns(face, slots, fits, first, cap=None):
    """The families (y_0, ..., y_last) of simplices of one level, y_p in
    face position slots[p] of a simplex above, with d_a y_p = d_{b-1} y_q
    for a = slots[q] < b = slots[p]: y_0 runs over ``first`` and y_p over
    the list of ``fits[p - 1]`` (a ``face_table`` on slots[:p], or part of
    one) under its faces d_{b-1} y_q.  ``cap``, if given, is called with
    the number of families of slots 0..p before their columns are built.

    Returns (cols, reps): cols[p][r] is y_p of the r-th family, the
    families in lexicographic order; drawn level by level, reps[p - 1][r]
    is the row of the family of slots 0..p-1 that row r extends."""
    cols, reps = [first], []
    for p in range(1, len(slots)):
        row = face[slots[p] - 1].__getitem__
        found = list(map(fits[p - 1].get, zip(*[map(row, c) for c in cols])))
        if cap:
            cap(sum(map(len, filter(None, found))))
        if None not in found and len(found) == sum(map(len, found)):
            rep = range(len(found))  # one value each: the rows stay
        else:
            rep = [r for r, ys in enumerate(found) if ys for _ in ys]
            cols = [list(map(c.__getitem__, rep)) for c in cols]
        cols.append(list(itertools.chain.from_iterable(filter(None, found))))
        reps.append(rep)
    return cols, reps


# -- maps of tDelta-sets --------------------------------------------------------

class TDeltaMap:
    """Levelwise map: per level, the index in dst of every simplex and every
    token of src, or -1 where the map is undefined.

    The images of non-degenerate simplices and free tokens are the map's
    data; the rest follow through the degeneracy and zeta rows (see
    ``map_on_generators``).
    """

    def __init__(self, src, dst, simg, timg):
        self.src = src
        self.dst = dst
        self._simg = simg
        self._timg = timg

    def _images(self, k):
        """(m, row) for every level of simplex (k=0) or token (k=1) images,
        in order; InvalidInput on reaching a row where the map is undefined."""
        for m, row in enumerate((self._simg, self._timg)[k]):
            if row and min(row) < 0:
                ids = (self.src._ids, self.src._tok_ids)[k][m]
                raise InvalidInput(f"map undefined on {ids[row.index(-1)]!r}")
            if row is not None:
                yield m, row

    def apply_simplex(self, m, sid):
        j = self._simg[m][self.src._idx[m][sid]]
        if j < 0:
            raise InvalidInput(f"map undefined on simplex {sid!r}")
        return self.dst._ids[m][j]

    def apply_token(self, m, tid):
        j = self._timg[m][self.src._tok_idx[m][tid]]
        if j < 0:
            raise InvalidInput(f"map undefined on token {tid!r}")
        return self.dst._tok_ids[m][j]

    def equals(self, other):
        return (self.src.same_as(other.src) and self.dst.same_as(other.dst)
                and list(self._images(0)) == list(other._images(0))
                and list(self._images(1)) == list(other._images(1)))

    def compose(self, other):
        """self after other; other's target must carry self's source ids."""
        A, mid, B = other.src, other.dst, self.src
        if mid is not B and (mid._ids != B._ids or
                             mid._tok_ids != B._tok_ids):
            raise InvalidInput(f"cannot compose through {mid.name!r} and "
                               f"{B.name!r}: their ids differ")
        rows = ([], [None])
        for k, ids, derived in ((0, A._ids, A._derived[0]),
                                (1, A._tok_ids, A._derived[1])):
            for m in range(k, A.dim + 1):
                first = (other._simg, other._timg)[k][m]
                then = (self._simg, self._timg)[k][m]
                row = [then[v] if v >= 0 else -1 for v in first]
                for j, v in enumerate(row):
                    if v < 0 and j not in derived[m]:
                        raise InvalidInput(
                            f"composite undefined on {ids[m][j]!r}")
                rows[k].append(row)
        return map_on_generators(A, self.dst, *rows)

    def is_mono(self):
        return all(len(set(row)) == len(row)
                   for k in (0, 1) for _, row in self._images(k))

    def is_valid(self):
        """Full commutation check against both structures."""
        A, X = self.src, self.dst
        if A.dim > X.dim:
            return False
        try:
            simg, timg = [dict(self._images(k)) for k in (0, 1)]
        except InvalidInput:
            return False
        checks = [(simg[m - 1], A._face[m][i], X._face[m][i], simg[m])
                  for m in range(1, A.dim + 1) for i in range(m + 1)]
        checks += [(img[m + 1], a[m][i], x[m][i], simg[m])
                   for m in range(A.dim) for i in range(m + 1)
                   for img, a, x in ((simg, A._deg, X._deg),
                                     (timg, A._zeta, X._zeta))]
        checks += [(simg[m], A._tok_under[m], X._tok_under[m], timg[m])
                   for m in range(1, A.dim + 1)]
        # lhs[a[j]] == x[img[j]] for every j: the square commutes at j
        return all((not a or min(a) >= 0) and _then(a, lhs) == _then(img, x)
                   for lhs, a, x, img in checks)

    def to_json_dict(self):
        """[level, id, image id] for every non-degenerate simplex and free
        token that the map defines, in sorted order."""
        A, X = self.src, self.dst
        return {key: [[m, ids[m][j], x_ids[m][v]]
                      for m, row in enumerate(rows) if row
                      for j, v in enumerate(row)
                      if v >= 0 and j not in derived[m]]
                for key, rows, ids, derived, x_ids in (
                    ("simplices", self._simg, A._ids, A._derived[0], X._ids),
                    ("tokens", self._timg, A._tok_ids, A._derived[1],
                     X._tok_ids))}


def map_on_generators(A, X, simg, timg):
    """The map A -> X with the images of the generators in these rows.

    ``simg[m]`` and ``timg[m]`` are per level rows of indices into X (-1 where
    undefined), adopted and overwritten in place from the operator rows:
    for each level m and each i from m - 1 down to 0, X's s_i (zeta_i) of
    the image of each simplex a of level m - 1 is written into the entry of
    A's s_i a (zeta_i a), and -1 where a has no image.  The smallest i is
    written last, and within one i the last a: an element that several
    (i, a) reach takes its image through the last of them.  An entry -1 of
    A's rows, an operator A leaves undefined, writes nothing.
    """
    for m in range(1, min(A.dim, X.dim) + 1):
        below = simg[m - 1]
        for row, a_ops, x_ops in ((simg[m], A._deg[m - 1], X._deg[m - 1]),
                                  (timg[m], A._zeta[m - 1], X._zeta[m - 1])):
            row.append(-1)  # a target -1 lands in this spare entry
            for i in reversed(range(m)):
                x_op = x_ops[i] + [-1]  # and an image -1 reads -1
                deque(map(row.__setitem__, a_ops[i],
                          map(x_op.__getitem__, below)), 0)
            row.pop()
    return TDeltaMap(A, X, simg, timg)


def map_from_json_dict(src, dst, doc):
    """Load a map document; InvalidInput unless it is an object whose
    ``simplices`` and ``tokens`` and their entries are lists, and on any
    entry it would drop: a level that is not an integer or that one side
    lacks, an id that is not a non-degenerate simplex or free token of src,
    a target id that dst lacks at that level, or a source given twice.
    Generators the document leaves out stay undefined."""
    def read(doc):
        rows = _undefined(src)
        for k, key, lo, src_idx, derived, dst_idx in (
                (0, "simplices", 0, src._idx, src._derived[0], dst._idx),
                (1, "tokens", 1, src._tok_idx, src._derived[1],
                 dst._tok_idx)):
            for entry in typed(doc[key], list, f"map {key}"):
                m, s, v = typed(entry, list, f"{key} entry")
                ok = type(m) is int and lo <= m <= min(src.dim, dst.dim)
                j = src_idx[m].get(s) if ok else None
                ok = j is not None and j not in derived[m]
                if not ok or rows[k][m][j] >= 0 or v not in dst_idx[m]:
                    raise InvalidInput(
                        f"{key} entry {[m, s, v]!r} would be dropped: "
                        f"it needs a level both sides have, a generator of "
                        f"the source, an element of the target at that "
                        f"level, and no repeat")
                rows[k][m][j] = dst_idx[m][v]
        return rows
    return map_on_generators(src, dst, *read_document("map", doc, read))


def _undefined(A):
    """Fresh (simplex, token) image rows of A, undefined everywhere."""
    return ([[-1] * len(level) for level in A._ids],
            [None] + [[-1] * len(level) for level in A._tok_ids[1:]])


def identity_map(X):
    return inclusion_map(X, X)


def inclusion_map(A, X):
    """The inclusion when A's generators carry the same ids inside X."""
    rows = ([], [None])
    for k, ids, idx in ((0, A._ids, X._idx), (1, A._tok_ids, X._tok_idx)):
        for m in range(k, A.dim + 1):
            at = idx[m] if m <= X.dim else {}
            rows[k].append([at.get(s, -1) for s in ids[m]])
    return map_on_generators(A, X, *rows)


# -- standard stratified shapes -----------------------------------------------------

def _seq_id(seq):
    return "".join(map(str, seq))


def _minimal_tokens(dim, ids, deg, marked):
    """(tok_ids, tok_under, zeta) of a stratified object: one token
    ``t|{id}`` over each degenerate simplex and over each index in
    ``marked[m]``, and zeta the token of each degeneracy."""
    tok_ids, tok_under, tok_of = [None], [None], [None]
    for m in range(1, dim + 1):
        under = sorted(set().union(*deg[m - 1], marked[m]))
        tok_of.append(dict(zip(under, itertools.count())).__getitem__)
        tok_ids.append(["t|" + s for s in map(ids[m].__getitem__, under)])
        tok_under.append(under)
    zeta = [[list(map(tok_of[m + 1], row)) for row in deg[m]]
            for m in range(dim)] + [None]
    return tok_ids, tok_under, zeta


def _monotone(m, k):
    """Monotone sequences of length k+1 with values in 0..m."""
    return list(itertools.combinations_with_replacement(range(m + 1), k + 1))


def _shape(ids, face, deg, marks, name):
    """The shape on these simplex rows with minimal markings and the indices
    in ``marks[k]`` marked."""
    dim = len(ids) - 1
    return TruncatedTDeltaSet(dim, ids, face, deg,
                              *_minimal_tokens(dim, ids, deg, marks),
                              name=name)


@lru_cache(maxsize=(MAX_DIM + 1) ** 2)
def _delta_tables(m, dim):
    """(rank, ids, face, deg) of Delta[m] truncated at dim, shared by every
    shape on it and never written to: per level the index of each monotone
    vertex sequence in the string order of the ids (not the vertex order
    from m = 10 on), the ids in that order, and their face and degeneracy
    rows."""
    levels = [sorted((_seq_id(s), s) for s in _monotone(m, k))
              for k in range(dim + 1)]
    rank = [{s: j for j, (_, s) in enumerate(level)} for level in levels]
    face = [None] + [[[rank[k - 1][s[:i] + s[i + 1:]] for s in rank[k]]
                      for i in range(k + 1)] for k in range(1, dim + 1)]
    deg = [[[rank[k + 1][s[:i + 1] + s[i:]] for s in rank[k]]
            for i in range(k + 1)] for k in range(dim)] + [None]
    return rank, [[sid for sid, _ in level] for level in levels], face, deg


def _build_simplicial(m, dim, marked, name, drop=None):
    """Stratified object on Delta[m] truncated at dim, or on its simplices
    that miss a vertex of ``drop``, with minimal markings and the vertex
    tuples in ``marked`` marked on top."""
    rank, ids, face, deg = _delta_tables(m, dim)
    marks = [{rank[k][s] for s in marked if s in rank[k]}
             for k in range(dim + 1)]
    if drop is not None:
        # a simplex with all of drop has at least len(drop) vertices: the
        # levels from len(drop) - 1 on are restricted and renumbered, as
        # _reorder does, (kept indices, their new indices); the rows of
        # the levels below stay as they are
        keep = [None] * (len(drop) - 1)
        for k in range(len(drop) - 1, dim + 1):
            # the sequences with all of drop: drop and k + 1 - |drop| more
            gone = {rank[k][tuple(sorted((*drop, *more)))]
                    for more in _monotone(m, k - len(drop))}
            kept = list(itertools.filterfalse(gone.__contains__,
                                              range(len(rank[k]))))
            place = [None] * len(rank[k])
            for new, old in enumerate(kept):
                place[old] = new
            keep.append((kept, place))
        face = [None] + [[_reorder(row, keep[k], keep[k - 1])
                          for row in face[k]] for k in range(1, dim + 1)]
        deg = [[_reorder(row, keep[k], keep[k + 1]) for row in deg[k]]
               for k in range(dim)] + [None]
        marks = [marked_k if sel is None else
                 {sel[1][j] for j in marked_k} - {None}
                 for marked_k, sel in zip(marks, keep)]
        ids = [level if sel is None else [level[j] for j in sel[0]]
               for level, sel in zip(ids, keep)]
    return _shape(ids, face, deg, marks, name)


def delta(m, dim=None, marked=(), name=None):
    """The m-simplex; ``marked`` lists vertex tuples marked on top."""
    dim = m if dim is None else dim
    if not all(isinstance(s, tuple) for s in marked):
        raise InvalidInput("marked simplices are given as vertex tuples")
    return _build_simplicial(m, dim, set(marked), name or f"Delta[{m}]")


def delta_t(m, dim=None):
    dim = m if dim is None else dim
    if dim < m:
        raise InvalidInput("Delta[m]_t needs dim >= m")
    return delta(m, dim, marked={tuple(range(m + 1))}, name=f"Delta[{m}]_t")


def boundary(m, dim=None):
    dim = max(m - 1, 0) if dim is None else dim
    return _build_simplicial(m, dim, set(), f"dDelta[{m}]",
                             drop=frozenset(range(m + 1)))


def _nondegenerate(m, dim):
    """Non-degenerate vertex tuples of Delta[m] at levels 1..dim."""
    return [s for lvl in range(1, dim + 1)
            for s in itertools.combinations(range(m + 1), lvl + 1)]


def _marked_for_delta_k(k, m, dim):
    if not 0 <= k <= m:
        raise InvalidInput("need 0 <= k <= m")
    need = {v for v in (k - 1, k, k + 1) if 0 <= v <= m}
    return {s for s in _nondegenerate(m, dim) if need.issubset(s)}


def delta_k(k, m, dim=None):
    """The m-simplex with the k-admissible marking."""
    dim = m if dim is None else dim
    return delta(m, dim, marked=_marked_for_delta_k(k, m, dim),
                 name=f"Delta^{k}[{m}]")


def _primed_marks(k, m, dim, drops):
    """The vertex tuples marked in the k-admissible m-simplex with the faces
    opposite ``drops`` marked."""
    marked = _marked_for_delta_k(k, m, dim)
    marked.update(tuple(u for u in range(m + 1) if u != v)
                  for v in drops if 0 <= v <= m)
    return marked


def delta_k_prime(k, m, dim=None):
    dim = m if dim is None else dim
    return delta(m, dim, marked=_primed_marks(k, m, dim, (k - 1, k + 1)),
                 name=f"Delta^{k}[{m}]'")


def delta_k_dprime(k, m, dim=None):
    dim = m if dim is None else dim
    return delta(m, dim, marked=_primed_marks(k, m, dim, (k - 1, k, k + 1)),
                 name=f"Delta^{k}[{m}]''")


def horn(k, m, dim=None):
    """The k-horn of the m-simplex, marked as in the k-admissible simplex."""
    dim = m if dim is None else dim
    return _build_simplicial(m, dim, _marked_for_delta_k(k, m, dim),
                             f"Horn^{k}[{m}]", drop=frozenset(range(m + 1)) - {k})


_DELTA3_EQ = frozenset({(0, 2), (1, 3), (0, 1, 2), (0, 1, 3), (0, 2, 3),
                        (1, 2, 3), (0, 1, 2, 3)})


def delta3_eq(dim=3):
    return delta(3, dim, marked=_DELTA3_EQ, name="Delta[3]_eq")


def delta3_sharp(dim=3):
    return delta(3, dim, marked=_nondegenerate(3, dim), name="Delta[3]#")


# -- join ------------------------------------------------------------------------

def join(A, B, out_dim=None, name=None):
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
    # the joins of A with factors on one simplicial set share their rows
    held = A._memo.get(("join", out_dim))
    if held is None or not held[0].same_underlying(B):
        held = A._memo[("join", out_dim)] = B, _join_rows(A, B, out_dim)
    ids, face, deg, keys = held[1]

    def marked(m, p, a, b):
        q = m - 1 - p
        return ((p < 0 or a not in A._derived[0][p]) and
                (q < 0 or b not in B._derived[0][q]) and
                (p > 0 and a in A._tokens_over_idx[p] or
                 q > 0 and b in B._tokens_over_idx[q]))

    marks = [None] + [{j for j, k in enumerate(keys[m]) if marked(m, *k)}
                      for m in range(1, out_dim + 1)]
    return _shape(ids, face, deg, marks, name or f"{A.name} * {B.name}")


def _join_rows(A, B, out_dim):
    """(ids, face, deg, keys) of the join of the simplicial sets under A and B:
    a simplex a*b of level m is keyed (p, a, b), a of level p in A and b of
    level q = m - 1 - p in B by index, where the side of level -1 is empty
    (index -1), so (m, a, -1) is a* and (-1, -1, b) is *b; each level in the
    string order of its ids."""
    def sides(p, X):
        return range(len(X._ids[p])) if p >= 0 else (-1,)

    def face_key(m, i, p, a, b):
        q = m - 1 - p
        if i <= p:
            return (p - 1, A._face[p][i][a], b) if p else (-1, -1, b)
        return (p, a, B._face[q][i - p - 1][b]) if q else (p, a, -1)

    def deg_key(m, i, p, a, b):
        if i <= p:
            return p + 1, A._deg[p][i][a], b
        return p, a, B._deg[m - 1 - p][i - p - 1][b]

    keys, ids = [], []
    for m in range(out_dim + 1):
        level = [(p, a, b) for p in range(-1, m + 1) for a in sides(p, A)
                 for b in sides(m - 1 - p, B)]
        names = [(A._ids[p][a] if p >= 0 else "") + "*" +
                 (B._ids[m - 1 - p][b] if b >= 0 else "") for p, a, b in level]
        order = sorted(range(len(level)), key=names.__getitem__)
        keys.append([level[j] for j in order])
        ids.append([names[j] for j in order])
    rank = [{k: j for j, k in enumerate(level)} for level in keys]
    face = [None] + [[[rank[m - 1][face_key(m, i, *k)] for k in keys[m]]
                      for i in range(m + 1)] for m in range(1, out_dim + 1)]
    deg = [[[rank[m + 1][deg_key(m, i, *k)] for k in keys[m]]
            for i in range(m + 1)] for m in range(out_dim)] + [None]
    return ids, face, deg, keys


# -- colimit-style operations ----------------------------------------------------

def _images_along(f, i):
    """For f: A -> X and i: A -> B, the (simplex, token) rows that give, per
    level of B, the index in X of f(a) at i(a), and -1 off the image of i."""
    out = _undefined(i.dst)
    for k in (0, 1):
        for (m, irow), (_, frow) in zip(i._images(k), f._images(k)):
            for b, x in zip(irow, frow):
                out[k][m][b] = x
    return out


def pushout(f, i, prefix="B.", name=""):
    """Pushout of f: A -> X along a monomorphism i: A -> B that is onto on
    simplices, so that B only adds marks to A.

    Returns (P, X -> P, B -> P).  P is built on X's own simplex rows and
    zeta; its tokens are X's and, for each token t of B outside the image
    of i, ``prefix + t`` over f of t's simplex.  InvalidInput if i is not
    mono, B is truncated above X, or B adds a simplex.
    """
    X, B = f.dst, i.dst
    if not i.is_mono():
        raise InvalidInput("pushout implemented along monomorphisms only")
    if B.dim > X.dim:
        raise InvalidInput("pushout target truncation too small")
    # where the simplices and tokens of B land: f(a) on the image of i; a
    # new token lands on the index it is appended at, after X's tokens
    s_land, t_land = _images_along(f, i)
    for m, row in enumerate(s_land):
        if -1 in row:
            raise InvalidInput(f"pushout: B adds the simplex "
                               f"{B._ids[m][row.index(-1)]!r}")
    tok_ids, tok_under = [None], [None]
    for m in range(1, X.dim + 1):
        ids, under = list(X._tok_ids[m]), list(X._tok_under[m])
        for t, x in enumerate(t_land[m] if m <= B.dim else ()):
            if x < 0:
                t_land[m][t] = len(ids)
                ids.append(prefix + B._tok_ids[m][t])
                under.append(s_land[m][B._tok_under[m][t]])
        tok_ids.append(ids)
        tok_under.append(under)
    P = TruncatedTDeltaSet(X.dim, X._ids, X._face, X._deg, tok_ids,
                           tok_under, X._zeta, name)
    # P's constructor put each token level in id order: land through the ids
    timg = [None] + [[P._tok_idx[m][tok_ids[m][n]] for n in t_land[m]]
                     for m in range(1, B.dim + 1)]
    return P, inclusion_map(X, P), map_on_generators(B, P, s_land, timg)


def pushout_family(X, gluings, prefix="g", name=""):
    """Pushout of a finite family of (f_k: A_k -> X, i_k: A_k -> B_k).

    One ``pushout`` per gluing, each glued onto the result of the one
    before, so a token of B_k outside the image of i_k enters P as
    ``{prefix}{k}:{id}``.  Returns (P, X -> P, [B_k -> P]).
    """
    P, x_to_p, b_maps = X, identity_map(X), []
    for k, (f, i) in enumerate(gluings):
        P, step, b = pushout(x_to_p.compose(f), i, prefix=f"{prefix}{k}:",
                             name=name)
        x_to_p = step.compose(x_to_p)
        b_maps = [step.compose(c) for c in b_maps] + [b]
    return P, x_to_p, b_maps


def identify_markings(X, name=None, labels=None):
    """Collapse the tokens of X into classes, one token per class.

    ``labels`` maps each (level, token) to the id of its class, and the
    tokens of a class must lie over one simplex.  By default all tokens
    over one simplex form one class, labelled by its least member; then Q
    is stratified and the operation is idempotent.  Q adopts the simplices,
    faces and degeneracies of X.  Returns (Q, X -> Q).
    """
    if labels is None:  # a level's tokens are in id order: the first is least
        labels = {(m, t): X._tok_ids[m][X._tokens_over_idx[m][u][0]]
                  for m in range(1, X.dim + 1)
                  for t, u in zip(X._tok_ids[m], X._tok_under[m])}
    tok_ids, tok_under, cls = [None], [None], [None]
    for m in range(1, X.dim + 1):
        under = {}  # class label -> the simplex under the class
        for t, u in zip(X._tok_ids[m], X._tok_under[m]):
            if under.setdefault(labels[(m, t)], u) != u:
                raise InvalidInput(f"token class {labels[(m, t)]!r} lies "
                                   "over more than one simplex")
        tok_ids.append(list(under))
        tok_under.append(list(under.values()))
        rank = {q: j for j, q in enumerate(under)}
        cls.append([rank[labels[(m, t)]] for t in X._tok_ids[m]])
    zeta = [[[cls[m + 1][t] if t >= 0 else -1 for t in row]
             for row in X._zeta[m]] for m in range(X.dim)] + [None]
    Q = TruncatedTDeltaSet(X.dim, X._ids, X._face, X._deg, tok_ids,
                           tok_under, zeta, name or f"{X.name}/~")
    # Q adopts X's simplices; its constructor put each token level in order
    timg = [None] + [[Q._tok_idx[m][labels[(m, t)]] for t in X._tok_ids[m]]
                     for m in range(1, X.dim + 1)]
    return Q, map_on_generators(
        X, Q, [list(range(len(level))) for level in X._ids], timg)
