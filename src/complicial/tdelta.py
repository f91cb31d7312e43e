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

Ids are strings; internally every level is compiled to integer arrays so the
enumeration kernels stay cheap.  Values are immutable after construction.
"""

from __future__ import annotations

import itertools
import os
from functools import cached_property

from .twocat import InvalidInput


DEFAULT_BUDGET = 50_000_000


def get_budget(budget=None):
    """The given budget, else ``COMPLICIAL_BUDGET``, else the default."""
    if budget is None:
        env = os.environ.get("COMPLICIAL_BUDGET")
        if not env:
            return DEFAULT_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise InvalidInput(f"COMPLICIAL_BUDGET={env!r} is not an "
                               "integer") from None
        if budget < 1:
            raise InvalidInput(f"COMPLICIAL_BUDGET={env!r} must be >= 1")
    elif budget < 1:
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


def _check(row, targets, what, sources):
    """Raise unless every entry of ``row`` is -1 or an index into targets."""
    if row and (min(row) < -1 or max(row) >= len(targets)):
        j = next(j for j, v in enumerate(row) if not -1 <= v < len(targets))
        raise InvalidInput(f"unknown {what} of {sources[j]!r}")


class TruncatedTDeltaSet:
    def __init__(self, dim, simplices, faces, degeneracies, tokens, zeta,
                 name=""):
        """Compile id-keyed dicts into the tables that ``_install_ids`` and
        ``_install_tables`` check and adopt."""
        try:
            ids = [sorted(simplices.get(m, ())) for m in range(dim + 1)]
            pairs = [None] + [sorted(tokens.get(m, ()))
                              for m in range(1, dim + 1)]
            tok_ids = [None] + [[t for t, _ in p] for p in pairs[1:]]
            self._install_ids(dim, ids, tok_ids, name)
            # the installed indexes, plus None (an undefined operator) -> -1
            idx = [{None: -1} | d for d in self._idx]
            tok_idx = [None] + [{None: -1} | d for d in self._tok_idx[1:]]
            face = [None] + [
                [[idx[m - 1].get(faces.get((m, i, s)), -2) for s in ids[m]]
                 for i in range(m + 1)] for m in range(1, dim + 1)]
            deg = [[[idx[m + 1].get(degeneracies.get((m, i, s)), -2)
                     for s in ids[m]] for i in range(m + 1)]
                   for m in range(dim)] + [None]
            tok_under = [None] + [[idx[m].get(u, -2) for _, u in pairs[m]]
                                  for m in range(1, dim + 1)]
            zeta_t = [[[tok_idx[m + 1].get(zeta.get((m, i, s)), -2)
                        for s in ids[m]] for i in range(m + 1)]
                      for m in range(dim)] + [None]
        except TypeError as exc:
            raise InvalidInput(f"unusable simplex or token id: {exc}") from exc
        self._install_tables(face, deg, tok_under, zeta_t)

    def _install_ids(self, dim, ids, tok_ids, name):
        """Adopt the sorted ids of every level; they must be unique strings."""
        if dim < 0:
            raise InvalidInput("dimension bound must be >= 0")
        self.dim = dim
        self.name = name
        self._ids = ids
        self._idx = [_index(ids[m], "simplex", m) for m in range(dim + 1)]
        self._tok_ids = tok_ids
        self._tok_idx = [None] + [_index(tok_ids[m], "token", m)
                                  for m in range(1, dim + 1)]

    def _install_tables(self, face, deg, tok_under, zeta):
        """Adopt the index tables after checking them.

        An entry is the index of an element of the right level, or -1 where
        the operator is undefined (``validate`` reports those); anything
        else names an unknown element.
        """
        ids, tok_ids, dim = self._ids, self._tok_ids, self.dim
        self._face, self._deg = face, deg
        self._tok_under, self._zeta = tok_under, zeta
        for m in range(dim + 1):
            for i in range(m + 1):
                if m:
                    _check(face[m][i], ids[m - 1], f"simplex as d_{i}", ids[m])
                if m < dim:
                    _check(deg[m][i], ids[m + 1], f"simplex as s_{i}", ids[m])
                    _check(zeta[m][i], tok_ids[m + 1], f"token as zeta_{i}",
                           ids[m])
            if m:
                _check(tok_under[m], ids[m], "simplex under", tok_ids[m])

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

    def degeneracy_of(self, m, i, sid):
        j = self._deg[m][i][self._idx[m][sid]]
        if j < 0:
            raise InvalidInput(f"degeneracy s_{i} undefined on {sid!r}")
        return self._ids[m + 1][j]

    def under_of(self, m, tid):
        return self._ids[m][self._tok_under[m][self._tok_idx[m][tid]]]

    def zeta_of(self, m, i, sid):
        j = self._zeta[m][i][self._idx[m][sid]]
        if j < 0:
            raise InvalidInput(f"zeta_{i} undefined on {sid!r}")
        return self._tok_ids[m + 1][j]

    def tokens_over(self, m, sid):
        return [self._tok_ids[m][t]
                for t in self._tokens_over_idx[m].get(self._idx[m][sid], [])]

    def is_degenerate(self, m, sid):
        return self._deg_wit[m][self._idx[m][sid]] is not None

    def nondegenerate_ids(self, m):
        if not 0 <= m <= self.dim:
            return []
        wit = self._deg_wit[m]
        return [s for i, s in enumerate(self._ids[m]) if wit[i] is None]

    def counts(self):
        return {
            "simplices": [len(self._ids[m]) for m in range(self.dim + 1)],
            "nondegenerate": [len(self.nondegenerate_ids(m))
                              for m in range(self.dim + 1)],
            "tokens": [len(self._tok_ids[m]) for m in range(1, self.dim + 1)],
        }

    def __repr__(self):
        return (f"TruncatedTDeltaSet({self.name or 'anonymous'}, dim={self.dim}, "
                f"sizes={[len(x) for x in self._ids]})")

    # -- derived structure ----------------------------------------------------

    @cached_property
    def _deg_wit(self):
        """Per level: (i, preimage index) writing the simplex as s_i, with
        the smallest such i; None for a non-degenerate simplex."""
        wit = [[None] * len(self._ids[m]) for m in range(self.dim + 1)]
        for m in range(self.dim):  # the last write, of the smallest i, wins
            for i in reversed(range(m + 1)):
                row = self._deg[m][i]
                for j, target in enumerate(row):
                    if target >= 0:
                        wit[m + 1][target] = (i, j)
        return wit

    @cached_property
    def _tokens_over_idx(self):
        out = [None]
        for m in range(1, self.dim + 1):
            d = {}
            for t, u in enumerate(self._tok_under[m]):
                d.setdefault(u, []).append(t)
            out.append(d)
        return out

    @cached_property
    def _zeta_wit(self):
        """Per token level: canonical (i, simplex index) witness, if comarked."""
        wit = [None] + [[None] * len(self._tok_ids[m])
                        for m in range(1, self.dim + 1)]
        for m in reversed(range(self.dim)):
            for i in reversed(range(m + 1)):
                for j, t in enumerate(self._zeta[m][i]):
                    if t >= 0:
                        wit[m + 1][t] = (i, j)
        return wit

    @cached_property
    def _zeta_simplex_determined(self):
        """True when zeta values depend only on the underlying simplex.

        Every construction in this library has the property; when the
        codomain of a map search has it, zeta-compatibility of derived
        token images is automatic and the kernel skips those checks.
        """
        for m in range(self.dim):
            chosen = {}
            for i in range(m + 1):
                deg = self._deg[m][i]
                zet = self._zeta[m][i]
                for j in range(len(self._ids[m])):
                    t = zet[j]
                    if t < 0:
                        continue
                    target = deg[j]
                    if chosen.setdefault(target, t) != t:
                        return False
        return True

    @cached_property
    def _lean_tables(self):
        """Degenerate-fill plan pruned to entries later slots actually read."""
        dfill, _, _ = self._lift_tables
        used = [set() for _ in range(self.dim + 1)]
        for m in range(1, self.dim + 1):
            wit = self._deg_wit[m]
            for j in range(len(self._ids[m])):
                if wit[j] is None:
                    for i in range(m + 1):
                        used[m - 1].add(self._face[m][i][j])
        for m in range(1, self.dim + 1):
            zwit = self._zeta_wit[m]
            for j in range(len(self._tok_ids[m])):
                if zwit[j] is None:
                    used[m].add(self._tok_under[m][j])
        out = [[] for _ in range(self.dim + 1)]
        for m in range(self.dim, 0, -1):
            keep = [e for e in dfill[m] if e[0] in used[m]]
            out[m] = keep
            for _, _, pre in keep:
                used[m - 1].add(pre)
        return out

    @cached_property
    def _lift_tables(self):
        """Per-level derivation plans for the enumeration kernel.

        dfill[m]: (index, i, preimage index) for each degenerate simplex;
        tderive[m]: (token, i, x) canonical zeta witness per comarked token;
        tcheck[m]: remaining zeta entries (token, i, x) to verify.
        """
        dfill = [[] for _ in range(self.dim + 1)]
        for m in range(1, self.dim + 1):
            wit = self._deg_wit[m]
            for j, w in enumerate(wit):
                if w is not None:
                    dfill[m].append((j, w[0], w[1]))
        tderive = [None] + [[] for _ in range(self.dim)]
        tcheck = [None] + [[] for _ in range(self.dim)]
        for m in range(1, self.dim + 1):
            zwit = self._zeta_wit[m]
            for t, w in enumerate(zwit):
                if w is not None:
                    tderive[m].append((t, w[0], w[1]))
            for i in range(m):
                row = self._zeta[m - 1][i]
                for x, t in enumerate(row):
                    if t >= 0 and zwit[t] != (i, x):
                        tcheck[m].append((t, i, x))
        return dfill, tderive, tcheck

    @cached_property
    def _by_boundary(self):
        out = [None]
        for m in range(1, self.dim + 1):
            d = {}
            rows = self._face[m]
            for j in range(len(self._ids[m])):
                key = tuple(rows[i][j] for i in range(m + 1))
                d.setdefault(key, []).append(j)
            out.append(d)
        return out

    # -- checks ----------------------------------------------------------------

    def validate(self):
        """Presheaf relation report; empty means valid."""
        errs = []
        add = errs.append
        for m in range(1, self.dim + 1):
            for i in range(m + 1):
                for j, v in enumerate(self._face[m][i]):
                    if v < 0:
                        add(f"d_{i} missing on {self._ids[m][j]} (level {m})")
        for m in range(self.dim):
            for i in range(m + 1):
                for j, v in enumerate(self._deg[m][i]):
                    if v < 0:
                        add(f"s_{i} missing on {self._ids[m][j]} (level {m})")
                for j, v in enumerate(self._zeta[m][i]):
                    if v < 0:
                        add(f"zeta_{i} missing on {self._ids[m][j]} (level {m})")
        if errs:
            return errs
        for m in range(2, self.dim + 1):
            for j in range(m + 1):
                for i in range(j):
                    for s in range(len(self._ids[m])):
                        lhs = self._face[m - 1][i][self._face[m][j][s]]
                        rhs = self._face[m - 1][j - 1][self._face[m][i][s]]
                        if lhs != rhs:
                            add(f"d_{i} d_{j} != d_{j-1} d_{i} "
                                f"at {self._ids[m][s]}")
        for m in range(self.dim - 1):
            for i in range(m + 1):
                for j in range(i, m + 1):
                    for s in range(len(self._ids[m])):
                        lhs = self._deg[m + 1][i][self._deg[m][j][s]]
                        rhs = self._deg[m + 1][j + 1][self._deg[m][i][s]]
                        if lhs != rhs:
                            add(f"s_{i} s_{j} != s_{j+1} s_{i} "
                                f"at {self._ids[m][s]}")
        for m in range(self.dim):
            for j in range(m + 1):
                for i in range(m + 2):
                    for s in range(len(self._ids[m])):
                        got = self._face[m + 1][i][self._deg[m][j][s]]
                        if i < j:
                            want = self._deg[m - 1][j - 1][self._face[m][i][s]] \
                                if m >= 1 else -2
                        elif i in (j, j + 1):
                            want = s
                        else:
                            want = self._deg[m - 1][j][self._face[m][i - 1][s]] \
                                if m >= 1 else -2
                        if got != want:
                            add(f"d_{i} s_{j} identity fails "
                                f"at {self._ids[m][s]}")
        for m in range(self.dim):
            for i in range(m + 1):
                for s in range(len(self._ids[m])):
                    t = self._zeta[m][i][s]
                    if self._tok_under[m + 1][t] != self._deg[m][i][s]:
                        add(f"u(zeta_{i}) != s_{i} at {self._ids[m][s]}")
        for m in range(self.dim - 1):
            for i in range(m + 1):
                for j in range(i, m + 1):
                    for s in range(len(self._ids[m])):
                        lhs = self._zeta[m + 1][j + 1][self._deg[m][i][s]]
                        rhs = self._zeta[m + 1][i][self._deg[m][j][s]]
                        if lhs != rhs:
                            add(f"zeta_{j+1} s_{i} != zeta_{i} s_{j} "
                                f"at {self._ids[m][s]}")
        return errs

    def is_stratified(self):
        for m in range(1, self.dim + 1):
            seen = set()
            for u in self._tok_under[m]:
                if u in seen:
                    return False
                seen.add(u)
        return True

    def same_as(self, other):
        return (self.dim == other.dim and self._ids == other._ids and
                self._face == other._face and self._deg == other._deg and
                self._tok_ids == other._tok_ids and
                self._tok_under == other._tok_under and
                self._zeta == other._zeta)

    # -- JSON -------------------------------------------------------------------

    def to_json_dict(self):
        faces = []
        for m in range(1, self.dim + 1):
            for i in range(m + 1):
                for j, s in enumerate(self._ids[m]):
                    faces.append([m, i, s, self._ids[m - 1][self._face[m][i][j]]])
        degs = []
        zeta = []
        for m in range(self.dim):
            for i in range(m + 1):
                for j, s in enumerate(self._ids[m]):
                    degs.append([m, i, s, self._ids[m + 1][self._deg[m][i][j]]])
                    zeta.append([m, i, s, self._tok_ids[m + 1][self._zeta[m][i][j]]])
        return {
            "dim": self.dim,
            "simplices": [list(self._ids[m]) for m in range(self.dim + 1)],
            "faces": faces,
            "degeneracies": degs,
            "tokens": [[{"id": t, "under": self._ids[m][self._tok_under[m][i]]}
                        for i, t in enumerate(self._tok_ids[m])]
                       for m in range(1, self.dim + 1)],
            "zeta": zeta,
        }

    @classmethod
    def from_json_dict(cls, doc, name=""):
        try:
            dim = int(doc["dim"])
            simplices = {m: list(v) for m, v in enumerate(doc["simplices"])}
            faces = {(m, i, s): y for m, i, s, y in doc["faces"]}
            degs = {(m, i, s): y for m, i, s, y in doc["degeneracies"]}
            tokens = {m + 1: [(d["id"], d["under"]) for d in lvl]
                      for m, lvl in enumerate(doc["tokens"])}
            zeta = {(m, i, s): t for m, i, s, t in doc["zeta"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"bad tDelta-set document: {exc}") from exc
        return cls(dim, simplices, faces, degs, tokens, zeta, name=name)


# -- maps of tDelta-sets --------------------------------------------------------

class TDeltaMap:
    """Levelwise map, stored on non-degenerate simplices and free tokens.

    Degenerate simplex values derive through the Eilenberg-Zilber witness;
    comarked token values derive through zeta.  Checks and operations read
    per-level index tables that are computed once from the stored values.
    """

    def __init__(self, src, dst, simplex_map, token_map):
        self.src = src
        self.dst = dst
        self.simplex_map = dict(simplex_map)
        self.token_map = dict(token_map)

    @cached_property
    def _tables(self):
        """(simplex images, token images): per level, the target index of
        every source simplex or token; negative where the map is undefined,
        including stored values that name no element of the target."""
        A, X = self.src, self.dst
        out = ([], [None])
        for k, stored, ids, idx, wits, ops in (
                (0, self.simplex_map, A._ids, X._idx, A._deg_wit, X._deg),
                (1, self.token_map, A._tok_ids, X._tok_idx, A._zeta_wit,
                 X._zeta)):
            get = stored.get
            for m in range(k, A.dim + 1):
                at = idx[m] if m <= X.dim else {}
                row = [-2 if (v := get((m, s))) is None else at.get(v, -1)
                       for s in ids[m]]
                if 0 < m <= X.dim:   # derive through the witness one level down
                    below, op = out[0][m - 1], ops[m - 1]
                    for j, w in enumerate(wits[m]):
                        if w is not None and row[j] == -2 and below[w[1]] >= 0:
                            row[j] = op[w[0]][below[w[1]]]
                out[k].append(row)
        return out

    def _images(self, k):
        """(m, row) for every level of simplex (k=0) or token (k=1) images,
        in order; InvalidInput on reaching a row where the map is undefined."""
        for m, row in enumerate(self._tables[k]):
            if row and min(row) < 0:
                ids = (self.src._ids, self.src._tok_ids)[k][m]
                raise InvalidInput(
                    f"map undefined on {ids[row.index(min(row))]!r}")
            if row is not None:
                yield m, row

    def apply_simplex(self, m, sid):
        j = self._tables[0][m][self.src._idx[m][sid]]
        if j < 0:
            raise InvalidInput(f"map undefined on simplex {sid!r}")
        return self.dst._ids[m][j]

    def apply_token(self, m, tid):
        j = self._tables[1][m][self.src._tok_idx[m][tid]]
        if j < 0:
            raise InvalidInput(f"map undefined on token {tid!r}")
        return self.dst._tok_ids[m][j]

    def simplex_table(self):
        ids = self.dst._ids
        return {(m, s): ids[m][v] for m, row in self._images(0)
                for s, v in zip(self.src._ids[m], row)}

    def token_table(self):
        ids = self.dst._tok_ids
        return {(m, t): ids[m][v] for m, row in self._images(1)
                for t, v in zip(self.src._tok_ids[m], row)}

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
        stored = ({}, {})
        for k, wits, ids, out_ids in ((0, A._deg_wit, A._ids, self.dst._ids),
                                      (1, A._zeta_wit, A._tok_ids,
                                       self.dst._tok_ids)):
            for m in range(k, A.dim + 1):
                first, then = other._tables[k][m], self._tables[k][m]
                for j, w in enumerate(wits[m]):
                    v = then[first[j]] if w is None and first[j] >= 0 else -1
                    if v >= 0:
                        stored[k][(m, ids[m][j])] = out_ids[m][v]
                    elif w is None:
                        raise InvalidInput(
                            f"composite undefined on {ids[m][j]!r}")
        return TDeltaMap(A, self.dst, *stored)

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
        return all(
            (not a or min(a) >= 0) and
            [lhs[k] for k in a] == [x[k] for k in img]
            for lhs, a, x, img in checks)

    def to_json_dict(self):
        return {
            "simplices": [[m, s, v] for (m, s), v in sorted(self.simplex_map.items())],
            "tokens": [[m, t, v] for (m, t), v in sorted(self.token_map.items())],
        }


def map_from_json_dict(src, dst, doc):
    try:
        simp = {(m, s): v for m, s, v in doc["simplices"]}
        tok = {(m, t): v for m, t, v in doc["tokens"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"bad map document: {exc}") from exc
    return TDeltaMap(src, dst, simp, tok)


def identity_map(X):
    return inclusion_map(X, X)


def inclusion_map(A, X):
    """The inclusion when A's generators carry the same ids inside X."""
    simp = {(m, s): s for m in range(A.dim + 1) for s in A.nondegenerate_ids(m)}
    tok = {}
    for m in range(1, A.dim + 1):
        wit = A._zeta_wit[m]
        tok.update({(m, t): t for i, t in enumerate(A._tok_ids[m])
                    if wit[i] is None})
    return TDeltaMap(A, X, simp, tok)


# -- enumeration kernel -----------------------------------------------------------

def _iter_maps(A, X, budget, seed_simp=None, seed_tok=None, reverse=False):
    """Backtracking enumeration of tDelta-maps A -> X, canonical order.

    ``seed_simp``/``seed_tok`` pre-assign images (by integer index) and are
    used for lifting problems.  Yields (simg, timg) index arrays; the caller
    converts to TDeltaMap.  Raises BudgetExceeded when the node budget runs
    out.
    """
    if A.dim > X.dim:
        raise InvalidInput("domain truncation exceeds codomain truncation")
    steps = 0
    simg = [row[:] if row else [-1] * len(A._ids[m])
            for m, row in enumerate(seed_simp or [])] or \
        [[-1] * len(A._ids[m]) for m in range(A.dim + 1)]
    timg = [None] + [row[:] for row in (seed_tok or [None])[1:]] if seed_tok \
        else [None] + [[-1] * len(A._tok_ids[m]) for m in range(1, A.dim + 1)]

    slots = []
    for m in range(A.dim + 1):
        slots.append(("sfill", m))
        wit = A._deg_wit[m]
        for j in range(len(A._ids[m])):
            if wit[j] is None and simg[m][j] < 0:
                slots.append(("snd", m, j))
        if m >= 1:
            slots.append(("tfill", m))
            zwit = A._zeta_wit[m]
            for j in range(len(A._tok_ids[m])):
                if zwit[j] is None and timg[m][j] < 0:
                    slots.append(("tnd", m, j))

    x_tokens_over = X._tokens_over_idx
    x_boundary = X._by_boundary

    if X._zeta_simplex_determined:
        dfill = A._lean_tables
        tderive = tcheck = [()] * (A.dim + 1)
    else:
        dfill, tderive, tcheck = A._lift_tables

    def candidates(slot):
        kind = slot[0]
        if kind == "sfill":
            m = slot[1]
            below = simg[m - 1] if m else None
            here = simg[m]
            x_deg = X._deg[m - 1] if m else None
            writes = []
            for j, i, pre in dfill[m]:
                val = x_deg[i][below[pre]]
                cur = here[j]
                if cur < 0:
                    writes.append((m, j, val))
                elif cur != val:
                    return iter(())
            return iter([writes])
        if kind == "tfill":
            m = slot[1]
            below = simg[m - 1]
            here = timg[m]
            x_zeta = X._zeta[m - 1]
            writes = []
            vals = {}
            for t, i, x in tderive[m]:
                val = x_zeta[i][below[x]]
                cur = here[t]
                if cur < 0:
                    writes.append(("tok", m, t, val))
                    vals[t] = val
                elif cur != val:
                    return iter(())
                else:
                    vals[t] = val
            for t, i, x in tcheck[m]:
                if x_zeta[i][below[x]] != vals[t]:
                    return iter(())
            return iter([writes])
        if kind == "snd":
            _, m, j = slot
            if m == 0:
                cand = range(len(X._ids[0]))
            else:
                below = simg[m - 1]
                frow = A._face[m]
                key = tuple(below[frow[i][j]] for i in range(m + 1))
                cand = x_boundary[m].get(key, ())
            cand = list(cand)
            if reverse:
                cand.reverse()
            return iter([(m, j, v)] for v in cand)
        _, m, j = slot
        cand = list(x_tokens_over[m].get(simg[m][A._tok_under[m][j]], ()))
        if reverse:
            cand.reverse()
        return iter([("tok", m, j, v)] for v in cand)

    def write(ws):
        for w in ws:
            if w[0] == "tok":
                _, m, j, v = w
                timg[m][j] = v
            else:
                m, j, v = w
                simg[m][j] = v

    def erase(ws):
        for w in ws:
            if w[0] == "tok":
                _, m, j, _ = w
                timg[m][j] = -1
            else:
                m, j, _ = w
                simg[m][j] = -1

    if not slots:
        yield simg, timg
        return
    stack = [(candidates(slots[0]), None)]
    while stack:
        it, done = stack[-1]
        if done is not None:
            erase(done)
        try:
            ws = next(it)
        except StopIteration:
            stack.pop()
            continue
        steps += 1
        if steps > budget:
            raise BudgetExceeded(
                f"map search exceeded budget {budget} "
                f"({A.name or 'A'} -> {X.name or 'X'})")
        write(ws)
        stack[-1] = (it, ws)
        if len(stack) == len(slots):
            yield simg, timg
            continue
        stack.append((candidates(slots[len(stack)]), None))


def _to_map(A, X, simg, timg):
    simp = {}
    for m in range(A.dim + 1):
        wit = A._deg_wit[m]
        ids = A._ids[m]
        for j, w in enumerate(wit):
            if w is None:
                simp[(m, ids[j])] = X._ids[m][simg[m][j]]
    tok = {}
    for m in range(1, A.dim + 1):
        zwit = A._zeta_wit[m]
        ids = A._tok_ids[m]
        for j, w in enumerate(zwit):
            if w is None:
                tok[(m, ids[j])] = X._tok_ids[m][timg[m][j]]
    return TDeltaMap(A, X, simp, tok)


def count_generators(A):
    n = sum(len(A.nondegenerate_ids(m)) for m in range(A.dim + 1))
    for m in range(1, A.dim + 1):
        n += sum(1 for w in A._zeta_wit[m] if w is None)
    return n


def maps(A, X, budget=None, reverse=False):
    """Exhaustive, deterministic list of all tDelta-maps A -> X."""
    budget = get_budget(budget)
    if count_generators(A) > budget:
        raise BudgetExceeded("domain has more generators than the budget")
    return [_to_map(A, X, simg, timg)
            for simg, timg in _iter_maps(A, X, budget, reverse=reverse)]


def iter_maps(A, X, budget=None, reverse=False):
    budget = get_budget(budget)
    for simg, timg in _iter_maps(A, X, budget, reverse=reverse):
        yield _to_map(A, X, simg, timg)


def find_isomorphism(X, Y, budget=None):
    """First levelwise-bijective map X -> Y, or None."""
    if [len(r) for r in X._ids] != [len(r) for r in Y._ids]:
        return None
    if [len(r) for r in X._tok_ids[1:]] != [len(r) for r in Y._tok_ids[1:]]:
        return None
    for f in iter_maps(X, Y, budget=budget):
        if f.is_mono():
            return f
    return None


# -- standard stratified shapes -----------------------------------------------------

def _seq_id(seq):
    return "".join(map(str, seq))


def _build_simplicial(dim, level_seqs, marked, name):
    """Stratified object on monotone vertex sequences with minimal markings.

    ``level_seqs[m]`` lists the sequences present at level m (closed under
    faces and degeneracies); ``marked`` is a set of non-degenerate vertex
    tuples to mark on top of the degenerate ones.  The tables come straight
    from the ranks of vertex tuples within their level; each simplex's
    string id is derived once, and only fixes the order of its level.
    """
    ids, seqs, rank = [], [], []
    for level in level_seqs:
        pairs = sorted((_seq_id(s), s) for s in level)
        ids.append([sid for sid, _ in pairs])
        seqs.append([s for _, s in pairs])
        rank.append({s: j for j, (_, s) in enumerate(pairs)})
    face = [None] + [[[rank[m - 1][s[:i] + s[i + 1:]] for s in seqs[m]]
                      for i in range(m + 1)] for m in range(1, dim + 1)]
    deg = [[[rank[m + 1][s[:i + 1] + s[i:]] for s in seqs[m]]
            for i in range(m + 1)] for m in range(dim)] + [None]
    tok_ids, tok_under, tok_of = [None], [None], [None]
    for m in range(1, dim + 1):
        here = rank[m]
        under = sorted(set().union(*deg[m - 1],
                                   (here[s] for s in marked if s in here)))
        tok_of.append({j: t for t, j in enumerate(under)})
        tok_ids.append([f"t|{ids[m][j]}" for j in under])
        tok_under.append(under)
    zeta = [[[tok_of[m + 1][j] for j in row] for row in deg[m]]
            for m in range(dim)] + [None]
    X = TruncatedTDeltaSet.__new__(TruncatedTDeltaSet)
    X._install_ids(dim, ids, tok_ids, name)
    X._install_tables(face, deg, tok_under, zeta)
    return X


def _monotone(m, k):
    """Monotone sequences of length k+1 with values in 0..m."""
    return list(itertools.combinations_with_replacement(range(m + 1), k + 1))


def _filtered_levels(m, dim, keep):
    return [[s for s in _monotone(m, k) if keep(frozenset(s))]
            for k in range(dim + 1)]


def delta(m, dim=None, marked=(), name=None):
    """The m-simplex; ``marked`` lists vertex tuples marked on top."""
    dim = m if dim is None else dim
    if not all(isinstance(s, tuple) for s in marked):
        raise InvalidInput("marked simplices are given as vertex tuples")
    levels = [_monotone(m, k) for k in range(dim + 1)]
    return _build_simplicial(dim, levels, set(marked),
                             name or f"Delta[{m}]")


def delta_t(m, dim=None):
    dim = m if dim is None else dim
    if dim < m:
        raise InvalidInput("Delta[m]_t needs dim >= m")
    return delta(m, dim, marked={tuple(range(m + 1))}, name=f"Delta[{m}]_t")


def boundary(m, dim=None):
    dim = max(m - 1, 0) if dim is None else dim
    full = frozenset(range(m + 1))
    levels = _filtered_levels(m, dim, lambda vs: vs != full)
    return _build_simplicial(dim, levels, set(), f"dDelta[{m}]")


def _admissible(k, m):
    return frozenset(v for v in (k - 1, k, k + 1) if 0 <= v <= m)


def _nondegenerate(m, dim):
    """Non-degenerate vertex tuples of Delta[m] at levels 1..dim."""
    return [s for lvl in range(1, dim + 1)
            for s in itertools.combinations(range(m + 1), lvl + 1)]


def _marked_for_delta_k(k, m, dim):
    need = _admissible(k, m)
    return {s for s in _nondegenerate(m, dim) if need.issubset(s)}


def delta_k(k, m, dim=None):
    """The m-simplex with the k-admissible marking."""
    if not 0 <= k <= m:
        raise InvalidInput("need 0 <= k <= m")
    dim = m if dim is None else dim
    return delta(m, dim, marked=_marked_for_delta_k(k, m, dim),
                 name=f"Delta^{k}[{m}]")


def _delta_k_primed(k, m, dim, drops, name):
    """The k-admissible m-simplex with the faces opposite ``drops`` marked."""
    marked = _marked_for_delta_k(k, m, dim)
    marked.update(tuple(u for u in range(m + 1) if u != v)
                  for v in drops if 0 <= v <= m)
    return delta(m, dim, marked=marked, name=name)


def delta_k_prime(k, m, dim=None):
    dim = m if dim is None else dim
    return _delta_k_primed(k, m, dim, (k - 1, k + 1), f"Delta^{k}[{m}]'")


def delta_k_dprime(k, m, dim=None):
    dim = m if dim is None else dim
    return _delta_k_primed(k, m, dim, (k - 1, k, k + 1), f"Delta^{k}[{m}]''")


def horn(k, m, dim=None):
    """The k-horn of the m-simplex, marked as in the k-admissible simplex."""
    if not 0 <= k <= m:
        raise InvalidInput("need 0 <= k <= m")
    dim = m if dim is None else dim
    other = frozenset(v for v in range(m + 1) if v != k)
    levels = _filtered_levels(m, dim, lambda vs: not other <= vs)
    return _build_simplicial(dim, levels, _marked_for_delta_k(k, m, dim),
                             f"Horn^{k}[{m}]")


def delta3_eq(dim=3):
    marked = {(0, 2), (1, 3), (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
              (0, 1, 2, 3)}
    return delta(3, dim, marked=marked, name="Delta[3]_eq")


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
                degs[(m, i, la(a))] = la(A.degeneracy_of(m, i, a))
        for b in B.simplex_ids(m):
            for i in range(m + 1):
                degs[(m, i, rb(b))] = rb(B.degeneracy_of(m, i, b))
        for p in range(m):
            q = m - 1 - p
            for a in A.simplex_ids(p):
                for b in B.simplex_ids(q):
                    s = jn(a, b)
                    for i in range(m + 1):
                        if i <= p:
                            degs[(m, i, s)] = jn(A.degeneracy_of(p, i, a), b)
                        else:
                            degs[(m, i, s)] = jn(a, B.degeneracy_of(q, i - p - 1, b))

    return _tokens_from_marks(out_dim, simplices, faces, degs, marked,
                              name or f"{A.name} * {B.name}")


def _tokens_from_marks(dim, simplices, faces, degs, marked, name):
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
    return TruncatedTDeltaSet(dim, simplices, faces, degs, tokens, zeta,
                              name=name)


# -- colimit-style operations ----------------------------------------------------

def coproduct(parts, name=""):
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
                        degs[(m, i, tag(s))] = tag(P.degeneracy_of(m, i, s))
                        zeta[(m, i, tag(s))] = tag(P.zeta_of(m, i, s))
        for m in range(1, P.dim + 1):
            tokens[m] += [(tag(t), tag(P.under_of(m, t)))
                          for t in P.token_ids(m)]
    return TruncatedTDeltaSet(dim, simplices, faces, degs, tokens, zeta,
                              name=name)


def pushout(f, i, prefix="B.", name=""):
    """Pushout of f: A -> X along a monomorphism i: A -> B.

    Returns (P, X -> P, B -> P).  X keeps its ids; elements of B outside the
    image of i enter with the given prefix.
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
                degs[(m, k, s)] = X.degeneracy_of(m, k, s)
                zeta[(m, k, s)] = X.zeta_of(m, k, s)

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
                    degs[(m, k, sid)] = new_sid(m + 1, B.degeneracy_of(m, k, b))
                    zeta[(m, k, sid)] = new_tid(m + 1, B.zeta_of(m, k, b))
    for m in range(1, B.dim + 1):
        for t in B.token_ids(m):
            if (m, t) in t_img:
                continue
            tokens[m].append((new_tid(m, t), new_sid(m, B.under_of(m, t))))

    P = TruncatedTDeltaSet(dim, simplices, faces, degs, tokens, zeta, name=name)
    x_to_p = inclusion_map(X, P)
    b_simp = {(m, b): new_sid(m, b) for m in range(B.dim + 1)
              for b in B.nondegenerate_ids(m)}
    b_tok = {}
    for m in range(1, B.dim + 1):
        wit = B._zeta_wit[m]
        b_tok.update({(m, t): new_tid(m, t)
                      for k, t in enumerate(B._tok_ids[m]) if wit[k] is None})
    b_to_p = TDeltaMap(B, P, b_simp, b_tok)
    return P, x_to_p, b_to_p


def pushout_family(X, gluings, prefix="g", name=""):
    """Simultaneous pushout of a finite family of (f_k: A_k -> X, i_k: A_k -> B_k).

    One pushout of the copairing of the f_k along the coproduct of the i_k.
    The coproducts tag ids with the family index, so an element of B_k
    outside the image of i_k enters P as ``{prefix}{k}:{id}``.  Returns
    (P, X -> P, [B_k -> P]).
    """
    if not gluings:
        return X, identity_map(X), []
    A = coproduct([f.src for f, _ in gluings])
    B = coproduct([i.dst for _, i in gluings])
    f = _on_summands([f for f, _ in gluings], A, X, tag_values=False)
    i = _on_summands([i for _, i in gluings], A, B, tag_values=True)
    P, x_to_p, b_to_p = pushout(f, i, prefix=prefix, name=name)
    b_maps = []
    for k, (_, ik) in enumerate(gluings):
        gens = inclusion_map(ik.dst, ik.dst)  # B_k -> P: b_to_p on summand k
        simp = {(m, x): b_to_p.apply_simplex(m, f"{k}:{x}")
                for m, x in gens.simplex_map}
        tok = {(m, x): b_to_p.apply_token(m, f"{k}:{x}")
               for m, x in gens.token_map}
        b_maps.append(TDeltaMap(ik.dst, P, simp, tok))
    return P, x_to_p, b_maps


def _on_summands(maps, src, dst, tag_values):
    """The map out of the coproduct src that is maps[k] on its k-th summand;
    with tag_values, into the k-th summand of the coproduct dst."""
    stored = ({}, {})
    for k, f in enumerate(maps):
        for out, part in zip(stored, (f.simplex_map, f.token_map)):
            out.update({(m, f"{k}:{x}"): f"{k}:{v}" if tag_values else v
                        for (m, x), v in part.items()})
    return TDeltaMap(src, dst, *stored)


def identify_markings(X, name=None, labels=None):
    """Collapse the tokens of X into classes, one token per class.

    ``labels`` maps each (level, token) to the id of its class, and the
    tokens of a class must lie over one simplex.  By default all tokens
    over one simplex form one class, labelled by its least member; then Q
    is stratified and the operation is idempotent.  Q adopts the simplices,
    faces and degeneracies of X.  Returns (Q, X -> Q).
    """
    if labels is None:
        labels = {}
        for m in range(1, X.dim + 1):
            least = {}
            for t, u in zip(X._tok_ids[m], X._tok_under[m]):
                least[u] = min(least.get(u, t), t)
            labels.update({(m, t): least[u]
                           for t, u in zip(X._tok_ids[m], X._tok_under[m])})
    tok_ids, tok_under, cls = [None], [None], [None]
    for m in range(1, X.dim + 1):
        under = {}
        for t, u in zip(X._tok_ids[m], X._tok_under[m]):
            if under.setdefault(labels[(m, t)], u) != u:
                raise InvalidInput(f"token class {labels[(m, t)]!r} lies "
                                   "over more than one simplex")
        tok_ids.append(sorted(under))
        tok_under.append([under[q] for q in tok_ids[m]])
        rank = {q: j for j, q in enumerate(tok_ids[m])}
        cls.append([rank[labels[(m, t)]] for t in X._tok_ids[m]])
    zeta = [[[cls[m + 1][t] if t >= 0 else -1 for t in row]
             for row in X._zeta[m]] for m in range(X.dim)] + [None]
    Q = TruncatedTDeltaSet.__new__(TruncatedTDeltaSet)
    Q._install_ids(X.dim, X._ids, tok_ids, name or f"{X.name}/~")
    Q._install_tables(X._face, X._deg, tok_under, zeta)
    gens = inclusion_map(X, Q)  # the simplices; free tokens go to their class
    to_q = TDeltaMap(X, Q, gens.simplex_map,
                     {key: labels[key] for key in gens.token_map})
    return Q, to_q
