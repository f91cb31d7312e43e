"""Elementary anodyne extensions and exhaustive right-lifting checks.

The four generating families, at triviality index n and dimension bound N:

* horn        Horn^k[m] -> Delta^k[m]          1 <= m <= N, 0 <= k <= m
* thinness    Delta^k[m]' -> Delta^k[m]''      2 <= m <= N, 0 <= k <= m
* triviality  Delta[l] -> Delta[l]_t           n <  l <= N
* saturation  Delta[l]*Delta[3]_eq -> Delta[l]*Delta[3]#   -1 <= l <= N-4
              (l = -1 means no join factor)

``is_precomplicial`` runs every map from every extension domain into X and
looks for lifts; a missing lift is reported with its witnessing map so the
failure can be replayed in isolation.  Budget exhaustion is a third outcome,
never conflated with a definitive "no lift".
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress

from . import tdelta
from .record import Record
from .tdelta import (BudgetExceeded, get_budget, inclusion_map,
                     map_on_generators)
from .twocat import InvalidInput


class AnodyneExtension(Record):
    __slots__ = ("family", "params", "A", "B")  # params: sorted (key, value)

    @property
    def inclusion(self):
        return inclusion_map(self.A, self.B)

    def label(self):
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({inner})"


def thinness(k, m):
    """Delta^k[m]' -> Delta^k[m]''."""
    return AnodyneExtension("thinness", (("k", k), ("m", m)),
                            tdelta.delta_k_prime(k, m, dim=m),
                            tdelta.delta_k_dprime(k, m, dim=m))


def saturation(l):
    """Delta[l]*Delta[3]_eq -> Delta[l]*Delta[3]#; l = -1 means no join factor."""
    if l == -1:
        A, B = tdelta.delta3_eq(3), tdelta.delta3_sharp(3)
    else:
        pad = l + 4
        base = tdelta.delta(l, dim=pad)
        A = tdelta.join(base, tdelta.delta3_eq(dim=pad), out_dim=pad,
                        name=f"Delta[{l}]*Delta[3]_eq")
        B = tdelta.join(base, tdelta.delta3_sharp(dim=pad), out_dim=pad,
                        name=f"Delta[{l}]*Delta[3]#")
    return AnodyneExtension("saturation", (("l", l),), A, B)


def anodyne_library(n=2, N=5):
    """All elementary anodyne extensions up to dimension N, canonical order."""
    if N > tdelta.MAX_DIM:
        raise InvalidInput(f"anodyne library capped at dimension "
                           f"{tdelta.MAX_DIM}")
    out = []
    for m in range(1, N + 1):
        for k in range(m + 1):
            out.append(AnodyneExtension(
                "horn", (("k", k), ("m", m)),
                tdelta.horn(k, m, dim=m), tdelta.delta_k(k, m, dim=m)))
    out += [thinness(k, m) for m in range(2, N + 1) for k in range(m + 1)]
    for l in range(n + 1, N + 1):
        out.append(AnodyneExtension(
            "triviality", (("l", l),),
            tdelta.delta(l, dim=l), tdelta.delta_t(l, dim=l)))
    out += [saturation(l) for l in range(-1, N - 3)]
    return out


class ExtensionResult(Record):
    __slots__ = ("extension", "maps_checked", "witness")  # a map with no lift

    @property
    def passed(self):
        return self.witness is None


class FibrancyReport(Record):
    __slots__ = ("n", "dim", "results")

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def by_family(self):
        fam = {}
        for r in self.results:
            cur = fam.setdefault(r.extension.family,
                                 {"passed": True, "maps_checked": 0})
            cur["maps_checked"] += r.maps_checked
            cur["passed"] = cur["passed"] and r.passed
        return fam

    def failures(self):
        return [r for r in self.results if not r.passed]

    def to_json_dict(self):
        return {
            "n": self.n,
            "dim": self.dim,
            "passed": self.passed,
            "classes": self.by_family(),
            "extensions": [
                {
                    "family": r.extension.family,
                    "params": dict(r.extension.params),
                    "maps_checked": r.maps_checked,
                    "passed": r.passed,
                    "witness": None if r.witness is None
                    else r.witness.to_json_dict(),
                }
                for r in self.results],
        }


class _Plan(Record):
    """Compiled shape data for one elementary extension.

    Every domain in the library has underlying simplicial set either a
    standard simplex or a horn; a map out of it is a top simplex of X,
    respectively a pairwise-compatible family of (m-1)-simplices.  Each
    non-degenerate domain simplex is reached from a slot by a chain of
    face operators, so every marking constraint is one on a single slot.
    """

    __slots__ = (
        "kind",          # "simplex" | "horn"
        "m", "k",
        "slots",         # face positions carrying the family ("horn" only)
        "chains",        # A nondeg (level, idx) -> (slot_pos, drops)
        "domain_marks",  # (level, slot_pos, drops) that must be marked in X
        "lift_marks")    # same, for the extra marked simplices of B


def _nondeg_chains(A, tops):
    """Reach every non-degenerate simplex of A from the top slots by faces,
    breadth first."""
    chains = {top: (pos, ()) for pos, top in enumerate(tops)}
    frontier = list(tops)
    for lvl, idx in frontier:  # the frontier grows as the loop runs
        pos, drops = chains[(lvl, idx)]
        for i in range(lvl + 1 if lvl else 0):
            key = (lvl - 1, A._face[lvl][i][idx])
            if key not in chains:
                chains[key] = (pos, drops + (i,))
                frontier.append(key)
    return chains


def _free_token_unders(S):
    return [(m, u) for m, comarked in enumerate(S._derived[1]) if m
            for t, u in enumerate(S._tok_under[m]) if t not in comarked]


def _compile_plan(ext):
    A, B = ext.A, ext.B
    params = dict(ext.params)
    if ext.family == "horn":
        m, k = params["m"], params["k"]
        slots = [j for j in range(m + 1) if j != k]
        top = B._idx[m][B.nondegenerate_ids(m)[0]]

        def in_horn(lvl, face):  # a face of B's top, as a simplex of A
            return A._idx[lvl][B._ids[lvl][face]]

        tops = [(m - 1, in_horn(m - 1, B._face[m][j][top])) for j in slots]
        chains = _nondeg_chains(A, tops)
    else:
        m, k, slots = A.dim, None, [None]
        nd_top = A.nondegenerate_ids(m)
        if len(nd_top) != 1:
            raise InvalidInput(
                f"{ext.label()}: expected a simplex-shaped domain")
        chains = _nondeg_chains(A, [(m, A._idx[m][nd_top[0]])])
    domain_marks = []
    for lvl, under in _free_token_unders(A):
        pos, drops = chains[(lvl, under)]
        domain_marks.append((lvl, pos, drops))
    # per level: the simplices of B under a token whose id A lacks
    fresh = [None] + [{B._tok_under[lvl][B._tok_idx[lvl][t]] for t in
                       set(B._tok_ids[lvl]).difference(A.token_ids(lvl))}
                      for lvl in range(1, B.dim + 1)]
    lift_marks = []
    for lvl, under in _free_token_unders(B):
        if under not in fresh[lvl]:
            continue  # every token over it already lives in the domain
        bid = B._ids[lvl][under]
        if bid not in A._idx[lvl]:
            if ext.family != "horn":
                raise InvalidInput(
                    f"{ext.label()}: new simplex outside a horn extension")
            continue  # the horn top; its mark is checked by the fill search
        pos, drops = chains[(lvl, A._idx[lvl][bid])]
        lift_marks.append((lvl, pos, drops))
    return _Plan(ext.family if ext.family == "horn" else "simplex",
                 m, k, slots, chains, sorted(set(domain_marks)),
                 sorted(set(lift_marks)))


def _passing(X, lvl_from, values, marks, pos=0):
    """The values, simplex indices of X at lvl_from, in order, that slot pos
    admits: for each (level, pos, drops) in marks, the face along drops is
    marked.  Filtered one mark at a time."""
    for lvl, p, drops in marks:
        if p != pos:
            continue
        img = values
        for at, d in zip(range(lvl_from, lvl, -1), drops):
            img = map(X._face[at][d].__getitem__, img)
        marked = X._tokens_over_idx[lvl]
        values = list(compress(values, map(marked.__contains__, img)))
    return values


def _search(X, plan, budget):
    """(maps checked, slot values of the first map without a lift or None).

    A map is a simplex of X, or for a horn a compatible family of
    (m-1)-simplices, one per slot, drawn depth first in index order; each
    value drawn is a domain node, and drawing node budget + 1 raises
    BudgetExceeded.  The marks a value meets are read off per-slot tables;
    a horn lifts iff a marked m-simplex of X (valid, so its missing face
    fits) has the family as its faces at the slots."""
    m, slots = plan.m, plan.slots
    if plan.kind == "simplex":
        size = len(X._ids[m])
        good = _passing(X, m, range(min(size, budget)), plan.domain_marks)
        lifts = set(_passing(X, m, good, plan.lift_marks))
        bad = next((i for i, x in enumerate(good) if x not in lifts), None)
        if bad is not None:
            return bad + 1, (good[bad],)
        if size > budget:
            raise BudgetExceeded
        return len(good), None
    level, last = m - 1, len(slots) - 1
    size, face = len(X._ids[level]), X._face[level]
    dom = [_passing(X, level, range(size), plan.domain_marks, p)
           for p in range(last + 1)]
    lift = [set(_passing(X, level, values, plan.lift_marks, p))
            for p, values in enumerate(dom)]
    dom = [set(values) for values in dom]
    tops = list(X._tokens_over_idx[m])
    filled = set(zip(*[list(map(X._face[m][j].__getitem__, tops))
                       for j in slots]))
    prefixes = []  # slot p draws the values whose faces fit the slots before
    for p in range(1, last + 1):
        prefixes.append({})
        for y, key in enumerate(zip(*[face[j] for j in slots[:p]])):
            prefixes[-1].setdefault(key, []).append(y)
    steps = checked = 0
    for y in range(size):  # depth first over the first slot, level-wise below
        steps += 1
        if steps > budget:
            raise BudgetExceeded
        levels = [[(y,)]]
        for d, row in zip(prefixes, (face[j - 1] for j in slots[1:])):
            levels.append([t + (z,) for t in levels[-1]
                           for z in d.get(tuple(map(row.__getitem__, t)), ())])
        leaves, below = levels[-1], sum(map(len, levels)) - 1
        if steps + below > budget:  # keep the leaves drawn within the budget
            leaves = [t for t in leaves if steps + sum(
                bisect_left(levels[p], t[:p + 1]) + 1
                for p in range(1, last + 1)) <= budget]
        good = [t for t in leaves if all(map(set.__contains__, dom, t))]
        bad = next((i for i, t in enumerate(good) if t not in filled or
                    not all(map(set.__contains__, lift, t))), None)
        if bad is not None:
            return checked + bad + 1, good[bad]
        checked += len(good)
        steps += below
        if steps > budget:
            raise BudgetExceeded
    return checked, None


def _part_to_map(X, ext, plan, values):
    """Materialize a witness TDeltaMap from a family of slot values."""
    A = ext.A
    lvl_from = plan.m if plan.kind == "simplex" else plan.m - 1
    simg = [[-1] * len(level) for level in A._ids]
    for (lvl, idx), (pos, drops) in plan.chains.items():
        v = values[pos]
        for at, d in zip(range(lvl_from, lvl, -1), drops):
            v = X._face[at][d][v]
        simg[lvl][idx] = v
    timg = [None] + [[min(X._tokens_over_idx[m][simg[m][u]])
                      if t not in comarked else -1
                      for t, u in enumerate(A._tok_under[m])]
                     for m, comarked in enumerate(A._derived[1]) if m]
    return map_on_generators(A, X, simg, timg)


def check_extension(X, ext, budget=None):
    """Search every map ext.A -> X for a lift; stop at the first failure.

    Token images never influence liftability, so the search runs over
    underlying simplicial parts; ``maps_checked`` counts those.
    """
    budget = get_budget(budget)
    plan = _compile_plan(ext)
    try:
        checked, values = _search(X, plan, budget)
    except BudgetExceeded:
        raise BudgetExceeded(f"{ext.label()}: {budget + 1} domain nodes") \
            from None
    return ExtensionResult(ext, checked, None if values is None
                           else _part_to_map(X, ext, plan, values))


def is_precomplicial(X, n=2, N=None, budget=None):
    """Right-lifting report of X against the anodyne library."""
    N = X.dim if N is None else N
    if n < 0:
        raise InvalidInput(f"triviality index n = {n} must be >= 0")
    if N < 0:
        raise InvalidInput(f"dimension bound N = {N} must be >= 0")
    if N > X.dim:
        raise InvalidInput("dimension bound exceeds the truncation of X")
    budget = get_budget(budget)
    results = [check_extension(X, ext, budget) for ext in anodyne_library(n, N)]
    return FibrancyReport(n, N, results)
