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

from functools import reduce
from itertools import accumulate, compress, count
from operator import and_, gt, mul

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


def _definition(ext):
    """(m, k, A's marked vertex tuples, B's, index) of ext's family at its
    params, as the shape builders take them: both shapes lie on Delta[m]
    at dim m (A on the k-horn of it for a horn), and index(t) is the index
    in A of the simplex on the vertex tuple t."""
    params, family = dict(ext.params), ext.family
    if family == "horn":
        m, k = params["m"], params["k"]
        marked = tdelta._marked_for_delta_k(k, m, m)
        rank = tdelta._delta_tables(m, m)[0]
        # the horn lacks one (m-1)-simplex, its face opposite k
        gap = rank[m - 1][tuple(v for v in range(m + 1) if v != k)]
        return m, k, marked, marked, lambda t: rank[len(t) - 1][t] - (
            len(t) == m and rank[m - 1][t] > gap)
    if family == "thinness":
        m, k = params["m"], params["k"]
        A, B = (tdelta._primed_marks(k, m, m, drops)
                for drops in ((k - 1, k + 1), (k - 1, k, k + 1)))
    elif family == "triviality":
        m = params["l"]
        A, B = set(), {tuple(range(m + 1))}
    elif family == "saturation":
        l = params["l"]
        m = l + 4 if l >= 0 else 3
        A, B = tdelta._DELTA3_EQ, set(tdelta._nondegenerate(3, 3))
        if l >= 0:
            return _joined(l, A, B)
    else:
        raise InvalidInput(f"{ext.label()}: not an elementary anodyne family")
    rank = tdelta._delta_tables(m, m)[0]
    return m, None, A, B, lambda t: rank[len(t) - 1][t]


def _joined(l, *right):
    """``_definition`` of Delta[l]*R -> Delta[l]*R' for the marked vertex
    tuples R and R' of Delta[3]: the join is Delta[l + 4], its tuple t the
    simplex a*b of its vertices a up to l and b above l (shifted down by
    l + 1), marked where b is; each level in the string order of the ids
    ``a*b``."""
    m = l + 4
    rank, ids = tdelta._delta_tables(m, m)[:2]
    low, shift = "".join(map(str, range(l + 1))), str.maketrans(
        "".join(map(str, range(l + 1, m + 1))), "0123")

    def name(sid):  # the id a*b of the simplex with the id sid in Delta[m]
        b = sid.lstrip(low)
        return sid[:len(sid) - len(b)] + "*" + b.translate(shift)

    place = []
    for level in ids:
        names = list(map(name, level))
        place.append(dict(zip(sorted(range(len(level)),
                                     key=names.__getitem__), count())))
    return (m, None, *({t for t in tdelta._nondegenerate(m, m)
                        if tuple(v - l - 1 for v in t if v > l) in marks}
                       for marks in right),
            lambda t: place[len(t) - 1][rank[len(t) - 1][t]])


def _compile_plan(ext):
    """The plan of ext from its family's definition (``_definition``):
    the chains are reached breadth first from the top slots, each face
    d_i in order of i, and they and the marks are read off vertex tuples
    before the chains are keyed by the indices of A."""
    m, k, marked_a, marked_b, index = _definition(ext)
    if ext.family == "horn":
        slots = [j for j in range(m + 1) if j != k]
        tops = [tuple(v for v in range(m + 1) if v != j) for j in slots]
    else:
        slots, tops = [None], [tuple(range(m + 1))]
    chains = {top: (pos, ()) for pos, top in enumerate(tops)}
    frontier = list(tops)
    for s in frontier:  # the frontier grows as the loop runs
        pos, drops = chains[s]
        for i in range(len(s) if len(s) > 1 else 0):
            face = s[:i] + s[i + 1:]
            if face not in chains:
                chains[face] = (pos, drops + (i,))
                frontier.append(face)

    def marks(tuples):  # a horn lacks its top and its face opposite k
        return sorted({(len(t) - 1, *chains[t]) for t in tuples
                       if len(t) > 1 and t in chains})

    return _Plan(ext.family if ext.family == "horn" else "simplex", m, k,
                 slots, {(len(t) - 1, index(t)): c for t, c in chains.items()},
                 marks(marked_a), marks(set(marked_b) - set(marked_a)))


def _table(X, key, build):
    """X's memo entry at key, built by build() on first use."""
    if key not in X._memo:
        X._memo[key] = build()
    return X._memo[key]


def _marked_along(X, lvl_from, drops):
    """Per simplex of X at lvl_from, whether its face along drops is marked;
    None where all of them are.  The face deletes a set of vertex
    positions, whichever order drops names them in."""
    kept = list(range(lvl_from + 1))
    for d in drops:
        del kept[d]
    return _marked_after(X, lvl_from, tuple(sorted(
        set(range(lvl_from + 1)).difference(kept), reverse=True)))


def _marked_after(X, lvl, gone):
    """``_marked_along`` for the face that deletes the vertex positions
    gone, highest first: the mask one level down for the rest of gone, read
    through d_{gone[0]}.  Kept in X's memo."""
    def build():
        if gone:
            below = _marked_after(X, lvl - 1, gone[1:])
            mask = below and list(map(below.__getitem__, X._face[lvl][gone[0]]))
        else:
            mask = list(map(X._tokens_over_idx[lvl].__contains__,
                            range(len(X._ids[lvl]))))
        return mask if mask and not all(mask) else None

    return _table(X, ("marked", lvl, gone), build)


def _admitted(X, lvl_from, marks, pos=0):
    """Per simplex of X at lvl_from, whether slot pos admits it: for each
    (level, pos, drops) in marks, its face along drops is marked; None where
    every simplex is admitted."""
    masks = [mask for _, p, drops in marks if p == pos
             for mask in [_marked_along(X, lvl_from, drops)] if mask]
    return reduce(lambda a, b: list(map(and_, a, b)), masks) if masks \
        else None


# the most domain nodes that one block of a horn walk is bounded by
_BLOCK_NODES = 1 << 16


def _search(X, plan, budget):
    """(maps checked, slot values of the first map without a lift or None).

    A map is a simplex of X, or for a horn a compatible family of
    (m-1)-simplices, one per slot, drawn depth first in index order; each
    value drawn is a domain node, and drawing node budget + 1 raises
    BudgetExceeded.  A horn lifts iff a marked m-simplex of X (valid, so
    its missing face fits) has the family as its faces at the slots.

    A horn's families are drawn level by level for a block of first-slot
    values at once (``tdelta.compatible_columns``), slot p from the
    face-keyed table of its faces at the slots before it.  Where the bound
    sum_p prod_{q <= p} B_q on the nodes of the whole walk (B_0 the
    first-slot values, B_q the largest list of slot q's table) is within
    the budget, the budget cannot bind, and each value that its slot's
    domain marks refuse is dropped with its subtree: the families left are
    the maps, in depth-first order.  Otherwise every node is drawn, and the
    node index of a family is the sum of its prefixes' rows, plus one each,
    in their columns."""
    m, slots = plan.m, plan.slots
    if plan.kind == "simplex":
        size = len(X._ids[m])
        dom, lift = (_admitted(X, m, marks)
                     for marks in (plan.domain_marks, plan.lift_marks))
        good = range(min(size, budget))
        if dom:
            good = list(compress(good, dom))
        bad = next((i for i, x in enumerate(good) if not lift[x]), None) \
            if lift else None
        if bad is not None:
            return bad + 1, (good[bad],)
        if size > budget:
            raise BudgetExceeded
        return len(good), None
    level, face = m - 1, X._face[m - 1]
    dom, lift = ([_admitted(X, level, marks, p) for p in range(len(slots))]
                 for marks in (plan.domain_marks, plan.lift_marks))
    fits = [_table(X, ("fits", level, tuple(slots[:p])),
                  lambda p=p: tdelta.face_table(face, slots[:p]))
            for p in range(1, len(slots))]
    tops = _table(X, ("tops", m), lambda: [  # the marked m-simplices' faces
        list(map(row.__getitem__, X._tokens_over_idx[m]))
        for row in X._face[m]])
    filled = set(zip(*[tops[j] for j in slots]))
    below = 1 + sum(accumulate((max(map(len, t.values()), default=0)
                                for t in fits), mul))
    first = range(len(X._ids[level]))
    prune = len(first) * below <= budget
    if prune:
        if dom[0]:
            first = list(compress(first, dom[0]))
        fits = [t if not ok else {key: kept for key, ys in t.items()
                                  for kept in [list(compress(ys, map(
                                      ok.__getitem__, ys)))] if kept}
                for t, ok in zip(fits, dom[1:])]
    block = max(1, _BLOCK_NODES // below)
    steps = checked = 0
    for lo in range(0, len(first), block):
        part = first[lo:lo + block]
        cols, reps = tdelta.compatible_columns(face, slots, fits, part)
        lifts = list(map(filled.__contains__, zip(*cols)))
        for ok, col in zip(lift, cols):
            if ok:
                lifts = list(map(and_, lifts, map(ok.__getitem__, col)))
        good = [True] * len(lifts)
        if not prune:
            for ok, col in zip(dom, cols):
                if ok:
                    good = list(map(and_, good, map(ok.__getitem__, col)))
        bad = next(compress(count(), map(gt, good, lifts)), None)
        if bad is not None:
            at, r = steps + bad + 1, bad
            for rep in reversed(reps):
                r = rep[r]
                at += r + 1
            if at > budget:
                raise BudgetExceeded
            return checked + sum(good[:bad]) + 1, tuple(c[bad] for c in cols)
        checked += sum(good)
        steps += len(part) + sum(map(len, reps))
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
