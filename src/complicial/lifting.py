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
    face operators, so domain marking constraints and the lift test reduce
    to indexed lookups.
    """

    __slots__ = (
        "kind",          # "simplex" | "horn"
        "m", "k",
        "slots",         # face positions carrying the family ("horn" only)
        "chains",        # A nondeg (level, idx) -> (slot_pos, drops)
        "domain_marks",  # (level, slot_pos, drops) that must be marked in X
        "lift_marks",    # same, for the extra marked simplices of B
        "fk_faces")      # ("horn") chains for the faces of the missing face


def _nondeg_chains(A, tops):
    """Reach every non-degenerate simplex of A from the top slots by faces."""
    chains = {}
    frontier = []
    for pos, (lvl, idx) in enumerate(tops):
        chains[(lvl, idx)] = (pos, ())
        frontier.append((lvl, idx))
    while frontier:
        lvl, idx = frontier.pop(0)
        pos, drops = chains[(lvl, idx)]
        if lvl == 0:
            continue
        for i in range(lvl + 1):
            tgt = A._face[lvl][i][idx]
            key = (lvl - 1, tgt)
            if key not in chains:
                chains[key] = (pos, drops + (i,))
                frontier.append(key)
    return chains


def _free_token_unders(S):
    out = []
    for m in range(1, S.dim + 1):
        under = S._tok_under[m]
        free = set(range(len(under))).difference(*S._zeta[m - 1])
        out += [(m, under[t]) for t in sorted(free)]
    return out


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
        fk_faces = None
        if m >= 2:
            fk = B._face[m][k][top]
            fk_faces = [chains[(m - 2, in_horn(m - 2, B._face[m - 1][i][fk]))]
                        for i in range(m)]
    else:
        m, k, slots, fk_faces = A.dim, None, [None], None
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
                 sorted(set(lift_marks)), fk_faces)


def _chase(X, values, lvl_from, pos, drops):
    v = values[pos]
    lvl = lvl_from
    for d in drops:
        v = X._face[lvl][d][v]
        lvl -= 1
    return v


def _plan_marks_ok(X, plan, values, lvl_from, marks):
    toks = X._tokens_over_idx
    for lvl, pos, drops in marks:
        if not toks[lvl].get(_chase(X, values, lvl_from, pos, drops)):
            return False
    return True


def _plan_lift_exists(X, plan, values, lvl_from):
    if not _plan_marks_ok(X, plan, values, lvl_from, plan.lift_marks):
        return False
    if plan.kind == "simplex":
        return True
    m, k = plan.m, plan.k
    if m >= 2:
        gkey = tuple(_chase(X, values, lvl_from, pos, drops)
                     for pos, drops in plan.fk_faces)
        cands = X._by_boundary[m - 1].get(gkey, ())
    else:
        cands = range(len(X._ids[0]))
    key = [-1] * (m + 1)
    for pos, j in enumerate(plan.slots):
        key[j] = values[pos]
    toks = X._tokens_over_idx[m]
    bb = X._by_boundary[m]
    for g in cands:
        key[k] = g
        for top in bb.get(tuple(key), ()):
            if toks.get(top):
                return True
    return False


def _iter_domain_parts(X, plan, budget):
    """Underlying simplicial maps out of the extension domain.

    Yields tuples of X simplex indices, one per slot: the single top for
    simplex-shaped domains, the face family for horns.
    """
    steps = 0
    if plan.kind == "simplex":
        for x in range(len(X._ids[plan.m])):
            steps += 1
            if steps > budget:
                raise BudgetExceeded(f"{steps} domain nodes")
            if _plan_marks_ok(X, plan, (x,), plan.m, plan.domain_marks):
                yield (x,)
        return
    # prefix indexes: slot p needs faces at positions slots[:p]
    m = plan.m
    slots = plan.slots
    level = m - 1
    size = len(X._ids[level])
    prefixes = []
    for p in range(1, len(slots)):
        d = {}
        rows = [X._face[level][i] for i in slots[:p]]
        for y in range(size):
            d.setdefault(tuple(r[y] for r in rows), []).append(y)
        prefixes.append(d)
    values = []

    def candidates(p):
        if p == 0:
            return iter(range(size))
        face = X._face[level][slots[p] - 1]
        return iter(prefixes[p - 1].get(tuple(face[v] for v in values), ()))

    stack = [candidates(0)]  # depth first: one iterator per filled slot + 1
    while stack:
        y = next(stack[-1], None)
        if y is None:
            stack.pop()
            if values:
                values.pop()
            continue
        steps += 1
        if steps > budget:
            raise BudgetExceeded(f"{steps} domain nodes")
        values.append(y)
        if len(values) < len(slots):
            stack.append(candidates(len(values)))
            continue
        if _plan_marks_ok(X, plan, values, level, plan.domain_marks):
            yield tuple(values)
        values.pop()


def _part_to_map(X, ext, plan, values):
    """Materialize a witness TDeltaMap from a family of slot values."""
    A = ext.A
    lvl_from = plan.m if plan.kind == "simplex" else plan.m - 1
    simg = [[-1] * len(level) for level in A._ids]
    for (lvl, idx), (pos, drops) in plan.chains.items():
        simg[lvl][idx] = _chase(X, values, lvl_from, pos, drops)
    timg = [None] + [[min(X._tokens_over_idx[m][simg[m][u]]) if w is None
                      else -1 for u, w in zip(A._tok_under[m], A._zeta_wit[m])]
                     for m in range(1, A.dim + 1)]
    return map_on_generators(A, X, simg, timg)


def check_extension(X, ext, budget=None):
    """Search every map ext.A -> X for a lift; stop at the first failure.

    Token images never influence liftability, so the search runs over
    underlying simplicial parts; ``maps_checked`` counts those.
    """
    budget = get_budget(budget)
    plan = _compile_plan(ext)
    lvl_from = plan.m if plan.kind == "simplex" else plan.m - 1
    checked = 0
    try:
        for values in _iter_domain_parts(X, plan, budget):
            checked += 1
            if not _plan_lift_exists(X, plan, values, lvl_from):
                return ExtensionResult(ext, checked,
                                       _part_to_map(X, ext, plan, values))
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"{ext.label()}: {exc}") from None
    return ExtensionResult(ext, checked, None)


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
