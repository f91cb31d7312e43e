"""Independent oracles for the engine; no command runs them.

Each checks a statement of the paper, or a fast search of the engine, by a
second and simpler route: the generic map search (every tDelta-map A -> X)
checks the lift plans of ``lifting.check_extension`` and the universal
properties of the constructions; the 2-functor count and ``nerve_map``
check nerve sizes and that the nerve is fully faithful;
``rs_fibrancy_prediction`` predicts the fibrancy of identity-marked nerves;
``evaluate_presentation`` checks categorification against the 2-category
it came from; the string-keyed general pushout ``ref_pushout`` (which may
append simplices) and its fold ``fold_of_ref_pushouts`` check the gluings
of marks built on index tables; ``opposite`` and ``opposite_category``
check the lift search and the nerve against their mirror images;
``witnesses`` gives each degenerate simplex and comarked token its
Eilenberg-Zilber witness, from which the generic search and the map
references fill in images one element at a time.
"""

from __future__ import annotations

import weakref

from complicial import nerves, twocat
from complicial.categorify import PastingFactor, Word
from complicial.lifting import ExtensionResult, _Plan
from complicial.record import Record
from complicial.tdelta import (BudgetExceeded, TruncatedTDeltaSet,
                               get_budget, identity_map, inclusion_map,
                               map_from_json_dict, map_on_generators,
                               _images_along)
from complicial.twocat import FiniteTwoCategory, InvalidInput, OneCell, TwoCell


# -- generic map search ---------------------------------------------------------

_TABLES = weakref.WeakKeyDictionary()  # A -> _lift_tables(A)
_BOUNDARIES = weakref.WeakKeyDictionary()  # X -> _by_boundary(X)
_WITNESSES = weakref.WeakKeyDictionary()  # A -> witnesses(A)


def witnesses(A):
    """(simplex, token) witness tables of A: per level, for each degenerate
    simplex the (i, preimage index) writing it as s_i, and for each
    comarked token the (i, simplex index) writing it as zeta_i, with the
    smallest such i and then the last preimage; None for a non-degenerate
    simplex and a free token.  Entries -1 of A's rows write nothing."""
    if A not in _WITNESSES:
        out = ([[None] * len(level) for level in A._ids],
               [None] + [[None] * len(level) for level in A._tok_ids[1:]])
        for wit, table in zip(out, (A._deg, A._zeta)):
            for m in range(A.dim):  # the last write, of the smallest i, wins
                for i in reversed(range(m + 1)):
                    for j, target in enumerate(table[m][i]):
                        if target >= 0:
                            wit[m + 1][target] = (i, j)
        _WITNESSES[A] = out
    return _WITNESSES[A]


def _by_boundary(X):
    """Per level m >= 1: the m-simplices of X by their tuple of faces."""
    if X not in _BOUNDARIES:
        out = [None]
        for m in range(1, X.dim + 1):
            d = {}
            for j, key in enumerate(zip(*X._face[m])):
                d.setdefault(key, []).append(j)
            out.append(d)
        _BOUNDARIES[X] = out
    return _BOUNDARIES[X]


def _lift_tables(A):
    """Per-level derivation plans of the enumeration kernel for maps out of A.

    dfill[m]: (index, i, preimage index) for each degenerate simplex;
    tderive[m]: (token, i, x) canonical zeta witness per comarked token;
    tcheck[m]: remaining zeta entries (token, i, x) to verify.
    """
    if A in _TABLES:
        return _TABLES[A]
    deg_wit, zeta_wit = witnesses(A)
    dfill = [[] for _ in range(A.dim + 1)]
    for m in range(1, A.dim + 1):
        for j, w in enumerate(deg_wit[m]):
            if w is not None:
                dfill[m].append((j, w[0], w[1]))
    tderive = [None] + [[] for _ in range(A.dim)]
    tcheck = [None] + [[] for _ in range(A.dim)]
    for m in range(1, A.dim + 1):
        zwit = zeta_wit[m]
        for t, w in enumerate(zwit):
            if w is not None:
                tderive[m].append((t, w[0], w[1]))
        for i in range(m):
            for x, t in enumerate(A._zeta[m - 1][i]):
                if t >= 0 and zwit[t] != (i, x):
                    tcheck[m].append((t, i, x))
    _TABLES[A] = dfill, tderive, tcheck
    return _TABLES[A]


def _iter_maps(A, X, budget, seed_simp=None, seed_tok=None):
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
    deg_wit, zeta_wit = witnesses(A)
    for m in range(A.dim + 1):
        slots.append(("sfill", m))
        wit = deg_wit[m]
        for j in range(len(A._ids[m])):
            if wit[j] is None and simg[m][j] < 0:
                slots.append(("snd", m, j))
        if m >= 1:
            slots.append(("tfill", m))
            zwit = zeta_wit[m]
            for j in range(len(A._tok_ids[m])):
                if zwit[j] is None and timg[m][j] < 0:
                    slots.append(("tnd", m, j))

    x_tokens_over = X._tokens_over_idx
    x_boundary = _by_boundary(X)
    dfill, tderive, tcheck = _lift_tables(A)

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
            return iter([(m, j, v)] for v in cand)
        _, m, j = slot
        cand = x_tokens_over[m].get(simg[m][A._tok_under[m][j]], ())
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
    """The map of the kernel's (simg, timg), copied: the kernel keeps
    writing into its rows."""
    return map_on_generators(A, X, [row[:] for row in simg],
                             [None] + [row[:] for row in timg[1:]])


def count_generators(A):
    n = sum(len(A.nondegenerate_ids(m)) for m in range(A.dim + 1))
    for m in range(1, A.dim + 1):
        n += sum(1 for w in witnesses(A)[1][m] if w is None)
    return n


def maps(A, X, budget=None):
    """Exhaustive, deterministic list of all tDelta-maps A -> X."""
    budget = get_budget(budget)
    if count_generators(A) > budget:
        raise BudgetExceeded("domain has more generators than the budget")
    return [_to_map(A, X, simg, timg)
            for simg, timg in _iter_maps(A, X, budget)]


def iter_maps(A, X, budget=None):
    budget = get_budget(budget)
    for simg, timg in _iter_maps(A, X, budget):
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


# -- lifting through the generic search -------------------------------------------

class LiftingProblem(Record):
    __slots__ = ("extension", "along")  # along: A -> X


def find_lift(problem, budget=None):
    """A lift B -> X extending the problem's map along its inclusion.

    Returns the first lift in canonical search order, or None once the
    search space is exhausted.  Raises BudgetExceeded if the node budget
    runs out first.
    """
    budget = get_budget(budget)
    ext = problem.extension
    f = problem.along
    X = f.dst
    seed_simp, seed_tok = _images_along(f, ext.inclusion)
    for simg, timg in _iter_maps(ext.B, X, budget, seed_simp=seed_simp,
                                 seed_tok=seed_tok):
        return _to_map(ext.B, X, simg, timg)
    return None


def check_extension_generic(X, ext, budget=None):
    """``lifting.check_extension`` through the generic map enumeration."""
    budget = get_budget(budget)
    checked = 0
    for f in iter_maps(ext.A, X, budget=budget):
        checked += 1
        if find_lift(LiftingProblem(ext, f), budget=budget) is None:
            return ExtensionResult(ext, checked, f)
    return ExtensionResult(ext, checked, None)


# -- lift plans from the shapes, and the plain depth-first walk ---------------

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


def compile_plan_from_shapes(ext):
    """``lifting._compile_plan`` read off the built shapes A and B: the
    tops through their non-degenerate simplices, the chains through A's
    face rows, the marks through the free tokens and the token ids."""
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


def dfs_search(X, plan, budget):
    """``lifting._search`` as the plain depth-first walk: one value at a
    time, each value drawn a domain node, budget + 1 nodes raise
    BudgetExceeded.  Returns (maps checked, values of the first map
    without a lift or None, nodes drawn)."""
    m, slots, lvl_from = plan.m, plan.slots, plan.level
    steps = checked = 0

    def admits(marks, family):
        for lvl, pos, drops in marks:
            v = family[pos]
            for at, d in zip(range(lvl_from, lvl, -1), drops):
                v = X._face[at][d][v]
            if v not in X._tokens_over_idx[lvl]:
                return False
        return True

    def lifts(family):
        if plan.kind == "horn" and family not in {
                tuple(X._face[m][j][x] for j in slots)
                for x in X._tokens_over_idx[m]}:
            return False
        return admits(plan.lift_marks, family)

    face = X._face[lvl_from] if lvl_from else None

    def walk(family):
        nonlocal steps, checked
        p = len(family)
        for z in range(len(X._ids[lvl_from])):
            if any(face[slots[q]][z] != face[slots[p] - 1][y]
                   for q, y in enumerate(family)):
                continue
            steps += 1
            if steps > budget:
                raise BudgetExceeded
            drawn = family + (z,)
            if p < len(slots) - 1:
                found = walk(drawn)
                if found is not None:
                    return found
            elif admits(plan.domain_marks, drawn):
                checked += 1
                if not lifts(drawn):
                    return drawn
        return None

    found = walk(())
    return checked, found, steps


# -- string-keyed constructions ---------------------------------------------------

def tdelta_from_dicts(dim, simplices, faces, degs, tokens, zeta, name=""):
    """The tDelta-set of id-keyed dicts, written as a document and loaded:
    ``simplices[m]`` lists ids, ``tokens[m]`` (id, under) pairs, and the
    other dicts map (m, i, id) to an id."""
    def rows(d):
        return [[m, i, s, v] for (m, i, s), v in d.items()]
    return TruncatedTDeltaSet.from_json_dict({
        "dim": dim,
        "simplices": [list(simplices.get(m, ())) for m in range(dim + 1)],
        "tokens": [[{"id": t, "under": u} for t, u in tokens.get(m, ())]
                   for m in range(1, dim + 1)],
        "faces": rows(faces), "degeneracies": rows(degs), "zeta": rows(zeta),
    }, name=name)


def degeneracy_of(X, m, i, sid):
    """The id of s_i(sid), read off X's tables."""
    j = X._deg[m][i][X._idx[m][sid]]
    if j < 0:
        raise InvalidInput(f"degeneracy s_{i} undefined on {sid!r}")
    return X._ids[m + 1][j]


def zeta_of(X, m, i, sid):
    """The id of zeta_i(sid), read off X's tables."""
    j = X._zeta[m][i][X._idx[m][sid]]
    if j < 0:
        raise InvalidInput(f"zeta_{i} undefined on {sid!r}")
    return X._tok_ids[m + 1][j]


def ref_pushout(f, i, prefix="B.", name=""):
    """Pushout of f: A -> X along a monomorphism i: A -> B.

    Returns (P, X -> P, B -> P).  X keeps its ids; elements of B outside the
    image of i enter with the given prefix.  Unlike ``pushout`` it accepts
    a B that adds simplices, and it does not reject the dimensions where P
    comes out wrong.
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
                degs[(m, k, s)] = degeneracy_of(X, m, k, s)
                zeta[(m, k, s)] = zeta_of(X, m, k, s)

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
                    degs[(m, k, sid)] = new_sid(m + 1, degeneracy_of(B, m, k, b))
                    zeta[(m, k, sid)] = new_tid(m + 1, zeta_of(B, m, k, b))
    for m in range(1, B.dim + 1):
        for t in B.token_ids(m):
            if (m, t) in t_img:
                continue
            tokens[m].append((new_tid(m, t), new_sid(m, B.under_of(m, t))))

    P = tdelta_from_dicts(dim, simplices, faces, degs, tokens, zeta, name=name)
    x_to_p = inclusion_map(X, P)
    b_simp = [[m, b, new_sid(m, b)] for m in range(B.dim + 1)
              for b in B.nondegenerate_ids(m)]
    b_tok = []
    for m in range(1, B.dim + 1):
        wit = witnesses(B)[1][m]
        b_tok += [[m, t, new_tid(m, t)]
                  for k, t in enumerate(B._tok_ids[m]) if wit[k] is None]
    b_to_p = map_from_json_dict(B, P, {"simplices": b_simp, "tokens": b_tok})
    return P, x_to_p, b_to_p


def fold_of_ref_pushouts(X, gluings, prefix, name=""):
    """The family of gluings onto X through ``ref_pushout``: one pushout
    per gluing, each glued onto the result of the one before; the elements
    of B_k enter with the prefix ``{prefix}{k}:``."""
    P, x_to_p, b_maps = X, identity_map(X), []
    for k, (fk, ik) in enumerate(gluings):
        P, step, bk = ref_pushout(x_to_p.compose(fk), ik,
                                  prefix=f"{prefix}{k}:", name=name)
        x_to_p = step.compose(x_to_p)
        b_maps = [step.compose(b) for b in b_maps] + [bk]
    return P, x_to_p, b_maps


# -- duality ---------------------------------------------------------------------

def opposite(X):
    """X with the order of the vertices reversed: the face, degeneracy and
    zeta rows i of level m become the rows m - i; ids and tokens stay."""
    face = [None] + [X._face[m][::-1] for m in range(1, X.dim + 1)]
    deg, zeta = ([rows[m][::-1] for m in range(X.dim)] + [None]
                 for rows in (X._deg, X._zeta))
    return TruncatedTDeltaSet(X.dim, X._ids, face, deg, X._tok_ids,
                              X._tok_under, zeta, name=f"{X.name}^op")


def opposite_category(C):
    """C with its 1-cells reversed: comp1 takes its two 1-cells in the other
    order, whisker_l and whisker_r trade places, and the 2-cells and their
    vertical composition stay as they are."""
    one = [OneCell(c.id, c.tgt, c.src, c.identity)
           for c in C.one_cells.values()]
    comp1 = {(f, g): h for (g, f), h in C.comp1.items()}
    wl = {(c, a): v for (a, c), v in C.whisker_r.items()}
    wr = {(a, c): v for (c, a), v in C.whisker_l.items()}
    return FiniteTwoCategory(C.objects, one, comp1, C.two_cells.values(),
                             C.vcomp, wl, wr, name=f"{C.name}^op")


# -- nerve oracles ----------------------------------------------------------------

class TwoFunctor(Record):
    """A strict 2-functor given by its three assignment tables."""

    __slots__ = ("on_objects", "on_one", "on_two")

    def ob(self, x):
        return dict(self.on_objects)[x]

    def one(self, f):
        return dict(self.on_one)[f]

    def two(self, a):
        return dict(self.on_two)[a]


def two_functors(C, D):
    """Exhaustively enumerate strict 2-functors C -> D.

    Plain backtracking over object, 1-cell and 2-cell assignments with
    incremental consistency pruning against every table entry.  Candidate
    values for a composite cell are forced as soon as one decomposition
    has fully assigned factors.
    """
    obs = sorted(C.objects)
    one_free = sorted((f for f, c in C.one_cells.items() if not c.identity),
                      key=lambda i: (len(i), i))
    two_free = sorted((a for a, c in C.two_cells.items() if not c.identity),
                      key=lambda i: (len(i), i))
    comp_items = sorted(C.comp1.items())
    vcomp_items = sorted(C.vcomp.items())
    wl_items = sorted(C.whisker_l.items())
    wr_items = sorted(C.whisker_r.items())

    d_hom = {}
    for f, c in D.one_cells.items():
        d_hom.setdefault((c.src, c.tgt), []).append(f)
    for v in d_hom.values():
        v.sort()

    results = []

    def extend_two(mo, m1):
        m2 = {C.identity2_of(f): D.identity2_of(m1[f]) for f in C.one_cells}

        def ok2(m2):
            for (b, a), r in vcomp_items:
                ib, ia, ir = m2.get(b), m2.get(a), m2.get(r)
                if ib and ia and ir and D.vert(ib, ia) != ir:
                    return False
            for (c, a), r in wl_items:
                ia, ir = m2.get(a), m2.get(r)
                if ia and ir and D.wl(m1[c], ia) != ir:
                    return False
            for (a, c), r in wr_items:
                ia, ir = m2.get(a), m2.get(r)
                if ia and ir and D.wr(ia, m1[c]) != ir:
                    return False
            return True

        def rec2(i):
            if i == len(two_free):
                results.append(TwoFunctor(
                    tuple(sorted(mo.items())),
                    tuple(sorted(m1.items())),
                    tuple(sorted(m2.items()))))
                return
            a = two_free[i]
            cell = C.two_cells[a]
            cands = D.two_cells_between(m1[cell.src], m1[cell.tgt])
            for (b2, a2), r in vcomp_items:
                if r == a and b2 in m2 and a2 in m2:
                    cands = [D.vert(m2[b2], m2[a2])]
                    break
            for v in cands:
                if D.two_cells[v].src != m1[cell.src] or \
                        D.two_cells[v].tgt != m1[cell.tgt]:
                    continue
                m2[a] = v
                if ok2(m2):
                    rec2(i + 1)
                del m2[a]

        rec2(0)

    def ok1(m1):
        for (g, f), r in comp_items:
            vg, vf, vr = m1.get(g), m1.get(f), m1.get(r)
            if vg and vf and vr and D.comp(vg, vf) != vr:
                return False
        return True

    def rec1(i, mo, m1):
        if i == len(one_free):
            extend_two(mo, m1)
            return
        f = one_free[i]
        cell = C.one_cells[f]
        cands = d_hom.get((mo[cell.src], mo[cell.tgt]), [])
        for (g2, f2), r in comp_items:
            if r == f and g2 in m1 and f2 in m1:
                cands = [D.comp(m1[g2], m1[f2])]
                break
        for v in cands:
            dc = D.one_cells[v]
            if (dc.src, dc.tgt) != (mo[cell.src], mo[cell.tgt]):
                continue
            m1[f] = v
            if ok1(m1):
                rec1(i + 1, mo, m1)
            del m1[f]

    def rec0(i, mo):
        if i == len(obs):
            m1 = {C.identity_of(x): D.identity_of(mo[x]) for x in obs}
            rec1(0, mo, m1)
            return
        for y in D.objects:
            mo[obs[i]] = y
            rec0(i + 1, mo)
            del mo[obs[i]]

    rec0(0, {})
    return results


def nerve_map(F, C, D, N=5, marking="rs"):
    """The map of nerves induced by a 2-functor F: C -> D."""
    XC, infoC = nerves.nerve_with_info(C, N, marking)
    XD, infoD = nerves.nerve_with_info(D, N, marking)
    # img[m]: the index in XD of the image of each m-simplex of XC
    img = [[XD._idx[0][F.ob(x)] for x in XC._ids[0]]]
    if N >= 1:
        img.append([XD._idx[1][F.one(f)] for f in XC._ids[1]])
    if N >= 2:
        img.append([XD._idx[2][infoD.triangle(F.one(u), F.one(v), F.two(a))]
                    for u, v, a in map(infoC.two_data.get, XC._ids[2])])
    for m in range(3, N + 1):  # an m-simplex is the tuple of its faces
        rows, below = XC._face[m], img[m - 1]
        img.append([infoD.by_faces[m][tuple(below[r[j]] for r in rows)]
                    for j in range(len(XC._ids[m]))])
    by_token = {nerves.completion_token(f, ae): (f, ae)
                for f in sorted(C.one_cells)
                for ae in twocat.adjoint_equivalence_completions(C, f)}
    timg = [None]
    for m in range(1, N + 1):
        row = []
        for t, u, w in zip(XC._tok_ids[m], XC._tok_under[m],
                           witnesses(XC)[1][m]):
            if w is not None:
                tid = None  # a comarked token follows its simplex
            elif m == 1 and marking == "natural":
                f, ae = by_token[t]
                img_ae = twocat.AdjointEquivalence(F.one(f), F.one(ae.g),
                                                   F.two(ae.eta), F.two(ae.eps))
                tid = nerves.completion_token(F.one(f), img_ae)
            else:
                tid = f"t|{XD._ids[m][img[m][u]]}"
            row.append(XD._tok_idx[m].get(tid, -1))
        timg.append(row)
    return map_on_generators(XC, XD, img, timg)


def rs_fully_faithful_check(C, D, N=4, budget=None):
    """Compare nerve-map and 2-functor counts; True on exact agreement."""
    if N < 4:
        raise InvalidInput("faithfulness needs dimension at least 4")
    nerve_maps = maps(nerves.rs_nerve(C, N), nerves.rs_nerve(D, N),
                      budget=budget)
    return len(nerve_maps) == len(two_functors(C, D))


# -- the rs fibrancy criterion ------------------------------------------------------

def is_equivalence(C, f):
    return bool(twocat.adjoint_equivalence_completions(C, f))


def one_isomorphisms(C):
    """1-cells with a strict two-sided inverse (identities included)."""
    out = set()
    for f, cell in C.one_cells.items():
        for g in C.hom(cell.tgt, cell.src):
            if C.comp(g, f) == C.identity_of(cell.src) and \
                    C.comp(f, g) == C.identity_of(cell.tgt):
                out.add(f)
                break
    return out


def rs_fibrancy_prediction(C):
    """Both readings of the fibrancy criterion for identity-marked nerves.

    The criterion can be stated with strictly invertible 1-cells or with
    weakly invertible ones; both predicates are computed and reported so the
    lifting results can be compared against each.
    """
    strict_isos = {f for f in one_isomorphisms(C)
                   if not C.one_cells[f].identity}
    equivalences = {f for f in C.one_cells
                    if not C.one_cells[f].identity and is_equivalence(C, f)}
    two_isos = {a for a in twocat.invertible_2cells(C)
                if not C.two_cells[a].identity}
    return {
        "non_identity_one_isomorphisms": sorted(strict_isos),
        "non_identity_equivalences": sorted(equivalences),
        "non_identity_two_isomorphisms": sorted(two_isos),
        "fibrant_by_strict_reading": not strict_isos and not two_isos,
        "fibrant_by_weak_reading": not equivalences and not two_isos,
    }


# -- presentation evaluation ----------------------------------------------------------

class EvaluationRefused(RuntimeError):
    """The presentation is outside what ``evaluate_presentation`` builds."""


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

    Refuses cyclic 1-generator graphs, closes the pasting cells under
    composition with interchange-canonical normal forms (cancelling
    recognizable formal-inverse pairs), and quotients by the remaining
    relations through a congruence closure.  Returns (FiniteTwoCategory,
    word_to_cell, cell_class): the 1-cell id of each generator word, and the
    2-cell id of each closure cell.
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
