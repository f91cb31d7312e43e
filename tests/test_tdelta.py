import functools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from complicial import factorization, nerves, tdelta, twocat
from complicial.tdelta import (BudgetExceeded, TruncatedTDeltaSet, boundary,
                               delta, delta3_eq, delta3_sharp, delta_k,
                               delta_k_dprime, delta_k_prime, delta_t, horn,
                               identify_markings, identity_map, inclusion_map,
                               join, pushout, pushout_family)
from oracles import find_isomorphism, fold_of_ref_pushouts, maps


SHAPES = [delta(0), delta(2), delta_t(2), boundary(2), boundary(3),
          horn(1, 2), horn(0, 3), delta_k(1, 3), delta_k_prime(2, 3),
          delta_k_dprime(2, 3), delta3_eq(), delta3_sharp(), delta(2, dim=4)]


@pytest.mark.parametrize("X", SHAPES, ids=lambda X: X.name)
def test_standard_shapes_valid_and_stratified(X):
    assert X.validate() == []
    assert X.is_stratified()


@pytest.mark.parametrize("X", SHAPES, ids=lambda X: X.name)
def test_degenerate_simplices_carry_exactly_their_token(X):
    for m in range(1, X.dim + 1):
        for s in X.simplex_ids(m):
            toks = X.tokens_over(m, s)
            if X.is_degenerate(m, s):
                assert len(toks) == 1
            else:
                assert len(toks) <= 1


def test_delta1_of_2_equals_delta2_marked():
    assert delta_k(1, 2).same_as(delta_t(2))
    assert delta(2, marked={(0, 1, 2)}).same_as(delta_t(2))
    with pytest.raises(twocat.InvalidInput):
        delta(2, marked={"012"})  # marks are vertex tuples, not ids


def test_delta3_eq_marked_set():
    E = delta3_eq()
    nondeg_marked = {s for m in range(1, 4) for s in E.simplex_ids(m)
                     if not E.is_degenerate(m, s) and E.tokens_over(m, s)}
    assert nondeg_marked == {"02", "13", "012", "013", "023", "123", "0123"}


def test_boundary_of_point_is_empty():
    B = boundary(0)
    assert B.simplex_ids(0) == []


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=12, deadline=None)
def test_marking_rule_of_admissible_simplex(m, data):
    k = data.draw(st.integers(min_value=0, max_value=m))
    X = delta_k(k, m)
    need = {v for v in (k - 1, k, k + 1) if 0 <= v <= m}
    for lvl in range(1, m + 1):
        for s in X.simplex_ids(lvl):
            if X.is_degenerate(lvl, s):
                continue
            expected = need <= set(int(c) for c in s)
            assert bool(X.tokens_over(lvl, s)) == expected


def test_validate_reports_dropped_zeta():
    doc = delta_t(2).to_json_dict()
    doc["zeta"] = doc["zeta"][1:]  # drop one comarking entry
    X = TruncatedTDeltaSet.from_json_dict(doc)
    report = X.validate()
    assert any("zeta" in line for line in report)


# -- maps ---------------------------------------------------------------------

def test_maps_of_point_are_vertices():
    X = delta(2)
    assert len(maps(delta(0), X)) == len(X.simplex_ids(0))


def test_maps_of_edge_into_nerve_of_arrow():
    X = nerves.duskin_nerve(twocat.standard_examples()["chain-1"], 2)
    assert len(maps(delta(1), X)) == 3


def test_maps_yoneda_both_kinds():
    X = nerves.rs_nerve(twocat.standard_examples()["sigma-iso"], 3)
    for m in range(3):
        assert len(maps(delta(m, dim=m), X)) == len(X.simplex_ids(m))
    for m in range(1, 4):
        assert len(maps(delta_t(m, dim=m), X)) == len(X.token_ids(m))


def test_maps_budget_guard():
    with pytest.raises(BudgetExceeded):
        maps(delta(2), delta(2), budget=3)


def test_map_validity_and_composition():
    X, Y = delta(1), delta(2)
    fs = maps(X, Y)
    assert all(f.is_valid() for f in fs)
    g = maps(Y, Y)[0]
    for f in fs:
        assert g.compose(f).is_valid()


def test_map_json_round_trip_of_stored_part():
    f = maps(delta(1), delta(2))[0]
    doc = f.to_json_dict()
    assert {"simplices", "tokens"} <= set(doc)


# -- join ------------------------------------------------------------------------

def test_join_cone_is_simplex():
    J = join(delta(0, dim=4), delta(3, dim=4), out_dim=4)
    assert J.validate() == []
    assert find_isomorphism(J, delta(4)) is not None


def test_join_counts_binomial_oracle():
    a, b = 1, 3
    J = join(delta(a, dim=5), delta(b, dim=5), out_dim=5)

    def monotone(n, k):
        # weakly increasing (n+1)-sequences valued in 0..k
        return math.comb(n + k + 1, k)

    for m in range(6):
        expected = monotone(m, a) + monotone(m, b) + sum(
            monotone(p, a) * monotone(m - 1 - p, b) for p in range(m))
        assert len(J.simplex_ids(m)) == expected


def test_join_saturation_pair_same_underlying():
    A = join(delta(0, dim=4), delta3_eq(dim=4), out_dim=4)
    B = join(delta(0, dim=4), delta3_sharp(dim=4), out_dim=4)
    assert [A.simplex_ids(m) for m in range(5)] == \
        [B.simplex_ids(m) for m in range(5)]
    extra = [len(B.token_ids(m)) - len(A.token_ids(m)) for m in range(1, 5)]
    assert extra == [4, 4, 0, 0]


def test_join_associative_up_to_iso():
    A = delta(0, dim=3)
    B = delta(1, dim=3)
    C = delta(0, dim=3)
    left = join(join(A, B, out_dim=3), C, out_dim=3)
    right = join(A, join(B, C, out_dim=3), out_dim=3)
    assert find_isomorphism(left, right) is not None


def test_join_requires_padding():
    with pytest.raises(twocat.InvalidInput):
        join(delta(0), delta(3), out_dim=4)


# -- pushout and marking identification -------------------------------------------

def test_pushout_along_identity():
    X = delta_t(2)
    P, to_p, _ = pushout(identity_map(X), identity_map(X))
    assert P.same_as(X)
    assert to_p.is_valid()


def test_pushout_adds_marking_token():
    D2, D2t = delta(2), delta_t(2)
    P, xp, bp = pushout(identity_map(D2), inclusion_map(D2, D2t))
    assert P.counts()["tokens"] == [3, 10]
    assert P.validate() == []
    assert xp.is_valid() and bp.is_valid() and xp.is_mono()
    assert find_isomorphism(P, D2t) is not None


def test_pushout_universal_property_small():
    """Every cocone factors uniquely through the pushout: the edge 01 of
    Delta[2] marked along Delta[1] -> Delta[1]_t."""
    A, X, B = delta(1), delta(2), delta_t(1)
    f = next(m for m in maps(A, X) if m.apply_simplex(1, "01") == "01")
    i = inclusion_map(A, B)
    P, xp, bp = pushout(f, i)
    for T, count in ((delta(2, marked={(0, 1)}), 8),
                     (delta(2, marked={(0, 1), (1, 2)}), 9),
                     (delta_t(2), 6)):
        cocones = [(u, v) for u in maps(X, T) for v in maps(B, T)
                   if u.compose(f).to_json_dict() ==
                   v.compose(i).to_json_dict()]
        assert len(cocones) == count, T.name
        for u, v in cocones:
            throughs = [w for w in maps(P, T)
                        if w.compose(xp).equals(u) and w.compose(bp).equals(v)]
            assert len(throughs) == 1


def test_pushout_rejects_new_top_simplices_of_a_lower_b():
    """B = Delta[1] of lower dimension than X adds the edge 01, and with it
    the vertex 1, to a point; pushout glues marks only and names the first
    simplex of B outside the image, level by level."""
    A, B, X = delta(0, dim=1), delta(1), delta(0, dim=2)
    f, = maps(A, X)
    i = next(m for m in maps(A, B) if m.apply_simplex(0, "0") == "0")
    with pytest.raises(twocat.InvalidInput, match="B adds the simplex '1'"):
        pushout(f, i)


def test_pushout_family_rejects_a_lower_part_that_adds_top_simplices():
    """The first gluing of a dim-1 part adds the edge 01 (and its vertex 1)
    to a point; a second gluing at X's dimension that adds nothing does not
    hide it."""
    X = delta(0, dim=2)
    A1, B1 = delta(0, dim=1), delta(1, dim=1)
    i1 = next(m for m in maps(A1, B1) if m.apply_simplex(0, "0") == "0")
    A2 = delta(0, dim=2)
    gluings = [(maps(A1, X)[0], i1), (maps(A2, X)[0], identity_map(A2))]
    with pytest.raises(twocat.InvalidInput, match="B adds the simplex '1'"):
        pushout_family(X, gluings)


def _a_truncated_below_b():
    A, B = delta(0), delta(1, dim=1)
    i = next(m for m in maps(A, B) if m.apply_simplex(0, "0") == "0")
    return B, [(maps(A, B)[0], i)]


def _a_part_truncated_below_its_b():
    """A_0 of dim 1 into B_0 = X of dim 2, and a second part of dim 2 that
    adds nothing."""
    X, A, B = delta(1, dim=2), delta(0, dim=1), delta(1, dim=2)
    f, i = (next(m for m in maps(A, Y) if m.apply_simplex(0, "0") == "0")
            for Y in (X, B))
    A1 = delta(0, dim=2)
    return X, [(f, i), (maps(A1, X)[0], identity_map(A1))]


def _horn_fillings_of_chain_2():
    X = nerves.rs_nerve(twocat.standard_examples()["chain-2"], 3)
    A, B = horn(1, 2, dim=3), delta_k(1, 2, dim=3)
    return X, [(f, inclusion_map(A, B)) for f in maps(A, X)[:3]]


@pytest.mark.parametrize("family, added", [
    (_a_truncated_below_b, "1"), (_a_part_truncated_below_its_b, "1"),
    (_horn_fillings_of_chain_2, "02")],
    ids=["a-truncated-below-b", "part-truncated-below-its-b",
         "horn-fillings"])
def test_pushout_rejects_a_gluing_that_adds_a_simplex(family, added):
    """pushout glues marks only: B must add no simplex to the image of A,
    neither alone nor in a family whose other parts add nothing; the first
    simplex of B outside the image, level by level, is named."""
    X, gluings = family()
    match = f"B adds the simplex '{added}'"
    with pytest.raises(twocat.InvalidInput, match=match):
        pushout(*gluings[0])
    with pytest.raises(twocat.InvalidInput, match=match):
        pushout_family(X, gluings)


def _p4_gluings_of_sigma_iso(monkeypatch):
    seen = []
    real = tdelta.pushout_family

    def spy(X, gluings, prefix="g", name=""):
        if prefix == "p4.":
            seen.append((X, gluings))
        return real(X, gluings, prefix=prefix, name=name)

    monkeypatch.setattr(tdelta, "pushout_family", spy)
    factorization.verify_factorization(
        twocat.standard_examples()["sigma-iso"], 4)
    (X, gluings), = seen
    return X, gluings


@pytest.mark.parametrize("family", ["p4-sigma-iso", "empty"])
def test_pushout_family_agrees_with_fold_of_pushouts(family, monkeypatch):
    if family == "p4-sigma-iso":
        X, gluings = _p4_gluings_of_sigma_iso(monkeypatch)
    else:
        X, gluings = delta_t(2), []
    P, x_to_p, b_maps = pushout_family(X, gluings, prefix="g.", name="P")
    Pr, x_to_pr, b_maps_r = fold_of_ref_pushouts(X, gluings, "g.", name="P")
    assert P.same_as(Pr) and P.name == Pr.name
    assert x_to_p.equals(x_to_pr)
    assert len(b_maps) == len(b_maps_r) == len(gluings)
    assert all(b.equals(br) for b, br in zip(b_maps, b_maps_r))
    assert P.validate() == []
    added = [len(P.simplex_ids(m)) - len(X.simplex_ids(m))
             for m in range(X.dim + 1)]
    if family == "p4-sigma-iso":
        assert not any(added) and P.counts() != X.counts()
    else:
        assert P is X


def test_pushout_is_built_on_the_simplex_rows_of_x(monkeypatch):
    """P, and so every stage of the fold, holds X's own id, face and
    degeneracy rows: a gluing cannot change the simplicial set."""
    X, gluings = _p4_gluings_of_sigma_iso(monkeypatch)
    for P in (pushout(*gluings[0])[0], pushout_family(X, gluings)[0]):
        assert all(P._ids[m] is X._ids[m] for m in range(X.dim + 1))
        assert all(P._face[m][i] is X._face[m][i]
                   for m in range(1, X.dim + 1) for i in range(m + 1))
        assert all(P._deg[m][i] is X._deg[m][i]
                   for m in range(X.dim) for i in range(m + 1))
        assert X.same_underlying(P) and P.counts() != X.counts()


@functools.cache
def _gluing_kinds():
    """(the rs nerve of chain-2 at dim 3, [(i: A -> B, every map A -> X)])
    for the thinness extensions and a few identities at dim 3."""
    X = nerves.rs_nerve(twocat.standard_examples()["chain-2"], 3)
    kinds = [inclusion_map(delta_k_prime(k, m, dim=3),
                           delta_k_dprime(k, m, dim=3))
             for m in range(2, 4) for k in range(m + 1)]
    kinds += [identity_map(delta(m, dim=3)) for m in range(3)]
    return X, [(i, maps(i.src, X)) for i in kinds]


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                max_size=12))
@example([(k, k) for k in range(12)])
@settings(max_examples=25, deadline=None)
def test_random_pushout_families_agree_with_fold_of_pushouts(picks):
    """pushout_family is the fold of one pushout per gluing, also for ten
    or more gluings, whose ids ``g10:`` sort before ``g2:``."""
    X, kinds = _gluing_kinds()
    gluings = []
    for kind, pick in picks:
        i, fs = kinds[kind % len(kinds)]
        gluings.append((fs[pick % len(fs)], i))
    P, x_to_p, b_maps = pushout_family(X, gluings, prefix="g", name="P")
    Pr, x_to_pr, b_maps_r = fold_of_ref_pushouts(X, gluings, "g", name="P")
    assert P.same_as(Pr) and P.name == Pr.name
    assert x_to_p.equals(x_to_pr)
    assert len(b_maps) == len(b_maps_r) == len(gluings)
    assert all(b.equals(br) for b, br in zip(b_maps, b_maps_r))
    assert P.validate() == []


def test_identify_markings_rejects_a_class_over_two_simplices():
    X = delta_t(2)
    labels = {(m, t): "t|one" for m in range(1, 3) for t in X.token_ids(m)}
    with pytest.raises(twocat.InvalidInput, match="more than one simplex"):
        identify_markings(X, labels=labels)


def test_identify_markings_idempotent():
    X = delta_t(2)
    Q1, _ = identify_markings(X)
    assert Q1.same_as(X)
    Z = nerves.natural_nerve(twocat.standard_examples()["z2"], 3)
    Q2, to_q = identify_markings(Z)
    assert Q2.is_stratified()
    assert to_q.is_valid()
    Q3, _ = identify_markings(Q2)
    assert Q3.same_as(Q2)


def test_tdelta_json_round_trip():
    for X in (delta_t(2), horn(0, 3), delta3_eq()):
        doc = X.to_json_dict()
        back = TruncatedTDeltaSet.from_json_dict(doc, name=X.name)
        assert back.same_as(X)
        assert back.to_json_dict() == doc


def _edge_map_document():
    """Delta[1]_t -> Delta[2] marked on 01: the inclusion, as a document."""
    A, X = delta_t(1), delta(2, marked={(0, 1)})
    return A, X, inclusion_map(A, X).to_json_dict()


def test_map_document_round_trip():
    A, X, doc = _edge_map_document()
    assert doc == {"simplices": [[0, "0", "0"], [0, "1", "1"],
                                 [1, "01", "01"]],
                   "tokens": [[1, "t|01", "t|01"]]}
    f = tdelta.map_from_json_dict(A, X, doc)
    assert f.is_valid() and f.to_json_dict() == doc
    assert f.equals(inclusion_map(A, X))


def _replace(key, k, entry):
    def mutate(doc):
        doc[key][k] = entry
    return mutate


def _append(key, entry):
    return lambda doc: doc[key].append(entry)


@pytest.mark.parametrize("mutate", [
    _append("simplices", [9, "0", "0"]),
    _append("simplices", [2, "012", "012"]),
    _replace("simplices", 2, [True, "01", "01"]),
    _replace("simplices", 2, [1.0, "01", "01"]),
    _replace("simplices", 2, ["1", "01", "01"]),
    _append("simplices", [1, "nope", "01"]),
    _append("simplices", [1, "00", "00"]),
    _replace("simplices", 2, [1, "01", "012"]),
    _append("simplices", [0, "0", "1"]),
    _append("simplices", [0, "0", "0"]),
    _append("tokens", [1, "t|nope", "t|01"]),
    _append("tokens", [1, "t|00", "t|00"]),
    _replace("tokens", 0, [1, "t|01", "t|nope"]),
    _replace("tokens", 0, [False, "t|01", "t|01"]),
    _append("tokens", [1, "t|01", "t|00"]),
], ids=["level-9", "level-2-source-lacks", "bool-level", "float-level",
        "string-level", "unknown-simplex", "degenerate-simplex",
        "target-at-other-level", "repeated-source", "repeated-entry",
        "unknown-token", "comarked-token", "unknown-target-token",
        "bool-token-level", "repeated-token"])
def test_map_loader_rejects_what_it_would_drop(mutate):
    A, X, doc = _edge_map_document()
    mutate(doc)
    with pytest.raises(twocat.InvalidInput, match="would be dropped"):
        tdelta.map_from_json_dict(A, X, doc)


DROPPED = ("would be dropped: it needs a level both sides have, a generator "
           "of the source, an element of the target at that level, and no "
           "repeat")


@pytest.mark.parametrize("doc, message", [
    ({"simplices": [[9, "0", "0"]], "tokens": []},
     f"simplices entry [9, '0', '0'] {DROPPED}"),
    *[(v, "map document is not a JSON object") for v in ([], "x", 3)],
    ({"simplices": "ab", "tokens": []}, "map simplices 'ab' is not a list"),
    ({"simplices": [], "tokens": {}}, "map tokens {} is not a list"),
    ({"simplices": ["abc"], "tokens": []},
     "simplices entry 'abc' is not a list"),
    ({"simplices": [], "tokens": [{"a": 1}]},
     "tokens entry {'a': 1} is not a list"),
], ids=["dropped-entry", "array-document", "string-document",
        "number-document", "simplices-str", "tokens-object",
        "simplices-entry-str", "tokens-entry-object"])
def test_map_loader_refuses_with_one_message(doc, message):
    """The whole message: the loader's own refusals are not wrapped again
    as a bad map document, and a string or an object is not read as its
    characters or keys."""
    A, X, _ = _edge_map_document()
    with pytest.raises(twocat.InvalidInput) as info:
        tdelta.map_from_json_dict(A, X, doc)
    assert str(info.value) == message


def test_map_loader_rejects_a_level_the_target_lacks():
    A, X = delta(2), delta(1)
    doc = {"simplices": [[0, "0", "0"], [0, "1", "0"], [0, "2", "1"],
                         [1, "01", "00"], [1, "02", "01"], [1, "12", "01"],
                         [2, "012", "001"]], "tokens": []}
    with pytest.raises(twocat.InvalidInput, match="would be dropped"):
        tdelta.map_from_json_dict(A, X, doc)
    doc["simplices"].pop()
    assert tdelta.map_from_json_dict(A, X, doc).to_json_dict() == doc


def test_map_loader_keeps_a_partial_map():
    """A generator the document leaves out stays undefined."""
    A, X, doc = _edge_map_document()
    for key in ("simplices", "tokens"):
        part = dict(doc, **{key: doc[key][:-1]})
        f = tdelta.map_from_json_dict(A, X, part)
        assert not f.is_valid()
        assert f.to_json_dict() == part


def test_budget_env_override(monkeypatch):
    """budget= is the one budget input: it overrides the default, and a
    COMPLICIAL_BUDGET left in the environment changes nothing."""
    monkeypatch.setenv("COMPLICIAL_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        maps(delta(2), delta(2), budget=3)
    assert len(maps(delta(2), delta(2))) > 0


def test_two_category_loader_requires_total_tables():
    doc = twocat.standard_examples()["chain-1"].to_json_dict()
    doc["comp1"] = doc["comp1"][1:]
    C = twocat.FiniteTwoCategory.from_json_dict(doc)
    assert any("comp1 missing" in line for line in C.validate())
