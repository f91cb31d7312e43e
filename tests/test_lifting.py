import functools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complicial import nerves, tdelta, twocat
from complicial.lifting import (AnodyneExtension, _compile_plan,
                                _part_to_map, _Plan, anodyne_library,
                                check_extension, is_precomplicial)
from complicial.tdelta import BudgetExceeded, TruncatedTDeltaSet, inclusion_map
from oracles import (LiftingProblem, check_extension_generic,
                     compile_plan_from_shapes, dfs_search, find_isomorphism,
                     find_lift, iter_maps, maps, rs_fibrancy_prediction,
                     witnesses)


@pytest.fixture(scope="module")
def catalog():
    return twocat.standard_examples()


def test_library_counts():
    lib = anodyne_library(2, 5)
    families = {}
    for e in lib:
        families[e.family] = families.get(e.family, 0) + 1
    # horns: sum of m+1 for m in 1..5; thinness: m+1 for m in 2..5;
    # triviality: l in 3..5; saturation: l in -1..1
    assert families == {"horn": sum(m + 1 for m in range(1, 6)),
                        "thinness": sum(m + 1 for m in range(2, 6)),
                        "triviality": 3, "saturation": 3}
    assert len(lib) == 44


def test_library_at_other_triviality_index():
    lib0 = anodyne_library(0, 4)
    trivs = [dict(e.params)["l"] for e in lib0 if e.family == "triviality"]
    assert trivs == [1, 2, 3, 4]


def test_horn12_codomain_is_marked_simplex():
    lib = anodyne_library(2, 2)
    e = next(x for x in lib
             if x.family == "horn" and dict(x.params) == {"k": 1, "m": 2})
    assert e.B.same_as(tdelta.delta_t(2))


def test_non_horn_extensions_identity_on_underlying():
    for e in anodyne_library(2, 5):
        assert e.inclusion.is_mono()
        if e.family == "horn":
            continue
        for m in range(e.A.dim + 1):
            assert e.A.simplex_ids(m) == e.B.simplex_ids(m)


def test_find_lift_trivial_inclusion(catalog):
    X = nerves.rs_nerve(catalog["chain-1"], 3)
    A = tdelta.delta(1)
    ext = AnodyneExtension("horn-noop", (), A, A)
    f = maps(A, X)[0]
    lift = find_lift(LiftingProblem(ext, f))
    assert lift.equals(f)


def test_horn_lift_in_natural_nerve_is_composite(catalog):
    C = catalog["oriental-2"]
    X = nerves.natural_nerve(C, 3)
    lib = anodyne_library(2, 2)
    ext = next(x for x in lib
               if x.family == "horn" and dict(x.params) == {"k": 1, "m": 2})
    # the horn picking the two generating edges of the oriental
    picked = None
    for f in iter_maps(ext.A, X):
        if f.apply_simplex(1, "01") == "f01" and \
                f.apply_simplex(1, "12") == "f12":
            picked = f
            break
    lift = find_lift(LiftingProblem(ext, picked))
    assert lift is not None and lift.is_valid()
    assert lift.compose(inclusion_map(ext.A, ext.B)).equals(picked)
    _, info = nerves.nerve_with_info(C, 3, "natural")
    filler = lift.apply_simplex(2, "012")
    u, v, alpha = info.two_data[filler]
    assert (u, v) == ("f01", "f12")
    assert C.two_cells[alpha].tgt == C.comp("f12", "f01")


def test_saturation_failure_witness_matches_displayed_simplex(catalog):
    C = catalog["iso"]
    X = nerves.rs_nerve(C, 5)
    ext = next(e for e in anodyne_library(2, 5)
               if e.family == "saturation" and dict(e.params)["l"] == -1)
    res = check_extension(X, ext)
    assert not res.passed
    w = res.witness
    e01 = w.apply_simplex(1, "01")
    e12 = w.apply_simplex(1, "12")
    e23 = w.apply_simplex(1, "23")
    e03 = w.apply_simplex(1, "03")
    # the displayed simplex: f, f^-1, f, f with identity diagonals
    assert e01 == e23 == e03
    assert not C.one_cells[e01].identity
    assert C.comp(e12, e01) == C.identity_of(C.one_cells[e01].src)
    assert C.comp(e01, e12) == C.identity_of(C.one_cells[e01].tgt)
    assert C.one_cells[w.apply_simplex(1, "02")].identity
    assert C.one_cells[w.apply_simplex(1, "13")].identity
    _, info = nerves.nerve_with_info(C, 5, "rs")
    for tri in ("012", "013", "023", "123"):
        assert C.two_cells[info.witness(w.apply_simplex(2, tri))].identity


def test_sigma_iso_fails_degenerate_join_saturation(catalog):
    X = nerves.rs_nerve(catalog["sigma-iso"], 5)
    report = is_precomplicial(X, 2, 5)
    failed = {r.extension.label() for r in report.failures()}
    assert "saturation(l=0)" in failed
    assert "saturation(l=-1)" not in failed
    assert all(lab.startswith("saturation") for lab in failed)


def test_witness_replays(catalog):
    """A reported witness re-fails in isolation through the generic search."""
    X = nerves.rs_nerve(catalog["iso"], 4)
    ext = next(e for e in anodyne_library(2, 4)
               if e.family == "saturation" and dict(e.params)["l"] == -1)
    res = check_extension(X, ext)
    assert res.witness.is_valid()
    assert find_lift(LiftingProblem(ext, res.witness)) is None


def test_specialized_agrees_with_generic(catalog):
    X = nerves.natural_nerve(catalog["z2"], 4)
    for ext in anodyne_library(2, 4):
        a = check_extension(X, ext)
        b = check_extension_generic(X, ext)
        assert a.passed == b.passed, ext.label()


SMALL = ["chain-1", "chain-2", "chain-3", "inv-oriental-2", "iso",
         "oriental-2", "sigma-arrow", "sigma-iso", "sigma-parallel", "z2"]


@functools.cache
def small_nerve(name, marking, dim):
    return nerves.nerve_with_info(twocat.standard_examples()[name], dim,
                                  marking)[0]


@st.composite
def sub_marked_nerves(draw, dim=3):
    """A small catalog nerve at dim with a random set of its free tokens
    dropped from its document."""
    X = small_nerve(draw(st.sampled_from(SMALL)),
                    draw(st.sampled_from(["rs", "natural"])), dim)
    free = [(m, t) for m in range(1, X.dim + 1)
            for t, w in zip(X._tok_ids[m], witnesses(X)[1][m]) if w is None]
    drop = draw(st.sets(st.sampled_from(free))) if free else set()
    doc = X.to_json_dict()
    doc["tokens"] = [[d for d in level if (m, d["id"]) not in drop]
                     for m, level in enumerate(doc["tokens"], 1)]
    return TruncatedTDeltaSet.from_json_dict(doc)


@given(sub_marked_nerves())
@settings(max_examples=12, deadline=None)
def test_specialized_agrees_with_generic_on_sub_markings(X):
    """Same verdicts; the same count where the extension passes on a
    stratified X (the generic search also counts token choices); every
    witness is a map without a lift.  The first witness depends on the
    search order, so it is not compared."""
    _agrees_with_generic(X, anodyne_library(2, 3))


@given(sub_marked_nerves(dim=4))
@settings(max_examples=5, deadline=None)
def test_specialized_agrees_with_generic_on_sub_markings_at_dim_4(X):
    """The same comparison on the library at dim 4, whose 4-horns have four
    slots and whose saturation(l=-1) fails on some rs nerves."""
    _agrees_with_generic(X, anodyne_library(2, 4))


def _agrees_with_generic(X, library):
    for ext in library:
        a = check_extension(X, ext)
        b = check_extension_generic(X, ext)
        assert a.passed == b.passed, ext.label()
        if a.passed and X.is_stratified():
            assert a.maps_checked == b.maps_checked, ext.label()
        for w in (a.witness, b.witness):
            assert w is None or w.is_valid() and \
                find_lift(LiftingProblem(ext, w)) is None, ext.label()


def test_lift_soundness(catalog):
    X = nerves.natural_nerve(catalog["chain-2"], 3)
    for ext in anodyne_library(2, 3):
        incl = ext.inclusion
        for f in iter_maps(ext.A, X):
            lift = find_lift(LiftingProblem(ext, f))
            assert lift is not None
            assert lift.compose(incl).equals(f)


def test_budget_exhaustion_is_distinct(catalog):
    X = nerves.natural_nerve(catalog["oriental-2"], 4)
    ext = anodyne_library(2, 4)[0]
    with pytest.raises(BudgetExceeded,
                       match=r"^horn\(k=0,m=1\): 3 domain nodes$"):
        check_extension(X, ext, budget=2)
    with pytest.raises(BudgetExceeded,
                       match=r"^horn\(k=0,m=3\): 51 domain nodes$"):
        is_precomplicial(X, 2, 4, budget=50)


def test_compile_plan_rejects_foreign_shapes():
    """A raised invariant, so it also holds under ``python -O``."""
    ext = AnodyneExtension("triviality", (("l", 2),),
                           tdelta.boundary(2, dim=2), tdelta.delta(2))
    with pytest.raises(twocat.InvalidInput, match="simplex-shaped"):
        compile_plan_from_shapes(ext)


def test_plans_from_the_definitions_match_the_shapes():
    """Every field of every plan of the libraries up to dim 6, the chains
    in insertion order, as read off the built shapes."""
    for N in range(1, 7):
        for ext in anodyne_library(2, N):
            got, want = _compile_plan(ext), compile_plan_from_shapes(ext)
            assert [getattr(got, f) for f in _Plan.__slots__] == \
                [getattr(want, f) for f in _Plan.__slots__], ext.label()
            assert list(got.chains.items()) == list(want.chains.items())


def test_plan_of_an_unknown_family_is_refused():
    ext = AnodyneExtension("horn-noop", (), tdelta.delta(1), tdelta.delta(1))
    with pytest.raises(twocat.InvalidInput,
                       match="not an elementary anodyne family"):
        _compile_plan(ext)


@given(sub_marked_nerves(dim=4), st.lists(st.integers(0, 1000), min_size=30,
                                          max_size=30))
@settings(max_examples=8, deadline=None)
def test_budgets_that_cut_anywhere_agree_with_the_plain_walk(X, cuts):
    """With a budget from 1 to one past the nodes the plain depth-first walk
    draws to completion, the column walk returns the same maps checked
    and witness, or runs out of budget with the same message; so does the
    default budget, under which it prunes."""
    for ext, cut in zip(anodyne_library(2, 4), cuts):
        plan = _compile_plan(ext)
        checked, values, nodes = dfs_search(X, plan, float("inf"))
        for budget in (1 + cut * nodes // 1000, None):
            try:
                want = dfs_search(X, plan, budget or float("inf"))[:2]
            except BudgetExceeded:
                with pytest.raises(BudgetExceeded, match=re.escape(
                        f"{ext.label()}: {budget + 1} domain nodes")):
                    check_extension(X, ext, budget)
                continue
            res = check_extension(X, ext, budget)
            assert res.maps_checked == want[0], (ext.label(), budget)
            assert (res.witness is None) == (want[1] is None)
            if want[1] is not None:
                assert res.witness.to_json_dict() == _part_to_map(
                    X, ext, plan, want[1]).to_json_dict()


def _relabel(X, prefix):
    doc = X.to_json_dict()
    ren = lambda s: f"{prefix}{s}"
    doc["simplices"] = [[ren(s) for s in lvl] for lvl in doc["simplices"]]
    doc["faces"] = [[m, i, ren(s), ren(y)] for m, i, s, y in doc["faces"]]
    doc["degeneracies"] = [[m, i, ren(s), ren(y)]
                           for m, i, s, y in doc["degeneracies"]]
    doc["tokens"] = [[{"id": ren(d["id"]), "under": ren(d["under"])}
                      for d in lvl] for lvl in doc["tokens"]]
    doc["zeta"] = [[m, i, ren(s), ren(t)] for m, i, s, t in doc["zeta"]]
    return TruncatedTDeltaSet.from_json_dict(doc, name=f"{prefix}{X.name}")


def test_report_invariant_under_relabeling(catalog):
    X = nerves.rs_nerve(catalog["sigma-iso"], 4)
    Y = _relabel(X, "zz.")
    assert find_isomorphism(X, Y) is not None
    ra = is_precomplicial(X, 2, 4)
    rb = is_precomplicial(Y, 2, 4)
    assert [(r.extension.label(), r.passed, r.maps_checked)
            for r in ra.results] == \
        [(r.extension.label(), r.passed, r.maps_checked) for r in rb.results]


def test_positive_fibrancy_small(catalog):
    X = nerves.natural_nerve(catalog["chain-1"], 4)
    report = is_precomplicial(X, 2, 4)
    assert report.passed
    doc = report.to_json_dict()
    assert doc["passed"] and set(doc["classes"]) == \
        {"horn", "thinness", "triviality", "saturation"}


def test_fibrancy_report_deterministic(catalog):
    """Two runs on separately built nerves give byte-identical reports."""
    r1, r2 = (is_precomplicial(nerves.natural_nerve(catalog["sigma-iso"], 4),
                               2, 4) for _ in range(2))
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == \
        json.dumps(r2.to_json_dict(), sort_keys=True)


def test_rs_fibrancy_criterion_both_readings(catalog):
    """The strict and weak readings of the criterion agree on the catalog,
    and both predict the lifting outcome of the identity-marked nerve."""
    for name in ["chain-0", "chain-1", "chain-2", "sigma-iso",
                 "sigma-parallel", "inv-oriental-2", "oriental-2", "iso",
                 "z2"]:
        C = catalog[name]
        pred = rs_fibrancy_prediction(C)
        assert pred["fibrant_by_strict_reading"] == \
            pred["fibrant_by_weak_reading"], name
        X = nerves.rs_nerve(C, 5)
        actual = is_precomplicial(X, 2, 5).passed
        assert actual == pred["fibrant_by_strict_reading"], name
