import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complicial import categorify as cg
from complicial import factorization as fz
from complicial import lifting, nerves, tdelta, twocat
from oracles import rs_fibrancy_prediction
from samples import codiscrete, cyclic_group, strict_two_group


@pytest.fixture(scope="module")
def catalog():
    return twocat.standard_examples()


def _rs(C, N=4):
    return nerves.nerve_with_info(C, N, "rs")


def test_stage_p1_empty_family_for_rigid_category(catalog):
    C = catalog["chain-2"]
    P1, to_p1, rep = fz.stage_p1(*_rs(C))
    assert rep.gluings == 0
    assert P1.same_as(nerves.rs_nerve(C, 4))


def test_stage_p1_sigma_iso_token_diff(catalog):
    C = catalog["sigma-iso"]
    X, info = _rs(C)
    P1, to_p1, rep = fz.stage_p1(X, info)
    assert rep.gluings == 2
    multi = [s for s in P1.simplex_ids(2) if len(P1.tokens_over(2, s)) > 1
             and not P1.is_degenerate(2, s)]
    wits = {info.witness(s) for s in multi}
    inv = twocat.invertible_2cells(C)
    assert wits and all(w in inv and not C.two_cells[w].identity
                        for w in wits)
    # every multiply marked triangle has a degenerate 0th face
    for s in multi:
        assert P1.is_degenerate(1, P1.face_of(2, 0, s))


def test_stage_p2_collapse_and_retract(catalog):
    C = catalog["sigma-iso"]
    P1, to_p1, _ = fz.stage_p1(*_rs(C))
    P2, x_to_p2, r, s, rep = fz.stage_p2(P1, to_p1)
    assert P2.is_stratified()
    assert s.is_valid() and r.is_valid()
    assert r.compose(s).equals(tdelta.identity_map(P2))


def test_stage_p3_marks_all_invertible_triangles(catalog):
    C = catalog["inv-oriental-2"]
    X, info = _rs(C)
    P1, to_p1, _ = fz.stage_p1(X, info)
    P2, x_to_p2, _, _, _ = fz.stage_p2(P1, to_p1)
    P3, _, rep = fz.stage_p3(P2, info)
    fz._check_p3_characterization(P3, info)
    assert rep.gluings == 3


def test_stage_p3_no_gluings_for_one_category(catalog):
    C = catalog["chain-1"]
    X, info = _rs(C)
    P1, to_p1, _ = fz.stage_p1(X, info)
    P2, x_to_p2, _, _, _ = fz.stage_p2(P1, to_p1)
    P3, _, rep = fz.stage_p3(P2, info)
    assert rep.gluings == 0
    fz._check_p3_characterization(P3, info)


def test_stage_p4_identity_completions_only(catalog):
    C = catalog["chain-1"]
    X, info = _rs(C)
    P1, to_p1, _ = fz.stage_p1(X, info)
    P2, x_to_p2, _, _, _ = fz.stage_p2(P1, to_p1)
    P3, _, _ = fz.stage_p3(P2, info)
    Q, p3_to_q, P4, p3_to_p4, q, s, rep = fz.stage_p4_and_retract(P3, info)
    assert rep.gluings == 2  # the two identity completions
    assert Q.same_as(nerves.natural_nerve(C, 4))


def test_stage_p4_discrete_iso_each_edge_once(catalog):
    C = catalog["iso"]
    X, info = _rs(C)
    P1, to_p1, _ = fz.stage_p1(X, info)
    P2, x_to_p2, _, _, _ = fz.stage_p2(P1, to_p1)
    P3, _, _ = fz.stage_p3(P2, info)
    Q, *_ = fz.stage_p4_and_retract(P3, info)
    for e in Q.simplex_ids(1):
        assert len(Q.tokens_over(1, e)) == 1


@pytest.mark.parametrize("name", ["chain-0", "sigma-iso", "inv-oriental-2"])
def test_verify_factorization(name, catalog):
    *_, report = fz.verify_factorization(catalog[name], 5)
    assert report["final_equals_natural_nerve"]
    assert report["composite_equals_rs_to_natural"]


def test_factorization_deterministic(catalog):
    import json
    a = fz.verify_factorization(catalog["sigma-iso"], 4)[-1]
    b = fz.verify_factorization(catalog["sigma-iso"], 4)[-1]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_every_stage_gluing_map_is_valid(catalog, monkeypatch):
    seen = []
    real = tdelta.pushout_family

    def spy(X, gluings, **kwargs):
        seen.extend(gluings)
        return real(X, gluings, **kwargs)

    monkeypatch.setattr(tdelta, "pushout_family", spy)
    *_, report = fz.verify_factorization(catalog["inv-oriental-2"], 5)
    assert len(seen) == sum(s["gluings"] for s in report["stages"]) > 0
    for f, i in seen:
        assert f.is_valid() and i.is_valid() and i.is_mono()


def test_gluing_onto_an_unmarked_simplex_raises(catalog):
    X = nerves.duskin_nerve(catalog["chain-3"], 3)  # marks nothing but
    top, = X.nondegenerate_ids(3)                   # the degenerate simplices
    with pytest.raises(fz.StageError, match=f"P4: .* at {top}"):
        fz._glue(X, lifting.saturation(-1), [X._idx[3][top]], "P4", "P4")


def test_a_boundary_that_no_simplex_has_raises(catalog):
    X, info = _rs(catalog["inv-oriental-2"])
    t = X.nondegenerate_ids(2)[0]
    with pytest.raises(fz.StageError, match="no 3-simplex"):
        fz._simplex(X, info, "P3", lambda ijk: info.two_data[t], (0, 1, 2, 3))


def test_a_triple_that_is_no_triangle_raises(catalog):
    C = catalog["inv-oriental-2"]
    X, info = _rs(C)
    f = sorted(C.one_cells)[0]
    bad = (f, f, "no-such-cell")
    tris = [info.two_data[s] for s in X.nondegenerate_ids(2)[:3]] + [bad]
    faces = dict(zip([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)], tris))
    with pytest.raises(fz.StageError, match="^P3 skeleton fails"):
        fz._simplex(X, info, "P3", faces.get, (0, 1, 2, 3))


@st.composite
def invertible_two_categories(draw):
    """2-categories with non-identity invertible cells: suspended cyclic
    groups (invertible 2-cells), codiscrete groupoids (invertible 1-cells)
    and their suspensions (invertible 2-cells between distinct 1-cells)."""
    kind = draw(st.sampled_from(["susp-cyclic", "codisc", "susp-codisc"]))
    n = draw(st.integers(1, 4))
    if kind == "susp-cyclic":
        return twocat.suspension(cyclic_group(n), f"{kind}-{n}")
    if kind == "codisc":
        return twocat.two_category_from_category(codiscrete(n), f"{kind}-{n}")
    return twocat.suspension(codiscrete(n), f"{kind}-{n}")


def test_codiscrete_suspension_glues_in_p1_and_p3():
    C = twocat.suspension(codiscrete(3), "susp-codisc-3")
    *_, report = fz.verify_factorization(C, 4)
    assert [s["gluings"] for s in report["stages"][:3]] == [6, 0, 6]


def test_strict_two_group_meets_the_paper():
    """The strict 2-group has invertible 2-cells on ``m``, an equivalence
    that is no identity: the replay glues in P1, P3 and P4, the counit
    retracts the hom-category, the natural nerve is 2-precomplicial and
    the rs nerve fails only the saturations that the criterion predicts."""
    C = strict_two_group()
    *_, report = fz.verify_factorization(C, 4)
    assert [s["gluings"] for s in report["stages"]] == [2, 0, 2, 4]
    assert cg.section_check(cg.counit_assignment(C, 4), "*", "*").ok
    assert lifting.is_precomplicial(nerves.natural_nerve(C, 4), 2, 4).passed
    rs = lifting.is_precomplicial(_rs(C)[0], 2, 4)
    assert {r.extension.label() for r in rs.failures()} == {
        "saturation(l=-1)", "saturation(l=0)"}
    pred = rs_fibrancy_prediction(C)
    assert pred["fibrant_by_strict_reading"] is False
    assert pred["fibrant_by_weak_reading"] is False


@given(invertible_two_categories())
@settings(max_examples=15, deadline=None)
def test_random_invertible_cells_replay_and_counit(C):
    """The replay reaches the natural nerve, which is fibrant, and the
    counit retracts every hom-category embedding."""
    assert C.validate() == []
    fz.verify_factorization(C, 4)
    assert lifting.is_precomplicial(nerves.natural_nerve(C, 4), 2, 4).passed
    assignment = cg.counit_assignment(C, 4)
    for x in C.objects:
        for y in C.objects:
            assert cg.section_check(assignment, x, y).ok, (x, y)
