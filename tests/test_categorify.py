import functools
import hashlib
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complicial import categorify as cg
from complicial import cli, lifting, nerves, tdelta, twocat
from complicial.categorify import (Pasting, PastingFactor, TwoPolygraph,
                                   Word, categorify, counit_assignment,
                                   section_check)
from oracles import (EvaluationRefused, evaluate_free, evaluate_presentation,
                     two_functors)


@pytest.fixture(scope="module")
def catalog():
    return twocat.standard_examples()


def iso_two_categories(C, D):
    sizes = lambda E: (len(E.objects), len(E.one_cells), len(E.two_cells))
    if sizes(C) != sizes(D):
        return False
    for F in two_functors(C, D):
        ob, o1, o2 = dict(F.on_objects), dict(F.on_one), dict(F.on_two)
        if len(set(ob.values())) == len(ob) and \
                len(set(o1.values())) == len(o1) and \
                len(set(o2.values())) == len(o2):
            return True
    return False


# -- the defining table on representables ---------------------------------------

def test_marked_edge_gives_free_adjoint_equivalence_presentation():
    P = categorify(tdelta.delta_t(1))
    assert P.zero_gens == ("0", "1")
    assert P.one_gens == {"E|01": ("0", "1"), "G|t|01": ("1", "0")}
    assert set(P.two_gens) == {"Eta|t|01", "EtaInv|t|01",
                               "Eps|t|01", "EpsInv|t|01"}
    f, g = ("E|01",), ("G|t|01",)
    assert P.two_gens["Eta|t|01"] == (Word("0", "0"), Word("0", "0", f + g))
    assert P.two_gens["Eps|t|01"] == (Word("1", "1", g + f), Word("1", "1"))
    assert len(P.relations) == 6
    # the two swap relations, verbatim
    we = Word("0", "1", f)
    f_eta = Pasting(we, (PastingFactor((), "Eta|t|01", f),))
    epsinv_f = Pasting(we, (PastingFactor(f, "EpsInv|t|01", ()),))
    assert tuple(sorted((f_eta, epsinv_f))) in P.relations
    gfg = Word("1", "1", g + f + g)
    g_eps = Pasting(gfg, (PastingFactor((), "Eps|t|01", g),))
    etainv_g = Pasting(gfg, (PastingFactor(g, "EtaInv|t|01", ()),))
    assert tuple(sorted((g_eps, etainv_g))) in P.relations


def test_boundary_of_triangle_is_free(catalog):
    P = categorify(tdelta.boundary(2, dim=2))
    assert P.counts() == {"zero": 3, "one": 3, "two": 0, "relations": 0}
    C = evaluate_free(P)
    assert C.validate() == []
    nonid = [c for c in C.one_cells.values() if not c.identity]
    assert len(nonid) == 4
    assert not any(not c.identity for c in C.two_cells.values())
    # the two parallel morphisms from 0 to 2 stay distinct
    assert len(C.hom("0", "2")) == 2


def test_marked_triangle_evaluates_to_inverted_oriental(catalog):
    P = categorify(tdelta.delta_t(2))
    C, words, cid = evaluate_presentation(P)
    assert C.validate() == []
    assert iso_two_categories(C, catalog["inv-oriental-2"])


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_simplices_evaluate_to_orientals(m):
    P = categorify(tdelta.delta(m, dim=m))
    C, _, _ = evaluate_presentation(P)
    assert C.validate() == []
    assert iso_two_categories(C, twocat.oriental2(m))


def test_marked_simplex_counts_match_for_m3():
    assert categorify(tdelta.delta_t(3)).counts() == \
        categorify(tdelta.delta(3, dim=3)).counts()


def test_degenerate_simplices_contribute_nothing(catalog):
    X = nerves.natural_nerve(catalog["sigma-iso"], 4)
    P = categorify(X)
    for g in P.one_gens:
        kind, rest = g.split("|", 1)
        if kind == "E":
            assert not X.is_degenerate(1, rest)
    for g in P.two_gens:
        kind, rest = g.split("|", 1)
        if kind == "A":
            assert not X.is_degenerate(2, rest)


def test_polygraphs_validate(catalog):
    for name in ("chain-1", "sigma-iso", "z2", "inv-oriental-2"):
        X = nerves.natural_nerve(catalog[name], 4)
        assert categorify(X).validate() == []


def test_evaluation_refusals():
    loop = TwoPolygraph(("x",), {"a": ("x", "x")}, {}, ())
    with pytest.raises(EvaluationRefused):
        evaluate_free(loop)
    with pytest.raises(EvaluationRefused):
        evaluate_presentation(categorify(tdelta.delta_t(1)))
    with_rel = categorify(tdelta.delta(3, dim=3))
    with pytest.raises(EvaluationRefused):
        evaluate_free(with_rel)


def test_empty_presentation_evaluates_to_empty():
    C = evaluate_free(TwoPolygraph((), {}, {}, ()))
    assert C.objects == () and not C.one_cells


def test_endo_two_generator_budget_refusal():
    P = TwoPolygraph(("x", "y"), {"a": ("x", "y")},
                     {"phi": (Word("x", "y", ("a",)), Word("x", "y", ("a",)))},
                     ())
    with pytest.raises(EvaluationRefused):
        evaluate_free(P, budget=50)


def test_counit_assignment_relations_hold(catalog):
    for name in ("chain-1", "sigma-iso", "z2", "inv-oriental-2", "iso"):
        assignment = counit_assignment(catalog[name], 4)
        assert assignment.polygraph.validate() == []


def test_counit_detects_broken_transcription(catalog):
    C = catalog["z2"]
    assignment = counit_assignment(C, 4)
    bad_two = dict(assignment.on_two)
    swapped = False
    for g, val in bad_two.items():
        if g.startswith("Eta|") and val == "sg":
            bad_two[g] = "u"
            swapped = True
            break
    assert swapped
    failures = []
    for p1, p2 in assignment.polygraph.relations:
        try:
            v1 = cg._eval_pasting(C, assignment.on_one, bad_two, p1)
            v2 = cg._eval_pasting(C, assignment.on_one, bad_two, p2)
            if v1 != v2:
                failures.append((p1, p2))
        except KeyError:
            failures.append((p1, p2))
    assert failures


def test_section_check_parallel_pair(catalog):
    assignment = counit_assignment(catalog["sigma-parallel"], 4)
    assert section_check(assignment, "x", "y").ok
    assert section_check(assignment, "x", "x").ok


def test_section_check_inverted_oriental(catalog):
    C = catalog["inv-oriental-2"]
    assignment = counit_assignment(C, 4)
    for x in C.objects:
        for y in C.objects:
            assert section_check(assignment, x, y).ok


def test_polygraph_json(catalog):
    P = categorify(tdelta.delta_t(2))
    doc = P.to_json_dict()
    assert set(doc) == {"zero_gens", "one_gens", "two_gens", "relations"}
    assert len(doc["relations"]) == len(P.relations)


def _with_free_token(m, under):
    """The document of Delta[m] with one more token, "extra", over the
    simplex ``under`` of level m; no zeta names it."""
    doc = tdelta.delta(m).to_json_dict()
    doc["tokens"][m - 1].append({"id": "extra", "under": under})
    return doc


def test_free_token_over_a_degenerate_triangle(tmp_path):
    """A token over the degenerate triangle 001 that no zeta names gets an
    inverse generator on the edge 01, related to the empty pasting."""
    doc = _with_free_token(2, "001")
    X = tdelta.TruncatedTDeltaSet.from_json_dict(doc)
    assert X.validate() == []
    P = categorify(X)
    edge = Word("0", "1", ("E|01",))
    assert P.two_gens["Ainv|extra"] == (edge, edge)
    inverse = Pasting(edge, (PastingFactor((), "Ainv|extra", ()),))
    assert P.relations == ((Pasting(edge), inverse),)
    assert P.validate() == []
    path, out = tmp_path / "X.json", tmp_path / "P.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["categorify", "--input", str(path),
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == P.to_json_dict()


# -- one rule per generator family, on random free marks ----------------------

MARKINGS = ("street", "rs", "natural")


@functools.cache
def _nerve(name, N, marking):
    return nerves.nerve_with_info(twocat.standard_examples()[name], N,
                                  marking)[0]


@st.composite
def with_extra_tokens(draw):
    """The document of a catalog nerve at dim 1-3 with 1-4 more tokens, each
    over a simplex of some level 1..dim, degenerate or not by a coin toss
    where the level has both; no zeta names them."""
    N = draw(st.integers(1, 3))
    X = _nerve(draw(st.sampled_from(sorted(twocat.standard_examples()))), N,
               draw(st.sampled_from(MARKINGS)))
    doc = X.to_json_dict()
    for k in range(draw(st.integers(1, 4))):
        m = draw(st.integers(1, N))
        degenerate = draw(st.booleans())
        pool = [s for s in X.simplex_ids(m)
                if X.is_degenerate(m, s) == degenerate] or X.simplex_ids(m)
        if pool:
            doc["tokens"][m - 1].append(
                {"id": f"extra{k}", "under": draw(st.sampled_from(pool))})
    return doc


@given(with_extra_tokens())
@settings(max_examples=60, deadline=None)
def test_generator_counts_follow_the_document(doc):
    """Generators and inverse relations counted from the document's own
    tables: degeneracy entries for the degenerate simplices, zeta entries
    for the free marks."""
    X = tdelta.TruncatedTDeltaSet.from_json_dict(doc)
    assert X.validate() == []
    P = categorify(X)
    assert P.validate() == []
    degenerate = {(m + 1, v) for m, _, _, v in doc["degeneracies"]}
    picked = {(m + 1, t) for m, _, _, t in doc["zeta"]}

    def nondegenerate(m):
        return [s for s in doc["simplices"][m] if (m, s) not in degenerate] \
            if m <= doc["dim"] else []

    def free(m):
        return [t for t in doc["tokens"][m - 1] if (m, t["id"]) not in picked] \
            if m <= doc["dim"] else []

    assert len(P.one_gens) == len(nondegenerate(1)) + len(free(1))
    assert len(P.two_gens) == \
        len(nondegenerate(2)) + len(free(2)) + 4 * len(free(1))
    for t in free(2):
        inv = f"Ainv|{t['id']}"
        hits = [r for r in P.relations
                if any(f.gen == inv for p in r for f in p.factors)]
        assert len(hits) == (1 if (2, t["under"]) in degenerate else 2)


# -- every presentation pinned by digest ---------------------------------------

PRESENTATION_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "presentation_digests.json").read_text())


def _pinned_inputs():
    """(key, marked set) for every pinned presentation: the catalog under
    the three markings at dims 0-4, four entries at dim 5, both shapes of
    every extension of anodyne_library(2, 5) and two hand-made free marks
    over degenerate simplices."""
    catalog = twocat.standard_examples()
    for name, C in sorted(catalog.items()):
        for marking in ("street", "rs", "natural"):
            for N in range(5):
                yield (f"{name}/{marking}/{N}",
                       nerves.nerve_with_info(C, N, marking)[0])
    for name in ("chain-2", "iso", "sigma-iso", "oriental-3"):
        for marking in ("street", "rs", "natural"):
            yield (f"{name}/{marking}/5",
                   nerves.nerve_with_info(catalog[name], 5, marking)[0])
    for ext in lifting.anodyne_library(2, 5):
        yield f"{ext.label()}/A", ext.A
        yield f"{ext.label()}/B", ext.B
    for m, under in ((2, "001"), (1, "00")):
        yield (f"free-mark-over-{under}", tdelta.TruncatedTDeltaSet
               .from_json_dict(_with_free_token(m, under)))


def presentation_digest(P):
    doc = json.dumps(P.to_json_dict(), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def test_presentations_are_pinned():
    got = {key: presentation_digest(categorify(X))
           for key, X in _pinned_inputs()}
    assert len(got) == 342
    assert got == PRESENTATION_DIGESTS
