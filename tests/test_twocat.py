import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complicial import twocat
from complicial.twocat import (AdjointEquivalence, FiniteTwoCategory,
                               adjoint_equivalence_completions,
                               invertible_2cells, oriental2,
                               standard_examples, suspension)
from oracles import is_equivalence, two_functors


@pytest.fixture(scope="module")
def catalog():
    return standard_examples()


def test_catalog_is_valid(catalog):
    for name, C in catalog.items():
        assert C.validate() == [], name


def test_category_builders_list_no_unit_composite():
    """The 1-category builders list only composites of non-identity arrows;
    ``_with_units`` adds the ones that the unit laws fix."""
    for D in [*map(twocat.chain_category, range(-1, 7)),
              twocat.iso_category(), twocat.parallel_pair_category()]:
        arrows = D.arrow_map()
        assert not [gf for gf, _ in D.comp
                    if arrows[gf[0]].identity or arrows[gf[1]].identity]


# -- oriental counts, against an independent path/subset oracle ---------------

def oracle_one_cell_count(m):
    """Strictly increasing vertex paths, counted directly."""
    count = 0
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            for r in range(j - i):
                count += sum(1 for _ in itertools.combinations(
                    range(i + 1, j), r))
    return count


def oracle_two_cell_count(m):
    """Strict containments of interior subsets over each vertex pair."""
    count = 0
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            interior = list(range(i + 1, j))
            subsets = []
            for r in range(len(interior) + 1):
                subsets += [frozenset(c)
                            for c in itertools.combinations(interior, r)]
            count += sum(1 for p in subsets for q in subsets
                         if p < q)
    return count


@pytest.mark.parametrize("m,ones,twos", [(2, 4, 1), (3, 11, 7)])
def test_oriental_counts_frozen(m, ones, twos):
    C = oriental2(m)
    nonid1 = [f for f, c in C.one_cells.items() if not c.identity]
    nonid2 = [a for a, c in C.two_cells.items() if not c.identity]
    assert len(nonid1) == ones == oracle_one_cell_count(m)
    assert len(nonid2) == twos == oracle_two_cell_count(m)


@given(st.integers(min_value=0, max_value=5))
@settings(max_examples=6, deadline=None)
def test_oriental_count_formula(m):
    C = oriental2(m)
    nonid1 = sum(1 for c in C.one_cells.values() if not c.identity)
    assert nonid1 == sum(2 ** (j - i - 1)
                         for i in range(m + 1) for j in range(i + 1, m + 1))


def test_oriental_poset_property():
    C = oriental2(3)
    # at most one 2-cell between parallel 1-cells, present iff subsets nest
    for a in C.one_cells.values():
        for b in C.one_cells.values():
            if (a.src, a.tgt) != (b.src, b.tgt):
                continue
            cells = C.two_cells_between(a.id, b.id)
            assert len(cells) <= 1
    # the edge maps into the full composite
    assert C.two_cells_between("f03", "f0123") != []
    assert C.two_cells_between("f0123", "f03") == []


def test_oriental_three_simplex_relation():
    """Both pasting orders of the four triangle generators agree."""
    C = oriental2(3)
    a = {"012": "a02>012", "013": "a03>013", "023": "a03>023",
         "123": "a13>123"}
    lhs = C.vert(C.wr(a["123"], "f01"), a["013"])
    rhs = C.vert(C.wl("f23", a["012"]), a["023"])
    assert lhs == rhs


def test_oriental_range_guard():
    with pytest.raises(twocat.InvalidInput):
        oriental2(7)


def test_terminal_oriental(catalog):
    C = oriental2(0)
    assert len(C.objects) == 1
    assert all(c.identity for c in C.one_cells.values())


# -- validation ----------------------------------------------------------------

def test_validate_detects_rerouted_composition():
    C = oriental2(2)
    comp1 = dict(C.comp1)
    comp1[("f12", "f01")] = "f02"
    broken = FiniteTwoCategory(C.objects, list(C.one_cells.values()), comp1,
                               list(C.two_cells.values()), dict(C.vcomp),
                               dict(C.whisker_l), dict(C.whisker_r))
    report = broken.validate()
    assert report != []
    assert any("f01" in line or "f12" in line for line in report)


def test_validate_detects_unit_reroute():
    C = oriental2(2)
    comp1 = dict(C.comp1)
    comp1[("f01", "e0")] = "f012"  # breaks both units and typing
    broken = FiniteTwoCategory(C.objects, list(C.one_cells.values()), comp1,
                               list(C.two_cells.values()), dict(C.vcomp),
                               dict(C.whisker_l), dict(C.whisker_r))
    assert broken.validate() != []


# -- invertibles, completions, equivalences -------------------------------------

def test_invertible_identity_is_self(catalog):
    C = catalog["chain-1"]
    inv = invertible_2cells(C)
    for a, cell in C.two_cells.items():
        if cell.identity:
            assert inv[a] == a


def test_oriental_top_cell_not_invertible():
    C = oriental2(2)
    assert "a02>012" not in invertible_2cells(C)


def test_inverted_oriental_top_cell_invertible(catalog):
    C = catalog["inv-oriental-2"]
    inv = invertible_2cells(C)
    assert inv["a02>012"] == "b012>02"
    assert inv["b012>02"] == "a02>012"


def test_completions_identity_in_chain(catalog):
    C = catalog["chain-1"]
    assert adjoint_equivalence_completions(C, "c00") == [
        AdjointEquivalence("c00", "c00", "i2_c00", "i2_c00")]
    assert adjoint_equivalence_completions(C, "c01") == []
    assert is_equivalence(C, "c00")
    assert not is_equivalence(C, "c01")


def test_completions_z2_has_two(catalog):
    C = catalog["z2"]
    comps = adjoint_equivalence_completions(C, "e")
    assert comps == [AdjointEquivalence("e", "e", "sg", "sg"),
                     AdjointEquivalence("e", "e", "u", "u")]


def test_completions_iso_forced(catalog):
    C = catalog["iso"]
    assert adjoint_equivalence_completions(C, "f") == [
        AdjointEquivalence("f", "g", "i2_ix", "i2_iy")]
    assert is_equivalence(C, "f")


def test_cached_tables_are_handed_out_as_copies():
    C = standard_examples()["z2"]
    inv = invertible_2cells(C)
    comps = adjoint_equivalence_completions(C, "e")
    inv.clear()
    comps.clear()
    assert invertible_2cells(C) == {"sg": "sg", "u": "u"}
    assert adjoint_equivalence_completions(C, "e") == [
        AdjointEquivalence("e", "e", "sg", "sg"),
        AdjointEquivalence("e", "e", "u", "u")]


def test_completion_invariants(catalog):
    """Triangle identities re-asserted by direct table lookup."""
    for name in ("iso", "z2", "inv-oriental-2", "sigma-iso"):
        C = catalog[name]
        inv = invertible_2cells(C)
        for f in C.one_cells:
            for ae in adjoint_equivalence_completions(C, f):
                assert ae.eta in inv and ae.eps in inv
                lhs = C.vert(C.wr(ae.eps, f), C.wl(f, ae.eta))
                assert lhs == C.identity2_of(f)
                rhs = C.vert(C.wl(ae.g, ae.eps), C.wr(ae.eta, ae.g))
                assert rhs == C.identity2_of(ae.g)


# -- suspension ------------------------------------------------------------------

def test_suspension_of_point_is_arrow():
    S = suspension(twocat.chain_category(0))
    assert S.validate() == []
    assert len(S.objects) == 2
    assert sum(1 for c in S.one_cells.values() if not c.identity) == 1


def test_suspension_of_iso(catalog):
    S = catalog["sigma-iso"]
    assert len(S.one_cells) == 4
    nonid2 = [a for a, c in S.two_cells.items() if not c.identity]
    assert len(nonid2) == 2
    inv = invertible_2cells(S)
    assert all(a in inv for a in nonid2)


def test_suspension_parallel_pair(catalog):
    S = catalog["sigma-parallel"]
    nonid2 = [a for a, c in S.two_cells.items() if not c.identity]
    assert len(nonid2) == 2
    assert not any(a in invertible_2cells(S) for a in nonid2)


def test_suspension_off_diagonal_empty(catalog):
    S = catalog["sigma-iso"]
    assert S.hom("y", "x") == []
    assert S.hom("x", "x") == ["ix"]


# -- the inverted oriental -------------------------------------------------------

def test_inverted_oriental_hom(catalog):
    C = catalog["inv-oriental-2"]
    assert C.hom("0", "2") == ["f012", "f02"]
    assert C.two_cells_between("f02", "f012") == ["a02>012"]
    assert C.two_cells_between("f012", "f02") == ["b012>02"]
    inv = invertible_2cells(C)
    assert inv["a02>012"] == "b012>02"


# -- 2-functor enumeration -------------------------------------------------------

@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_two_functor_count_into_chain(m, catalog):
    assert len(two_functors(oriental2(m), catalog["chain-1"])) == m + 2


def test_two_functors_preserve_structure(catalog):
    C, D = oriental2(2), catalog["inv-oriental-2"]
    for F in two_functors(C, D):
        o1 = dict(F.on_one)
        o2 = dict(F.on_two)
        for (g, f), r in C.comp1.items():
            assert D.comp(o1[g], o1[f]) == o1[r]
        for (b, a), r in C.vcomp.items():
            assert D.vert(o2[b], o2[a]) == o2[r]
        for (c, a), r in C.whisker_l.items():
            assert D.wl(o1[c], o2[a]) == o2[r]


def test_two_functors_from_free_isomorphism(catalog):
    # functors out of the locally discrete iso classify strict isomorphisms
    count = len(two_functors(catalog["iso"], catalog["inv-oriental-2"]))
    # strict isos in IO2[2]: three identities only
    assert count == 3


# -- JSON -------------------------------------------------------------------------

def test_json_round_trip(catalog):
    for name in ("z2", "sigma-iso", "oriental-2"):
        C = catalog[name]
        doc = C.to_json_dict()
        back = FiniteTwoCategory.from_json_dict(doc, name=name)
        assert back.validate() == []
        assert back.to_json_dict() == doc


def test_json_rejects_malformed():
    with pytest.raises(twocat.InvalidInput):
        FiniteTwoCategory.from_json_dict({"objects": []})
