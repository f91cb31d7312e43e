"""Acceptance suite: the ten desk-scale criteria, one pass/fail line each.

Run standalone with ``pytest tests/test_acceptance.py -s`` or
``python tests/test_acceptance.py``.
"""

import itertools
import json
import sys
import time

from complicial import categorify as cg
from complicial import factorization as fz
from complicial import lifting, nerves, tdelta, twocat

import oracles

CATALOG = twocat.standard_examples()

# the ten 2-categories named by the nerve-oracle criterion
ORACLE_NAMES = ["chain-0", "chain-1", "chain-2", "sigma-iso",
                "sigma-parallel", "inv-oriental-2", "oriental-2",
                "oriental-3", "iso", "z2"]
FIBRANCY_NAMES = [n for n in ORACLE_NAMES if n != "z2"]
FACTORIZATION_NAMES = ["chain-0", "chain-1", "sigma-iso",
                       "inv-oriental-2", "iso"]
FF_NAMES = ["chain-0", "chain-1", "sigma-iso", "oriental-2"]


def _report(num, ok, desc, elapsed):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {desc}" \
           f"  [{elapsed:.1f}s]"
    print(line)
    sys.stdout.flush()
    assert ok, line


def test_criterion_01_oriental_counts():
    t0 = time.time()
    ok = True
    for m, ones, twos in [(2, 4, 1), (3, 11, 7)]:
        C = twocat.oriental2(m)
        got1 = sum(1 for c in C.one_cells.values() if not c.identity)
        got2 = sum(1 for c in C.two_cells.values() if not c.identity)
        # independent oracle: count increasing paths and subset containments
        paths = 0
        pairs = 0
        for i in range(m + 1):
            for j in range(i + 1, m + 1):
                interior = list(range(i + 1, j))
                subs = [frozenset(s) for r in range(len(interior) + 1)
                        for s in itertools.combinations(interior, r)]
                paths += len(subs)
                pairs += sum(1 for p in subs for q in subs if p < q)
        ok = ok and got1 == ones == paths and got2 == twos == pairs
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 1.0,
            "oriental 1-/2-cell counts match the path/subset oracle", elapsed)


def test_criterion_02_nerve_oracle():
    t0 = time.time()
    ok = True
    orientals = {m: twocat.oriental2(m) for m in range(4)}
    for name in ORACLE_NAMES:
        C = CATALOG[name]
        X = nerves.duskin_nerve(C, 3)
        for m in range(4):
            expected = len(oracles.two_functors(orientals[m], C))
            if len(X.simplex_ids(m)) != expected:
                ok = False
    elapsed = time.time() - t0
    _report(2, ok and elapsed < 60.0,
            "nerve simplex counts equal brute-force 2-functor counts", elapsed)


def _fibrancy_reports():
    docs = {}
    for name in FIBRANCY_NAMES:
        X = nerves.natural_nerve(CATALOG[name], 5)
        report = lifting.is_precomplicial(X, 2, 5)
        docs[name] = report.to_json_dict()
    return docs


def test_criterion_03_fibrancy_positives():
    t0 = time.time()
    docs = _fibrancy_reports()
    ok = all(doc["passed"] for doc in docs.values())
    ok = ok and all(len(doc["extensions"]) == 44 for doc in docs.values())
    elapsed = time.time() - t0
    _report(3, ok and elapsed < 600.0,
            "natural nerves lift against all 44 anodyne extensions", elapsed)


def test_criterion_04_fibrancy_negatives():
    t0 = time.time()
    C = CATALOG["iso"]
    X = nerves.rs_nerve(C, 5)
    ext = next(e for e in lifting.anodyne_library(2, 5)
               if e.family == "saturation" and dict(e.params)["l"] == -1)
    res = lifting.check_extension(X, ext)
    ok = not res.passed
    if ok:
        w = res.witness
        h = w.apply_simplex(1, "01")
        hbar = w.apply_simplex(1, "12")
        ok = (w.apply_simplex(1, "23") == h and
              w.apply_simplex(1, "03") == h and
              not C.one_cells[h].identity and
              C.comp(hbar, h) == C.identity_of(C.one_cells[h].src) and
              C.comp(h, hbar) == C.identity_of(C.one_cells[h].tgt) and
              C.one_cells[w.apply_simplex(1, "02")].identity and
              C.one_cells[w.apply_simplex(1, "13")].identity)
        _, info = nerves.nerve_with_info(C, 5, "rs")
        for tri in ("012", "013", "023", "123"):
            ok = ok and C.two_cells[info.witness(w.apply_simplex(2, tri))].identity

    S = CATALOG["sigma-iso"]
    XS = nerves.rs_nerve(S, 5)
    ext0 = next(e for e in lifting.anodyne_library(2, 5)
                if e.family == "saturation" and dict(e.params)["l"] == 0)
    res0 = lifting.check_extension(XS, ext0)
    ok = ok and not res0.passed
    if not res0.passed:
        w = res0.witness
        _, info = nerves.nerve_with_info(S, 5, "rs")
        inv = twocat.invertible_2cells(S)
        alpha = info.witness(w.apply_simplex(2, "0*12"))
        betas = {info.witness(w.apply_simplex(2, s))
                 for s in ("0*01", "0*23", "0*03")}
        ok = ok and alpha in inv and not S.two_cells[alpha].identity
        ok = ok and betas == {inv[alpha]}
        ok = ok and all(
            S.one_cells[w.apply_simplex(1, f"*{e}")].identity
            for e in ("01", "12", "23", "03", "02", "13"))
    elapsed = time.time() - t0
    _report(4, ok, "marked nerves fail saturation with the displayed "
            "witnesses", elapsed)


def _factorization_summaries():
    return {name: fz.verify_factorization(CATALOG[name], 5)[-1]
            for name in FACTORIZATION_NAMES}


def test_criterion_05_factorization_replay():
    t0 = time.time()
    ok = True
    for name, summary in _factorization_summaries().items():
        ok = ok and summary["final_equals_natural_nerve"]
        ok = ok and summary["composite_equals_rs_to_natural"]
    elapsed = time.time() - t0
    _report(5, ok and elapsed < 600.0,
            "staged anodyne replay reaches the natural nerve exactly",
            elapsed)


def test_criterion_06_rs_full_faithfulness():
    t0 = time.time()
    ok = True
    for a in FF_NAMES:
        for b in FF_NAMES:
            if not oracles.rs_fully_faithful_check(CATALOG[a], CATALOG[b], 4):
                ok = False
    elapsed = time.time() - t0
    _report(6, ok, "marked-nerve map counts equal 2-functor counts "
            "on all 16 ordered pairs", elapsed)


def test_criterion_07_categorification_table():
    t0 = time.time()
    P = cg.categorify(tdelta.delta_t(1))
    ok = (P.zero_gens == ("0", "1") and
          set(P.one_gens) == {"E|01", "G|t|01"} and
          set(P.two_gens) == {"Eta|t|01", "EtaInv|t|01",
                              "Eps|t|01", "EpsInv|t|01"} and
          len(P.relations) == 6)

    C2, _, _ = oracles.evaluate_presentation(cg.categorify(tdelta.delta_t(2)))
    IO = CATALOG["inv-oriental-2"]
    sizes = lambda E: (len(E.objects), len(E.one_cells), len(E.two_cells))
    iso = False
    if sizes(C2) == sizes(IO):
        for F in oracles.two_functors(C2, IO):
            o1, o2 = dict(F.on_one), dict(F.on_two)
            if len(set(o1.values())) == len(o1) and \
                    len(set(o2.values())) == len(o2):
                iso = True
                break
    ok = ok and iso

    C3 = oracles.evaluate_free(cg.categorify(tdelta.boundary(2, dim=2)))
    nonid1 = sum(1 for c in C3.one_cells.values() if not c.identity)
    nonid2 = sum(1 for c in C3.two_cells.values() if not c.identity)
    ok = ok and nonid1 == 4 and nonid2 == 0
    elapsed = time.time() - t0
    _report(7, ok, "categorification of the marked generators matches the "
            "defining table", elapsed)


def test_criterion_08_counit_section():
    t0 = time.time()
    ok = True
    for name in ORACLE_NAMES:
        C = CATALOG[name]
        try:
            assignment = cg.counit_assignment(C, 4)
        except cg.CounitRelationError:
            ok = False
            continue
        for x in C.objects:
            for y in C.objects:
                if not cg.section_check(assignment, x, y):
                    ok = False
    elapsed = time.time() - t0
    _report(8, ok, "counit relations hold and the section identity passes "
            "on every hom-category", elapsed)


def test_criterion_09_marking_multiplicity():
    t0 = time.time()
    X = nerves.natural_nerve(CATALOG["z2"], 4)
    ok = len(X.tokens_over(1, "e")) == 2 and not X.is_stratified()
    Q, _ = tdelta.identify_markings(X)
    ok = ok and Q.is_stratified() and len(Q.tokens_over(1, "e")) == 1
    elapsed = time.time() - t0
    _report(9, ok, "the two-completion example is marked twice and "
            "collapses to a stratified set", elapsed)


def test_criterion_10_determinism():
    t0 = time.time()
    a = json.dumps(_fibrancy_reports(), sort_keys=True)
    b = json.dumps(_fibrancy_reports(), sort_keys=True)
    ok = a == b
    fa = json.dumps(_factorization_summaries(), sort_keys=True)
    fb = json.dumps(_factorization_summaries(), sort_keys=True)
    ok = ok and fa == fb
    elapsed = time.time() - t0
    _report(10, ok, "fibrancy and factorization reports are byte-identical "
            "across repeated runs", elapsed)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError:
                failures += 1
    sys.exit(1 if failures else 0)
