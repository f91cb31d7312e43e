"""The reports of both validators on mutated documents, pinned by SHA-256.

``validate_digests.json`` holds, for each source document and kind of
mutation, the SHA-256 of the list of ``[mutation, report]`` pairs that
the validator gives.  A seeded ``random.Random`` picks every mutation, and
each one changes a single entry within its level or kind, so the document
still loads:

- ``TruncatedTDeltaSet.validate`` runs on catalog nerves at dims 3 and 4,
  rs and natural, and on a few shapes.  A mutation retargets a face,
  degeneracy or zeta entry to another element of its level, drops one
  entry, or moves a token's ``under`` to another simplex of its level.
- ``FiniteTwoCategory.validate`` runs on catalog 2-categories and on the
  strict 2-group of ``samples.py``, whose parallel 2-cells under ``m.m``
  reach the iterated-whiskering and whisker-order checks.  A mutation
  moves an end of a cell, flips an ``identity`` flag, retargets a result
  or an operand of a table row, or drops a row.  A retarget picks a cell
  with the same boundary more often than not, so that axioms fail on
  well-typed tables.  A document that the loader rejects pins the
  loader's message instead.
"""

import copy
import hashlib
import json
import pathlib
import random
import re

from complicial import nerves, tdelta, twocat
from complicial.tdelta import TruncatedTDeltaSet
from complicial.twocat import FiniteTwoCategory, InvalidInput
from samples import strict_two_group

DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "validate_digests.json").read_text())
PER_KIND = 8  # mutations per source and kind of a tDelta-set
TWOCAT_PER_KIND = 12  # mutations per catalog source and kind
TWO_GROUP_PER_KIND = 24

TDELTA_NERVES = ("chain-2", "iso", "z2", "sigma-iso", "sigma-parallel",
                 "oriental-2", "inv-oriental-2")
TDELTA_KINDS = ("faces", "degeneracies", "zeta", "drop", "under")
TWOCAT_SOURCES = ("chain-1", "chain-2", "iso", "z2", "sigma-arrow",
                  "sigma-iso", "sigma-parallel", "oriental-2",
                  "inv-oriental-2", "oriental-3")
TWOCAT_KINDS = ("one-end", "two-end", "identity", "comp1", "result", "operand",
                "drop")

# Every line of a report fits one of these; {} stands for ids and indices.
TDELTA_TEXTS = ("d_{} d_{} != d_{} d_{} at {}", "s_{} s_{} != s_{} s_{} at {}",
                "d_{} s_{} identity fails at {}", "u(zeta_{}) != s_{} at {}",
                "zeta_{} s_{} != zeta_{} s_{} at {}",
                "d_{} missing on {} (level {})",
                "s_{} missing on {} (level {})",
                "zeta_{} missing on {} (level {})")
TWOCAT_TEXTS = (
    "1-cell {}: unknown endpoint", "identity 1-cell {} is not an endomorphism",
    "object {}: expected one identity 1-cell, got {}",
    "2-cell {}: unknown boundary 1-cell",
    "2-cell {}: boundary 1-cells not parallel",
    "identity 2-cell {} is not an endo 2-cell",
    "1-cell {}: expected one identity 2-cell, got {}",
    "{}[{},{}] = {}: unknown cell", "comp1 missing on composable pair {}",
    "comp1 defined on non-composable pair {}",
    "comp1[{},{}] = {}: wrong endpoints", "right unit fails at {}",
    "left unit fails at {}", "comp1 associativity fails at ({},{},{})",
    "vcomp missing on pair {}", "vcomp defined on non-composable pair {}",
    "vcomp[{},{}] = {}: wrong boundary", "whisker_l missing on {}",
    "whisker_l defined on non-composable {}", "whisker_r missing on {}",
    "whisker_r defined on non-composable {}",
    "whisker_l[{},{}] = {}: wrong boundary",
    "whisker_r[{},{}] = {}: wrong boundary", "vertical unit fails at {}",
    "vcomp associativity fails at ({},{},{})",
    "whisker_l by identity changes {}",
    "whisker_l[{},{}] of identity not identity",
    "whisker_r by identity changes {}",
    "whisker_r[{},{}] of identity not identity",
    "whisker_l not functorial at ({},{},{})",
    "whisker_r not functorial at ({},{},{})",
    "iterated whisker_l fails at ({},{},{})",
    "iterated whisker_r fails at ({},{},{})",
    "whisker order mismatch at ({},{},{})",
    "interchange fails at ({},{})")


def _fired(texts, reports):
    """The texts that some line of the reports fits; AssertionError on a
    line that fits none."""
    pats = [re.compile(re.escape(t).replace(r"\{\}", ".*") + "$")
            for t in texts]
    fired = set()
    for line in (line for report in reports for line in report):
        hits = [t for t, p in zip(texts, pats) if p.match(line)]
        assert hits, line
        fired.update(hits)
    return fired


def _sha(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# -- tDelta-sets -------------------------------------------------------------

def tdelta_sources():
    catalog = twocat.standard_examples()
    for name in TDELTA_NERVES:
        for N in (3, 4):
            for marking in ("rs", "natural"):
                X = nerves.nerve_with_info(catalog[name], N, marking)[0]
                yield f"{name}/{N}/{marking}", X.to_json_dict()
    for X in (tdelta.delta(3), tdelta.horn(1, 3), tdelta.delta3_eq(),
              tdelta.delta_k(1, 3), tdelta.boundary(3),
              tdelta.delta_t(2, dim=4)):
        yield f"{X.name}/{X.dim}", X.to_json_dict()


def tdelta_mutations(doc, kind, rng):
    """Change ``doc`` in place PER_KIND times, yielding a description of
    each change while it holds and undoing it afterwards."""
    simplices = doc["simplices"]
    tokens = [None] + [[t["id"] for t in level] for level in doc["tokens"]]
    for _ in range(PER_KIND):
        if kind == "under":
            levels = [m for m in range(1, doc["dim"] + 1)
                      if tokens[m] and len(simplices[m]) > 1]
            if not levels:
                return
            m = rng.choice(levels)
            token = rng.choice(doc["tokens"][m - 1])
            old = token["under"]
            token["under"] = rng.choice([s for s in simplices[m] if s != old])
            yield ["under", m, token["id"], token["under"]]
            token["under"] = old
        elif kind == "drop":
            key = rng.choice(("faces", "degeneracies", "zeta"))
            if doc[key]:
                k = rng.randrange(len(doc[key]))
                entry = doc[key].pop(k)
                yield ["drop", key, *entry]
                doc[key].insert(k, entry)
        else:
            entry = rng.choice(doc[kind])
            m, v = entry[0], entry[3]
            level = (simplices[m - 1] if kind == "faces" else
                     simplices[m + 1] if kind == "degeneracies" else
                     tokens[m + 1])
            others = [x for x in level if x != v]
            if others:
                entry[3] = rng.choice(others)
                yield [kind, *entry]
                entry[3] = v


def tdelta_reports():
    """{source/kind: [[mutation, report], ...]}."""
    out = {}
    for source, doc in tdelta_sources():
        for kind in TDELTA_KINDS:
            key = f"tdelta/{source}/{kind}"
            out[key] = [
                [mutation, TruncatedTDeltaSet.from_json_dict(doc).validate()]
                for mutation in tdelta_mutations(doc, kind,
                                                 random.Random(key))]
    return out


# -- 2-categories ------------------------------------------------------------

def twocat_mutation(doc, kind, rng):
    """A mutated copy of ``doc`` and a description of the change."""
    doc = copy.deepcopy(doc)
    cells = doc["one_cells"] + doc["two_cells"]
    ends = {c["id"]: (c["src"], c["tgt"]) for c in cells}
    one = [c["id"] for c in doc["one_cells"]]
    two = [c["id"] for c in doc["two_cells"]]

    def other(pool, old):
        typed = [x for x in pool if x != old and ends.get(x) == ends.get(old)]
        if typed and rng.random() < 0.6:
            return rng.choice(typed)
        return rng.choice([x for x in pool if x != old] + ["?"])

    if kind in ("one-end", "two-end"):
        cell = rng.choice(doc["one_cells" if kind == "one-end"
                              else "two_cells"])
        end = rng.choice(("src", "tgt"))
        cell[end] = other(doc["objects"] if kind == "one-end" else one,
                          cell[end])
        return doc, [kind, cell["id"], end, cell[end]]
    if kind == "identity":
        cell = rng.choice(cells)
        cell["identity"] = not cell["identity"]
        return doc, [kind, cell["id"]]
    if kind == "comp1":
        row = rng.choice(doc["comp1"])
        row["result"] = other(one, row["result"])
        return doc, [kind, row["g"], row["f"], row["result"]]
    key = rng.choice(("vcomp", "whisker_l", "whisker_r") if kind != "drop"
                     else ("comp1", "vcomp", "whisker_l", "whisker_r"))
    if kind == "drop":
        return doc, [kind, key, doc[key].pop(rng.randrange(len(doc[key])))]
    row = rng.choice(doc[key])
    at = 2 if kind == "result" else rng.randrange(2)
    two_cell = key == "vcomp" or at == 2 or (key == "whisker_l") == (at == 1)
    row[at] = other(two if two_cell else one, row[at])  # keep the kind
    return doc, [kind, key, *row]


def twocat_report(doc):
    try:
        return FiniteTwoCategory.from_json_dict(doc).validate()
    except InvalidInput as exc:
        return [f"loader: {exc}"]


def twocat_sources():
    """(name, document, mutations per kind) of each source."""
    catalog = twocat.standard_examples()
    for name in TWOCAT_SOURCES:
        yield name, catalog[name].to_json_dict(), TWOCAT_PER_KIND
    C = strict_two_group()
    yield C.name, C.to_json_dict(), TWO_GROUP_PER_KIND


def twocat_reports():
    """{source/kind: [[mutation, report], ...]}."""
    out = {}
    for name, doc, per_kind in twocat_sources():
        for kind in TWOCAT_KINDS:
            key = f"twocat/{name}/{kind}"
            rng = random.Random(key)
            pairs = []
            for _ in range(per_kind):
                mutated, mutation = twocat_mutation(doc, kind, rng)
                pairs.append([mutation, twocat_report(mutated)])
            out[key] = pairs
    return out


# -- the pins ----------------------------------------------------------------

def test_tdelta_reports_are_pinned():
    reports = tdelta_reports()
    assert {k: _sha(v) for k, v in reports.items()} == {
        k: v for k, v in DIGESTS.items() if k.startswith("tdelta/")}
    assert _fired(TDELTA_TEXTS, [r for pairs in reports.values()
                                 for _, r in pairs]) == set(TDELTA_TEXTS)


def test_twocat_reports_are_pinned():
    reports = twocat_reports()
    assert {k: _sha(v) for k, v in reports.items()} == {
        k: v for k, v in DIGESTS.items() if k.startswith("twocat/")}
    all_reports = [r for pairs in reports.values() for _, r in pairs]
    validated = [r for r in all_reports
                 if not r or not r[0].startswith("loader: ")]
    assert len(validated) > len(all_reports) // 2
    assert len(TWOCAT_TEXTS) == 35
    assert _fired(TWOCAT_TEXTS, validated) == set(TWOCAT_TEXTS)
