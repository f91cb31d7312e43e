"""The fibrancy reports of the catalog at dim 6, pinned by digest.

dim 6 is the largest dimension of a nerve or a library.  For every catalog
entry, ``dim6_digests.json`` holds the SHA-256 of the report of
``is_precomplicial(X, 2, 6)`` on its natural and on its rs nerve, witness
maps included.  The 32 checks take about a minute, so tier-1 leaves them
out; run them with

    PYTHONPATH=src python3 -m pytest -q stretch
"""

import hashlib
import json
import pathlib

import pytest

from complicial import lifting, nerves, twocat
from oracles import rs_fibrancy_prediction

DIM6_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "dim6_digests.json").read_text())

# the catalog entries whose rs nerve fails at dim 6
RS_FAILING = {"iso", "sigma-iso", "inv-oriental-2", "z2"}


def report_digest(report):
    doc = json.dumps(report.to_json_dict(), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def dim6_reports():
    """(name, marking) -> (digest, passed, families of the failures)."""
    out = {}
    for name, C in sorted(twocat.standard_examples().items()):
        for marking in ("natural", "rs"):
            X = nerves.nerve_with_info(C, 6, marking)[0]
            r = lifting.is_precomplicial(X, 2, 6)
            out[(name, marking)] = (report_digest(r), r.passed,
                                    {f.extension.family for f in r.failures()})
    return out


@pytest.fixture(scope="module")
def reports():
    return dim6_reports()


def test_reports_are_pinned(reports):
    assert len(DIM6_DIGESTS) == 32
    assert {f"{name}/{marking}": digest for (name, marking), (digest, _, _)
            in reports.items()} == DIM6_DIGESTS


def test_verdicts(reports):
    """Every natural nerve passes; the rs nerves of RS_FAILING fail only at
    saturation extensions and every other rs nerve passes, as both readings
    of the rs fibrancy criterion predict."""
    catalog = twocat.standard_examples()
    for (name, marking), (_, passed, families) in reports.items():
        if marking == "natural":
            assert passed, name
            continue
        if name in RS_FAILING:
            assert not passed and families == {"saturation"}, name
        else:
            assert passed, name
        pred = rs_fibrancy_prediction(catalog[name])
        assert pred["fibrant_by_strict_reading"] == passed, name
        assert pred["fibrant_by_weak_reading"] == passed, name
