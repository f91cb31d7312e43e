"""The documents of the catalog builders, pinned by SHA-256.

``catalog_digests.json`` holds, for each 2-category below, the SHA-256 of
``json.dumps(C.to_json_dict(), sort_keys=True)``: every entry of
``standard_examples()``, ``oriental2(m)`` for m = 0..6, and the suspensions
and locally discrete 2-categories of the cyclic groups and codiscrete
groupoids of ``samples.py`` for n = 1..4.  Every cell id, flag and table
row of a builder is thereby fixed.
"""

import hashlib
import json
import pathlib

from complicial import twocat
from samples import codiscrete, cyclic_group

DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "catalog_digests.json").read_text())


def catalog_sources():
    """{name: FiniteTwoCategory} of every pinned 2-category."""
    out = {f"standard/{k}": C for k, C in twocat.standard_examples().items()}
    for m in range(7):
        out[f"oriental2/{m}"] = twocat.oriental2(m)
    for n in range(1, 5):
        for kind, D in (("cyclic", cyclic_group(n)),
                        ("codiscrete", codiscrete(n))):
            out[f"suspension/{kind}-{n}"] = twocat.suspension(D)
            out[f"locally-discrete/{kind}-{n}"] = \
                twocat.two_category_from_category(D)
    return out


def _sha(C):
    return hashlib.sha256(
        json.dumps(C.to_json_dict(), sort_keys=True).encode()).hexdigest()


def test_catalog_documents_are_pinned():
    assert {k: _sha(C) for k, C in catalog_sources().items()} == DIGESTS

