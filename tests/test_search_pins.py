"""The lift search's node accounting and first witnesses, pinned.

``search_pins.json`` holds, for every extension of ``anodyne_library(2, 4)``
on the natural and rs nerves at dim 4 of ``oriental-2``, ``z2`` and
``inv-oriental-2``, and of ``anodyne_library(2, 5)`` on those at dim 5 of
``iso`` and ``sigma-iso``, the number ``n`` of domain nodes at which the
search completes (the smallest budget that lets it return) and the SHA-256
of its ``maps_checked`` and witness document.  With ``budget=n`` the search
returns that result; with ``budget=n - 1`` it raises ``"{label}: {n} domain
nodes"`` (unless ``n`` is 1, since a budget below 1 is refused).
"""

import hashlib
import json
import pathlib
import re

import pytest

from complicial import lifting, nerves, twocat
from complicial.tdelta import BudgetExceeded

SEARCH_PINS = json.loads(
    (pathlib.Path(__file__).parent / "search_pins.json").read_text())

SEARCHES = [(name, marking, 4)
            for name in ("oriental-2", "z2", "inv-oriental-2")
            for marking in ("natural", "rs")]
SEARCHES += [(name, marking, 5) for name in ("iso", "sigma-iso")
             for marking in ("natural", "rs")]


def result_digest(res):
    w = None if res.witness is None else res.witness.to_json_dict()
    doc = json.dumps([res.maps_checked, w], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.mark.parametrize("name,marking,dim", SEARCHES)
def test_search_nodes_and_results_are_pinned(name, marking, dim):
    X = nerves.nerve_with_info(twocat.standard_examples()[name], dim,
                               marking)[0]
    library = lifting.anodyne_library(2, dim)
    keys = [f"{name}/{marking}/{dim}/{ext.label()}" for ext in library]
    assert all(key in SEARCH_PINS for key in keys)
    for key, ext in zip(keys, library):
        n, digest = SEARCH_PINS[key]
        res = lifting.check_extension(X, ext, budget=n)
        assert result_digest(res) == digest, key
        if n == 1:
            continue  # a budget below 1 is refused as input
        with pytest.raises(BudgetExceeded, match="^" + re.escape(
                f"{ext.label()}: {n} domain nodes") + "$"):
            lifting.check_extension(X, ext, budget=n - 1)


def test_pins_cover_the_searches():
    assert len(SEARCH_PINS) == 6 * 30 + 4 * 44
