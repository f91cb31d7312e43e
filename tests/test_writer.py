"""The tDelta-set writer against the stdlib encoder it replaces.

The oracle is ``json.dumps(X.to_json_dict(), indent=2, sort_keys=True)``
plus a newline, the text that ``cli._dump`` writes for any document.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complicial import cli, factorization, nerves, tdelta, twocat

CATALOG = twocat.standard_examples()


def oracle(X):
    return (json.dumps(X.to_json_dict(), indent=2, sort_keys=True)
            + "\n").encode()


def written(X, path):
    cli._dump_tdelta(path, X)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_nerves_match_the_oracle(name, tmp_path):
    for marking in ("street", "rs", "natural"):
        for dim in (0, 1, 3, 5):
            X = nerves.nerve_with_info(CATALOG[name], dim, marking)[0]
            assert written(X, tmp_path / "X.json") == oracle(X), \
                (marking, dim)


@pytest.mark.parametrize("name", ["sigma-iso", "inv-oriental-2"])
def test_replay_stages_match_the_oracle(name, tmp_path):
    *stages, summary = factorization.verify_factorization(CATALOG[name], 4)
    assert len(stages) == 5
    for k, X in enumerate(stages):
        assert written(X, tmp_path / "X.json") == oracle(X), k


def test_ten_vertices_match_the_oracle(tmp_path):
    X = tdelta.delta(10, dim=2)
    assert written(X, tmp_path / "X.json") == oracle(X)


def test_empty_lists_and_levels(tmp_path):
    for name, dim in (("empty", 0), ("empty", 2), ("chain-0", 0)):
        X = nerves.nerve_with_info(CATALOG[name], dim, "natural")[0]
        text = written(X, tmp_path / "X.json")
        assert text == oracle(X)
        assert b"[]" in text


SOURCES = [nerves.nerve_with_info(CATALOG[name], 2, marking)[0].to_json_dict()
           for name in ("chain-1", "iso", "sigma-parallel")
           for marking in ("rs", "natural")]

# Quotes, backslashes, control characters, non-ASCII and astral characters
# are what the encoder escapes; mix them into arbitrary text.
IDS = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7fé \U0001f600'),
    st.characters()), max_size=6)


def _ids(doc):
    out = {s for level in doc["simplices"] for s in level}
    return sorted(out | {t["id"] for level in doc["tokens"] for t in level})


@st.composite
def renamed(draw):
    """A catalog nerve document with its ids renamed injectively."""
    doc = draw(st.sampled_from(SOURCES))
    old = _ids(doc)
    new = dict(zip(old, draw(st.lists(IDS, min_size=len(old),
                                      max_size=len(old), unique=True))))
    return {
        "dim": doc["dim"],
        "simplices": [[new[s] for s in level] for level in doc["simplices"]],
        "tokens": [[{"id": new[t["id"]], "under": new[t["under"]]}
                    for t in level] for level in doc["tokens"]],
        **{key: [[m, i, new[s], new[v]] for m, i, s, v in doc[key]]
           for key in ("faces", "degeneracies", "zeta")},
    }


@settings(max_examples=25, deadline=None)
@given(doc=renamed())
def test_arbitrary_ids_match_the_oracle(doc, tmp_path_factory):
    X = tdelta.TruncatedTDeltaSet.from_json_dict(doc)
    assert not X.validate()
    path = tmp_path_factory.mktemp("writer") / "X.json"
    assert written(X, path) == oracle(X)
