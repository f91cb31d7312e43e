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


def chained(docs, tmp_path):
    """The bytes of each document written after the one before, as
    ``factorize`` writes its trace."""
    prev, out = None, []
    for k, X in enumerate(docs):
        prev = cli._dump_tdelta(tmp_path / f"{k}.json", X, prev)
        out.append((tmp_path / f"{k}.json").read_bytes())
    return out


# Which stages the chained writer renders: a stage equal to the one before
# is copied whole.  Every stage has the simplicial set of the one before.
RENDERED = {"oriental-3": [0, 3, 4], "sigma-iso": [0, 1, 2, 3, 4],
            "inv-oriental-2": [0, 1, 2, 3, 4]}


@pytest.mark.parametrize("name", sorted(RENDERED))
def test_replay_stages_match_the_oracle(name, tmp_path, monkeypatch):
    *stages, summary = factorization.verify_factorization(CATALOG[name], 4)
    assert len(stages) == 5
    assert all(Y.same_underlying(X) for X, Y in zip(stages, stages[1:]))
    calls, to_json_dict = [], tdelta.TruncatedTDeltaSet.to_json_dict

    def counted(X):
        calls.append(X)
        return to_json_dict(X)
    monkeypatch.setattr(tdelta.TruncatedTDeltaSet, "to_json_dict", counted)
    got = chained(stages, tmp_path)
    assert [k for k, X in enumerate(stages)
            if any(Y is X for Y in calls)] == RENDERED[name]
    for k, X in enumerate(stages):
        assert written(X, tmp_path / "X.json") == got[k] == oracle(X), k


def test_chained_documents_on_other_simplicial_sets(tmp_path):
    """Marks changed on one simplicial set (street, rs, natural), then
    another simplicial set, another dimension and the first one again:
    each document equals its oracle."""
    iso, sigma = CATALOG["iso"], CATALOG["sigma-iso"]
    docs = [nerves.nerve_with_info(iso, 4, marking)[0]
            for marking in ("street", "rs", "natural")]
    docs += [nerves.natural_nerve(sigma, 4), nerves.natural_nerve(sigma, 3),
             tdelta.delta(3, dim=3), docs[0]]
    assert [Y.same_underlying(X) for X, Y in zip(docs, docs[1:])] == [
        True, True, False, False, False, False]
    for k, (X, text) in enumerate(zip(docs, chained(docs, tmp_path))):
        assert text == oracle(X), k


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


def _without(X, key, level, i):
    """X's document without the ``key`` entries of operator i at level."""
    doc = X.to_json_dict()
    doc[key] = [e for e in doc[key] if e[:2] != [level, i]]
    return doc


@pytest.mark.parametrize("X, key, level, i", [
    (tdelta.delta(2), "faces", 2, 0),
    (tdelta.delta(3), "degeneracies", 1, 1),
    (tdelta.delta_t(2), "zeta", 0, 0),
    (nerves.natural_nerve(CATALOG["iso"], 3), "zeta", 2, 2),
], ids=["faces", "degeneracies", "zeta", "iso-zeta"])
def test_undefined_operators_round_trip(X, key, level, i, tmp_path):
    """A document with an operator left out loads with it undefined, and
    writes and reloads to the same tDelta-set with the same report."""
    Y = tdelta.TruncatedTDeltaSet.from_json_dict(_without(X, key, level, i))
    report = Y.validate()
    assert report and "missing" in report[0]
    text = written(Y, tmp_path / "Y.json")
    assert text == oracle(Y)
    back = tdelta.TruncatedTDeltaSet.from_json_dict(json.loads(text))
    assert back.same_as(Y) and back.validate() == report
