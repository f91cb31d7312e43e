"""The bytes of the six ``factorize`` trace files, pinned by SHA-256.

Every catalog entry is replayed at dim 4, and the five entries of the
replay benchmark at dim 5, through ``cli.main`` as a user runs it.
"""

import hashlib
import json
import pathlib

import pytest

from complicial import cli, twocat

DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "trace_digests.json").read_text())
FILES = ("p1.json", "p2.json", "p3.json", "p4.json", "final.json",
         "summary.json")
REPLAY_D5 = ("chain-1", "iso", "sigma-iso", "inv-oriental-2", "oriental-3")


def trace_digests(name, dim, tmp_path):
    """{file: SHA-256} of the trace that ``factorize`` writes for one entry."""
    cat, trace = tmp_path / "C.json", tmp_path / "T"
    assert cli.main(["examples", "--name", name, "--out", str(cat)]) == 0
    assert cli.main(["factorize", "--input", str(cat), "--dim", str(dim),
                     "--trace", str(trace)]) == 0
    return {f: hashlib.sha256((trace / f).read_bytes()).hexdigest()
            for f in FILES}


def test_every_case_is_pinned():
    cases = [f"{name}/4" for name in twocat.standard_examples()]
    cases += [f"{name}/5" for name in REPLAY_D5]
    assert sorted(DIGESTS) == sorted(cases)


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_trace_files_are_pinned(case, tmp_path):
    name, dim = case.split("/")
    assert trace_digests(name, int(dim), tmp_path) == DIGESTS[case]
