import copy
import functools
import gc
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complicial import cli


def run(args):
    return cli.main(args)


def test_examples_list(capsys):
    assert run(["examples", "--list"]) == 0
    out = capsys.readouterr().out
    assert "sigma-iso" in out and "oriental-3" in out


def test_examples_unknown_name(tmp_path, capsys):
    assert run(["examples", "--name", "nope",
                "--out", str(tmp_path / "x.json")]) == cli.EXIT_INPUT


def test_pipeline_nerve_fibrant_categorify(tmp_path, capsys):
    cat = tmp_path / "C.json"
    assert run(["examples", "--name", "sigma-iso", "--out", str(cat)]) == 0

    nerve = tmp_path / "X.json"
    assert run(["nerve", "--input", str(cat), "--marking", "natural",
                "--dim", "4", "--out", str(nerve)]) == 0

    report = tmp_path / "rep.json"
    assert run(["check-fibrant", "--input", str(nerve), "--dim", "4",
                "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] is True

    pres = tmp_path / "P.json"
    assert run(["categorify", "--input", str(nerve), "--out", str(pres)]) == 0
    pdoc = json.loads(pres.read_text())
    assert pdoc["zero_gens"] == ["x", "y"]


def test_check_fibrant_negative_still_exit_zero(tmp_path):
    cat = tmp_path / "C.json"
    run(["examples", "--name", "iso", "--out", str(cat)])
    nerve = tmp_path / "X.json"
    run(["nerve", "--input", str(cat), "--marking", "rs", "--dim", "4",
         "--out", str(nerve)])
    report = tmp_path / "rep.json"
    assert run(["check-fibrant", "--input", str(nerve), "--dim", "4",
                "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] is False
    failing = [e for e in doc["extensions"] if not e["passed"]]
    assert failing and all(e["family"] == "saturation" for e in failing)
    assert all(e["witness"] for e in failing)


def test_reports_byte_identical_across_jobs(tmp_path):
    cat = tmp_path / "C.json"
    run(["examples", "--name", "sigma-iso", "--out", str(cat)])
    nerve = tmp_path / "X.json"
    run(["nerve", "--input", str(cat), "--marking", "natural", "--dim", "4",
         "--out", str(nerve)])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for r in (r1, r2):
        assert run(["check-fibrant", "--input", str(nerve), "--dim", "4",
                    "--report", str(r)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_factorize_trace(tmp_path):
    cat = tmp_path / "C.json"
    run(["examples", "--name", "chain-1", "--out", str(cat)])
    trace = tmp_path / "trace"
    assert run(["factorize", "--input", str(cat), "--dim", "4",
                "--trace", str(trace)]) == 0
    names = {p.name for p in trace.iterdir()}
    assert names == {"p1.json", "p2.json", "p3.json", "p4.json",
                     "final.json", "summary.json"}
    summary = json.loads((trace / "summary.json").read_text())
    assert summary["final_equals_natural_nerve"]


def test_factorize_writes_no_trace_when_the_replay_fails(tmp_path,
                                                         monkeypatch):
    from complicial import factorization

    def fail(P3, info):
        raise factorization.StageError("injected P4 failure")
    monkeypatch.setattr(factorization, "stage_p4_and_retract", fail)
    cat = tmp_path / "C.json"
    run(["examples", "--name", "chain-1", "--out", str(cat)])
    trace = tmp_path / "trace"
    assert run(["factorize", "--input", str(cat), "--dim", "4",
                "--trace", str(trace)]) == cli.EXIT_MATH
    assert not trace.exists()


@pytest.mark.parametrize("dim", ["3", "7", "-1", "0"])
def test_factorize_out_of_range_dim_makes_no_trace(dim, tmp_path, capsys):
    """The replay rejects the dimension, with its reason, before the trace
    directory exists; stage P1 glues along 4-simplices."""
    cat = tmp_path / "C.json"
    run(["examples", "--name", "chain-1", "--out", str(cat)])
    trace = tmp_path / "trace"
    assert run(["factorize", "--input", str(cat), "--dim", dim,
                "--trace", str(trace)]) == cli.EXIT_INPUT
    assert not trace.exists()
    reason = {"7": "nerve dimension capped at 6",
              "-1": "dimension bound must be >= 0"}.get(
                  dim, "stage P1 needs dimension at least 4")
    assert capsys.readouterr().err == f"input error: {reason}\n"


@pytest.mark.parametrize("blocked", ["p2.json", "p4.json"])
def test_factorize_trace_file_that_is_a_directory(blocked, tmp_path):
    """A trace file that cannot be opened exits 3 with a message, whether
    the writer would copy the stage before whole (p2 of oriental-3) or
    only its leading sections (p4)."""
    cat, trace = tmp_path / "C.json", tmp_path / "T"
    assert run(["examples", "--name", "oriental-3", "--out", str(cat)]) == 0
    (trace / blocked).mkdir(parents=True)
    proc = _process(["factorize", "--input", str(cat), "--dim", "4",
                     "--trace", str(trace)], tmp_path, capture_output=True,
                    text=True)
    assert proc.returncode == cli.EXIT_INPUT
    assert f"input error: cannot write {trace / blocked}" in proc.stderr
    assert "Traceback" not in proc.stderr


# (content, the start of stderr): with PYTHONINTMAXSTRDIGITS=0 the long
# literal parses, and the loader refuses it with its own message
UNREADABLE = {
    "not-utf8": (b"\xff\xfe{}", "input error: cannot read {}: "),
    "nested-past-the-limit": (b"[" * 100000 + b"]" * 100000,
                              "input error: cannot read {}: "),
    "past-the-digit-limit": (b"9" * 5000, "input error: "),
}


@pytest.mark.parametrize("content, prefix", UNREADABLE.values(),
                         ids=UNREADABLE)
@pytest.mark.parametrize("argv", [
    ["check-fibrant", "--input"],
    ["nerve", "--out", "X.json", "--input"],
], ids=["tdelta-loader", "two-category-loader"])
def test_unreadable_input_exits_input(argv, content, prefix, tmp_path):
    """A file that is not UTF-8, JSON nested past the interpreter's limit
    and an integer literal past its digit limit each end in exit 3 with a
    message, not in a traceback."""
    bad = tmp_path / "in.json"
    bad.write_bytes(content)
    proc = _process([*argv, str(bad)], tmp_path, capture_output=True,
                    text=True)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr.startswith(prefix.format(bad))
    assert "Traceback" not in proc.stderr


def test_counit_check(tmp_path):
    cat = tmp_path / "C.json"
    run(["examples", "--name", "z2", "--out", str(cat)])
    report = tmp_path / "cc.json"
    assert run(["counit-check", "--cat", str(cat), "--dim", "4",
                "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] and doc["sections"] == {"*->*": True}


def test_counit_sections_of_ids_with_arrows_stay_apart(tmp_path):
    """chain-1 with its objects renamed ``a`` and ``a->a``: four object
    pairs, four sections, and ``passed`` reads all of them."""
    from complicial import twocat
    doc = twocat.standard_examples()["chain-1"].to_json_dict()
    ren = dict(zip(doc["objects"], ["a", "a->a"]))
    doc["objects"] = [ren[x] for x in doc["objects"]]
    for cell in doc["one_cells"]:
        cell["src"], cell["tgt"] = ren[cell["src"]], ren[cell["tgt"]]
    cat, report = tmp_path / "C.json", tmp_path / "cc.json"
    cat.write_text(json.dumps(doc))
    assert run(["counit-check", "--cat", str(cat), "--dim", "4",
                "--report", str(report)]) == 0
    out = json.loads(report.read_text())
    assert out["sections"] == {"a->a": True, "a->a-\\>a": True,
                               "a-\\>a->a": True, "a-\\>a->a-\\>a": True}
    assert out["passed"]


def _cyclic_2cells(names):
    """One object, one 1-cell e and the 2-cells names[a] forming Z/n."""
    n = len(names)
    return {"objects": ["*"],
            "one_cells": [{"id": "e", "src": "*", "tgt": "*",
                           "identity": True}],
            "comp1": [{"g": "e", "f": "e", "result": "e"}],
            "two_cells": [{"id": c, "src": "e", "tgt": "e",
                           "identity": a == 0} for a, c in enumerate(names)],
            "vcomp": [[names[b], names[a], names[(a + b) % n]]
                      for a in range(n) for b in range(n)],
            "whisker_l": [["e", c, c] for c in names],
            "whisker_r": [[c, "e", c] for c in names]}


def test_completion_tokens_of_ids_with_bars_stay_apart(tmp_path):
    """The completions (e, e, p, q|r) and (e, e, p|q, r) of Z/5 get two
    token ids, so every command that builds the natural nerve accepts it."""
    cat = tmp_path / "C.json"
    cat.write_text(json.dumps(_cyclic_2cells(["u", "p", "p|q", "r", "q|r"])))
    nerve, report = tmp_path / "X.json", tmp_path / "r.json"
    assert run(["nerve", "--input", str(cat), "--marking", "natural",
                "--dim", "4", "--out", str(nerve)]) == 0
    level1 = {t["id"] for t in json.loads(nerve.read_text())["tokens"][0]}
    assert {"t|e|e|p|q\\|r", "t|e|e|p\\|q|r"} <= level1
    assert run(["check-fibrant", "--input", str(nerve), "--dim", "4",
                "--report", str(report)]) == 0
    assert run(["counit-check", "--cat", str(cat), "--dim", "4",
                "--report", str(report)]) == 0
    assert json.loads(report.read_text())["passed"]
    assert run(["factorize", "--input", str(cat), "--dim", "4",
                "--trace", str(tmp_path / "trace")]) == 0


def test_invalid_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"objects\": []}")
    assert run(["nerve", "--input", str(bad), "--out",
                str(tmp_path / "o.json")]) == cli.EXIT_INPUT
    missing = tmp_path / "missing.json"
    assert run(["nerve", "--input", str(missing), "--out",
                str(tmp_path / "o.json")]) == cli.EXIT_INPUT


@pytest.mark.parametrize("kind, drop, command, named", [
    ("tdelta", 2, ["categorify", "--out", "P.json"],
     "invalid tDelta-set {}: zeta_0 missing on 0 (level 0) (+1 more)"),
    ("tdelta", 1, ["categorify", "--out", "P.json"],
     "invalid tDelta-set {}: zeta_0 missing on 0 (level 0)\n"),
    ("twocat", 1, ["nerve", "--out", "X.json"],
     "invalid 2-category {}: comp1 missing on composable pair ('f', 'g')\n"),
], ids=["tdelta-two", "tdelta-one", "twocat-one"])
def test_loaders_name_the_first_violation_and_count_the_rest(
        kind, drop, command, named, tmp_path, capsys):
    from complicial import tdelta, twocat
    if kind == "tdelta":
        doc = tdelta.delta_t(2).to_json_dict()
        del doc["zeta"][:drop]
    else:
        doc = twocat.standard_examples()["iso"].to_json_dict()
        del doc["comp1"][:drop]
    bad = tmp_path / "in.json"
    bad.write_text(json.dumps(doc))
    name, flag, out = command
    assert run([name, "--input", str(bad), flag, str(tmp_path / out)]) == \
        cli.EXIT_INPUT
    assert named.format(bad) in capsys.readouterr().err


@pytest.mark.parametrize("dim, named", [
    ("-1", "dimension bound must be >= 0"),
    ("7", "nerve dimension capped at 6"),
])
def test_nerve_dimension_out_of_range(dim, named, tmp_path, capsys):
    cat = tmp_path / "C.json"
    run(["examples", "--name", "iso", "--out", str(cat)])
    assert run(["nerve", "--input", str(cat), "--dim", dim,
                "--out", str(tmp_path / "X.json")]) == cli.EXIT_INPUT
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("where", ["simplex", "token"])
def test_non_string_ids_exit_code(tmp_path, capsys, where):
    from complicial import tdelta
    doc = tdelta.delta_t(1).to_json_dict()
    if where == "simplex":
        doc["simplices"][0][0] = 7  # one int id among str ids
    else:
        doc["tokens"][0][0]["id"] = 7
    bad = tmp_path / "X.json"
    bad.write_text(json.dumps(doc))
    assert run(["check-fibrant", "--input", str(bad),
                "--dim", "1"]) == cli.EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def _mutated(doc, mutate):
    """``doc`` after ``mutate`` changed it in place, or the document that
    ``mutate`` returns instead."""
    replaced = mutate(doc)
    return doc if replaced is None else replaced


NOT_OBJECTS = [[], "x", 3]


@pytest.mark.parametrize("mutate, named", [
    (lambda d: d.update(dim=2.5), "dim 2.5 is not an integer in 0..6"),
    (lambda d: d.update(dim="2"), "dim '2' is not an integer in 0..6"),
    (lambda d: d.update(dim=True), "dim True is not an integer in 0..6"),
    (lambda d: d.update(dim=-1), "dim -1 is not an integer in 0..6"),
    (lambda d: d.update(dim=7), "dim 7 is not an integer in 0..6"),
    (lambda d: d.update(dim=100000), "dim 100000 is not an integer in 0..6"),
    (lambda d: d["simplices"].append([]), "more simplex or token levels"),
    (lambda d: d["tokens"].append([]), "more simplex or token levels"),
    (lambda d: d["faces"].append([5, 0, "012", "01"]),
     "faces entry [5, 0, '012', '01'] would be dropped: it needs a level in "
     "1..2"),
    (lambda d: d["faces"].append([0, 0, "0", "0"]),
     "faces entry [0, 0, '0', '0'] would be dropped"),
    (lambda d: d["degeneracies"].append([2, 0, "012", "0012"]),
     "degeneracies entry [2, 0, '012', '0012'] would be dropped: it needs a "
     "level in 0..1"),
    (lambda d: d["zeta"].append([-1, 0, "0", "t|00"]),
     "zeta entry [-1, 0, '0', 't|00'] would be dropped"),
    (lambda d: d["faces"].append([1, 2, "01", "0"]),
     "faces entry [1, 2, '01', '0'] would be dropped"),
    (lambda d: d["degeneracies"].append([1, 0, "ab", "0"]),
     "degeneracies entry [1, 0, 'ab', '0'] would be dropped"),
    (lambda d: d["zeta"].append(list(d["zeta"][0])),
     "zeta entry [0, 0, '0', 't|00'] would be dropped"),
    (lambda d: d["faces"][0].__setitem__(0, True),
     "faces entry [True, 0, '00', '0'] would be dropped"),
    (lambda d: d["faces"][0].__setitem__(1, False),
     "faces entry [1, False, '00', '0'] would be dropped"),
    *[(lambda d, v=v: v, "input error: tDelta-set document is not a JSON "
       "object\n") for v in NOT_OBJECTS],
], ids=["dim-float", "dim-str", "dim-bool", "dim-negative", "dim-7",
        "dim-huge", "extra-simplex-level", "extra-token-level",
        "face-level-5", "face-level-0", "degeneracy-level-2", "zeta-level--1",
        "face-index-2", "unknown-simplex", "repeated-zeta", "face-level-true",
        "face-index-false", "array-document", "string-document",
        "number-document"])
def test_tdelta_loader_rejects_what_it_would_drop(mutate, named, tmp_path,
                                                  capsys):
    from complicial import tdelta
    doc = _mutated(tdelta.delta_t(2).to_json_dict(), mutate)
    bad = tmp_path / "X.json"
    bad.write_text(json.dumps(doc))
    assert run(["check-fibrant", "--input", str(bad),
                "--dim", "2"]) == cli.EXIT_INPUT
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(dim=True),
     "tDelta-set dim True is not an integer in 0..6"),
    (lambda d: d["simplices"][0].__setitem__(0, 7),
     "simplex ids at level 0 must be strings"),
    (lambda d: d["simplices"][0].append("0"),
     "duplicate simplex ids at level 0"),
], ids=["dim-bool", "int-simplex-id", "repeated-simplex-id"])
def test_tdelta_loader_reports_its_own_refusals_once(mutate, message,
                                                     tmp_path, capsys):
    """The loader's own refusals are not wrapped again as a bad document:
    the whole of stderr is the one message."""
    from complicial import tdelta
    doc = _mutated(tdelta.delta_t(2).to_json_dict(), mutate)
    bad = tmp_path / "X.json"
    bad.write_text(json.dumps(doc))
    assert run(["check-fibrant", "--input", str(bad),
                "--dim", "2"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("change, named", [
    ({"simplices": ["xyz"]},
     "tDelta-set simplices level 0 'xyz' is not a list"),
    ({"simplices": [{"p": 1, "q": 2}]},
     "tDelta-set simplices level 0 {'p': 1, 'q': 2} is not a list"),
    ({"tokens": ""}, "tDelta-set tokens '' is not a list"),
    ({"zeta": {}}, "tDelta-set zeta {} is not a list"),
    ({"dim": 1, "tokens": [{}]}, "tDelta-set tokens level 1 {} is not a list"),
    ({"dim": 1, "tokens": [[["t", "0"]]]},
     "token ['t', '0'] is not an object"),
    ({"faces": ["abcd"]}, "input error: faces entry 'abcd' is not a list\n"),
    ({"zeta": [{"a": 1}]},
     "input error: zeta entry {'a': 1} is not a list\n"),
], ids=["simplex-level-str", "simplex-level-object", "tokens-str",
        "zeta-object", "token-level-object", "token-list", "face-entry-str",
        "zeta-entry-object"])
def test_tdelta_loader_rejects_what_it_would_misread(change, named, tmp_path,
                                                     capsys):
    """A string or an object where a list belongs would be iterated as its
    characters or keys: ``["xyz"]`` would load as three vertices."""
    doc = {"dim": 0, "simplices": [["0"]], "faces": [], "degeneracies": [],
           "tokens": [], "zeta": [], **change}
    bad = tmp_path / "X.json"
    bad.write_text(json.dumps(doc))
    assert run(["categorify", "--input", str(bad),
                "--out", str(tmp_path / "P.json")]) == cli.EXIT_INPUT
    assert named in capsys.readouterr().err
    assert not (tmp_path / "P.json").exists()


@pytest.mark.parametrize("argv", [
    ["examples", "--name", "iso", "--out", "{tmp}/missing/C.json"],
    ["nerve", "--input", "{cat}", "--dim", "2", "--out", "{tmp}/missing/X.json"],
    ["check-fibrant", "--input", "{nerve}", "--dim", "2",
     "--report", "{tmp}/missing/R.json"],
    ["categorify", "--input", "{nerve}", "--out", "{tmp}/missing/P.json"],
    ["factorize", "--input", "{cat}", "--dim", "4", "--trace", "{nerve}"],
    ["counit-check", "--cat", "{cat}", "--dim", "3",
     "--report", "{tmp}/missing/K.json"],
], ids=["examples", "nerve", "check-fibrant", "categorify", "factorize",
        "counit-check"])
def test_unwritable_output_exits_input(argv, tmp_path, capsys):
    cat, nerve = tmp_path / "C.json", tmp_path / "X.json"
    assert run(["examples", "--name", "iso", "--out", str(cat)]) == 0
    assert run(["nerve", "--input", str(cat), "--dim", "2",
                "--out", str(nerve)]) == 0
    capsys.readouterr()
    argv = [a.format(tmp=tmp_path, cat=cat, nerve=nerve) for a in argv]
    assert run(argv) == cli.EXIT_INPUT
    assert "input error: cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["nerve", "--input", "{cat}", "--dim", "5", "--out", "{tmp}/missing/X.json"],
    ["check-fibrant", "--input", "{nerve}", "--dim", "5",
     "--report", "{tmp}/missing/R.json"],
    ["check-fibrant", "--input", "{nerve}", "--dim", "5",
     "--report", "{cat}/R.json"],
    ["categorify", "--input", "{nerve}", "--out", "{tmp}/missing/P.json"],
    ["counit-check", "--cat", "{cat}", "--report", "{tmp}/missing/K.json"],
    ["factorize", "--input", "{cat}", "--dim", "5", "--trace", "{nerve}"],
], ids=["nerve", "check-fibrant", "check-fibrant-file-as-dir", "categorify",
        "counit-check", "factorize-trace-is-a-file"])
def test_unwritable_output_fails_before_any_work(argv, tmp_path, capsys,
                                                 monkeypatch):
    """An output whose directory is missing, or a trace directory that is
    an existing file, ends the command before it loads its input, and so
    before any search or replay."""
    cat, nerve = tmp_path / "C.json", tmp_path / "X.json"
    assert run(["examples", "--name", "oriental-3", "--out", str(cat)]) == 0
    assert run(["nerve", "--input", str(cat), "--dim", "5",
                "--out", str(nerve)]) == 0
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("work started before the output was checked")

    monkeypatch.setattr(cli, "_read", never)
    monkeypatch.setattr(cli.lifting, "is_precomplicial", never)
    monkeypatch.setattr(cli.factorization, "verify_factorization", never)
    argv = [a.format(tmp=tmp_path, cat=cat, nerve=nerve) for a in argv]
    assert run(argv) == cli.EXIT_INPUT
    assert "input error: cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["nerve", "--input", "C.json", "--out", "{tmp}"],
    ["check-fibrant", "--input", "X.json", "--report", "{tmp}"],
    ["categorify", "--input", "X.json", "--out", "{tmp}"],
    ["counit-check", "--cat", "C.json", "--report", "{tmp}"],
    ["examples", "--name", "oriental-3", "--out", "{tmp}"],
], ids=["nerve", "check-fibrant", "categorify", "counit-check", "examples"])
def test_output_that_is_a_directory_fails_before_any_work(argv, tmp_path,
                                                          capsys, monkeypatch):
    """An --out or --report that names an existing directory ends the
    command before it reads its input or builds the catalog."""
    def never(*args, **kwargs):
        raise AssertionError("work started before the output was checked")

    monkeypatch.setattr(cli, "_read", never)
    monkeypatch.setattr(cli.twocat, "standard_examples", never)
    assert run([a.format(tmp=tmp_path) for a in argv]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == \
        f"input error: cannot write {tmp_path}: is a directory\n"


@pytest.mark.parametrize("argv", [
    ["nerve", "--input", "C.json", "--out", ""],
    ["check-fibrant", "--input", "X.json", "--report", ""],
    ["categorify", "--input", "X.json", "--out", ""],
    ["counit-check", "--cat", "C.json", "--report", ""],
    ["examples", "--name", "iso", "--out", ""],
    ["factorize", "--input", "C.json", "--trace", ""],
], ids=["nerve", "check-fibrant", "categorify", "counit-check", "examples",
        "factorize"])
def test_empty_output_path_fails_before_any_work(argv, capsys, monkeypatch):
    """An empty --out, --report or --trace ends the command before it reads
    its input or builds the catalog, instead of writing no report or
    failing only after the work."""
    def never(*args, **kwargs):
        raise AssertionError("work started before the output was checked")

    monkeypatch.setattr(cli, "_read", never)
    monkeypatch.setattr(cli.twocat, "standard_examples", never)
    assert run(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err == \
        "input error: cannot write '': empty path\n"


def test_failed_command_leaves_existing_output_alone(tmp_path, capsys):
    """The early check neither creates nor truncates the output."""
    bad, report = tmp_path / "X.json", tmp_path / "R.json"
    bad.write_text("{}")
    report.write_text("kept\n")
    assert run(["check-fibrant", "--input", str(bad), "--dim", "2",
                "--report", str(report)]) == cli.EXIT_INPUT
    assert report.read_text() == "kept\n"
    assert run(["check-fibrant", "--input", str(bad), "--dim", "2",
                "--report", str(tmp_path / "new.json")]) == cli.EXIT_INPUT
    assert not (tmp_path / "new.json").exists()


def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


@pytest.mark.parametrize("mutate, named", [
    (_set(("vcomp", 0), ["i2_f", "i2_f"]),
     "vcomp row ['i2_f', 'i2_f'] is not a triple"),
    (lambda d: d["whisker_l"][0].append("f"),
     "whisker_l row ['f', 'i2_g', 'i2_iy', 'f'] is not a triple"),
    (_set(("objects", 0), 0), "object 0 is not a string"),
    (_set(("one_cells", 0, "id"), ["f"]), "1-cell id ['f'] is not a string"),
    (_set(("whisker_l", 0, 2), "nope"),
     "whisker_l[f,i2_g] = nope: unknown cell"),
    (_set(("one_cells", 2, "identity"), "no"),
     "1-cell identity 'no' is not a bool"),
    (lambda d: d["comp1"].insert(0, {"g": "f", "f": "g", "result": "ix"}),
     "comp1 gives the pair (f, g) twice"),
    (lambda d: d["vcomp"].append(list(d["vcomp"][0])),
     "vcomp gives the pair (i2_f, i2_f) twice"),
    (lambda d: d["objects"].append("x"), "duplicate object ids"),
    (_set(("comp1", 0), ["g", "f", "ix"]),
     "input error: comp1 entry ['g', 'f', 'ix'] is not an object\n"),
    *[(lambda d, v=v: v, "input error: 2-category document is not a JSON "
       "object\n") for v in NOT_OBJECTS],
], ids=["vcomp-pair", "whisker-quadruple", "int-object", "list-cell-id",
        "unknown-whisker-result", "string-identity", "repeated-comp1",
        "repeated-vcomp", "repeated-object", "list-comp1-entry",
        "array-document", "string-document", "number-document"])
def test_two_category_loader_rejects_bad_documents(mutate, named, tmp_path,
                                                   capsys):
    from complicial import twocat
    doc = _mutated(twocat.standard_examples()["iso"].to_json_dict(), mutate)
    bad = tmp_path / "C.json"
    bad.write_text(json.dumps(doc))
    assert run(["nerve", "--input", str(bad), "--dim", "3",
                "--out", str(tmp_path / "X.json")]) == cli.EXIT_INPUT
    assert named in capsys.readouterr().err


MUTANT_SOURCES = ["chain-1", "iso", "z2", "sigma-iso", "inv-oriental-2"]

OTHER_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 7),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
    st.just([]), st.just({}), st.just(["x"]))


@functools.cache
def _source_docs(kind):
    from complicial import nerves, twocat
    catalog = twocat.standard_examples()
    if kind == "two-category":
        return [catalog[n].to_json_dict() for n in MUTANT_SOURCES]
    return [nerves.nerve_with_info(catalog[n], 3, marking)[0].to_json_dict()
            for n in MUTANT_SOURCES for marking in ("rs", "natural")]


def _paths(node, path=()):
    yield path, node
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, kind):
    """A source document with one to three keys deleted, values retyped or
    lists truncated, anywhere in it."""
    doc = copy.deepcopy(draw(st.sampled_from(_source_docs(kind))))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "retype", "truncate"]))
        places = list(_paths(doc))
        if op == "delete":
            places = places[1:]  # the root has no key to delete
        elif op == "truncate":
            places = [(p, n) for p, n in places if isinstance(n, list)]
        if not places:
            continue
        path, node = draw(st.sampled_from(places))
        if op == "retype":  # a copy: st.just hands out one shared object
            value = copy.deepcopy(draw(OTHER_VALUES.filter(
                lambda v, node=node: type(v) is not type(node))))
        elif op == "truncate":
            value = node[:draw(st.integers(0, max(len(node) - 1, 0)))]
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def mutant_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


@settings(max_examples=80, deadline=None)
@given(doc=mutated("two-category"))
def test_mutated_two_category_documents_exit_with_a_code(doc, mutant_dir):
    path = mutant_dir / "C.json"
    path.write_text(json.dumps(doc))
    assert run(["nerve", "--input", str(path), "--dim", "3",
                "--out", str(mutant_dir / "X.json")]) in range(4)


@settings(max_examples=60, deadline=None)
@given(doc=mutated("nerve"))
def test_mutated_nerve_documents_exit_with_a_code(doc, mutant_dir):
    path = mutant_dir / "X.json"
    path.write_text(json.dumps(doc))
    assert run(["check-fibrant", "--input", str(path), "--dim", "3"]) \
        in range(4)


def test_counit_check_needs_dim_3(tmp_path, capsys):
    cat = tmp_path / "C.json"
    run(["examples", "--name", "iso", "--out", str(cat)])
    assert run(["counit-check", "--cat", str(cat),
                "--dim", "2"]) == cli.EXIT_INPUT
    assert "at least 3" in capsys.readouterr().err


def test_budget_exit_code(tmp_path, capsys):
    cat = tmp_path / "C.json"
    run(["examples", "--name", "chain-1", "--out", str(cat)])
    nerve = tmp_path / "X.json"
    run(["nerve", "--input", str(cat), "--marking", "natural", "--dim", "4",
         "--out", str(nerve)])
    assert run(["check-fibrant", "--input", str(nerve), "--dim", "4",
                "--budget", "2"]) == cli.EXIT_BUDGET
    assert "horn(k=0,m=2): 3 domain nodes" in capsys.readouterr().err


@pytest.fixture
def chain1_nerve(tmp_path):
    cat = tmp_path / "C.json"
    run(["examples", "--name", "chain-1", "--out", str(cat)])
    nerve = tmp_path / "X.json"
    run(["nerve", "--input", str(cat), "--marking", "natural", "--dim", "4",
         "--out", str(nerve)])
    return str(nerve)


@pytest.mark.parametrize("argv, named", [
    (["check-fibrant", "--input", "X.json", "--jobs", "2"], "--jobs"),
    (["check-fibrant", "--input", "X.json", "--budget", "many"], "--budget"),
    (["nerve", "--input", "C.json", "--dim", "notint", "--out", "X.json"],
     "--dim"),
    (["nerve", "--input", "C.json"], "--out"),
    (["no-such-command"], "no-such-command"),
])
def test_usage_errors_exit_input(argv, named, capsys):
    assert run(argv) == cli.EXIT_INPUT
    assert named in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["check-fibrant", "--help"]) == cli.EXIT_OK
    assert "--budget" in capsys.readouterr().out


@pytest.mark.parametrize("extra, named", [
    (["--dim", "-2"], "dimension bound N = -2"),
    (["--n", "-5"], "triviality index n = -5"),
    (["--dim", "4", "--budget", "0"], "budget 0 must be >= 1"),
    (["--dim", "4", "--budget", "-1"], "budget -1 must be >= 1"),
])
def test_check_fibrant_out_of_range_exits_input(extra, named, chain1_nerve,
                                                capsys):
    assert run(["check-fibrant", "--input", chain1_nerve,
                *extra]) == cli.EXIT_INPUT
    assert named in capsys.readouterr().err


# A child process imports this copy of complicial from any working directory,
# and its stdout is block-buffered, as it is by default on a pipe, so an output
# that is not flushed before ``os._exit`` is lost.
CHILD_ENV = {**{k: v for k, v in os.environ.items()
                if k != "PYTHONUNBUFFERED"},
             "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}


def _process(argv, cwd, **kwargs):
    """``python -m complicial.cli`` with ``argv``, run in ``cwd``."""
    return subprocess.run([sys.executable, "-m", "complicial.cli", *argv],
                          cwd=cwd, env=CHILD_ENV, timeout=120, **kwargs)


# a CLI child under its own address-space limit, which prints its own peak
# resident memory (KiB) after the command: ``VmHWM``, since the child's
# ``ru_maxrss`` can count the pages of the process that forked it
_LIMITED = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from complicial import cli; status = cli.main(sys.argv[1:]); "
            "print(*[line.split()[1] for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')]); sys.exit(status)")


def test_nerve_level_past_the_cap_is_refused_before_it_is_built(tmp_path):
    """Level 4 of the nerve of Z/33 has 33^4 simplices, just past
    ``MAX_LEVEL`` = 2^20 = 32^4, and so has the first step of the walk
    that builds it: exit 3 naming the level and the rows, with the child's
    peak far below what building them would take."""
    from complicial import twocat
    from samples import cyclic_group
    cat = tmp_path / "C.json"
    cat.write_text(json.dumps(twocat.two_category_from_category(
        cyclic_group(33), "Z/33").to_json_dict()))
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED, "nerve", "--input", str(cat),
         "--dim", "4", "--out", str(tmp_path / "X.json")], cwd=tmp_path,
        env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_INPUT, proc.stderr
    assert proc.stderr == ("input error: nerve level 4 needs 1185921 rows, "
                           "capped at 1048576\n")
    assert int(proc.stdout) < 200 * 1024
    assert not (tmp_path / "X.json").exists()


def test_console_entry_point(tmp_path):
    """Every name reaches stdout: ``cli.run`` flushes it before
    ``os._exit``."""
    from complicial import twocat
    proc = _process(["examples", "--list"], tmp_path, capture_output=True,
                    text=True)
    assert proc.returncode == 0
    assert proc.stdout.split() == sorted(twocat.standard_examples())
    assert len(proc.stdout.split()) == 16


def test_entry_point_exit_codes(chain1_nerve, tmp_path):
    cases = [
        (["examples", "--name", "iso", "--out", "C.json"], cli.EXIT_OK,
         "wrote iso to C.json\n", ""),
        (["check-fibrant", "--input", chain1_nerve, "--dim", "4",
          "--budget", "3"], cli.EXIT_BUDGET, "",
         "budget exhausted: horn(k=0,m=2): 4 domain nodes\n"),
        (["examples", "--name", "nope", "--out", "C.json"], cli.EXIT_INPUT,
         "", "input error: unknown example 'nope'\n"),
    ]
    for argv, code, out, err in cases:
        proc = _process(argv, tmp_path, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_entry_point_writes_what_main_writes(tmp_path, capsys):
    cat = tmp_path / "C.json"
    assert run(["examples", "--name", "sigma-iso", "--out", str(cat)]) == 0
    sides = {side: tmp_path / side for side in ("main", "process")}
    for side, where in sides.items():
        where.mkdir()
        for argv in (["nerve", "--input", str(cat), "--dim", "4",
                      "--out", str(where / "X.json")],
                     ["check-fibrant", "--input", str(where / "X.json"),
                      "--dim", "4", "--report", str(where / "R.json")]):
            if side == "main":
                assert run(argv) == 0
            else:
                assert _process(argv, where).returncode == 0
    capsys.readouterr()
    for name in ("X.json", "R.json"):
        assert (sides["process"] / name).read_bytes() == \
            (sides["main"] / name).read_bytes()


def test_entry_point_on_a_closed_pipe_ends_as_the_interpreter_does(
        tmp_path):
    """A summary line that cannot be flushed is reported once, by the
    interpreter's own exit, as for any script that prints to a closed
    pipe, and not as a traceback of ``cli.run``."""
    def closed_pipe(*argv):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=tmp_path,
                                  env=CHILD_ENV, stdout=w,
                                  stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(w)
        return proc.returncode, proc.stderr

    got = closed_pipe("-m", "complicial.cli", "examples", "--name", "iso",
                      "--out", "C.json")
    assert got == closed_pipe("-c", "print('wrote iso to C.json')")
    assert got[0] != 0 and b"Traceback" not in got[1]


@pytest.mark.parametrize("command", [
    ["examples", "--name", "{name}", "--out", "{tmp}/out.json"],
    ["nerve", "--input", "{tmp}/{name}.json", "--dim", "4",
     "--out", "{tmp}/out.json"],
    ["check-fibrant", "--input", "{tmp}/{name}-X.json", "--dim", "4",
     "--report", "{tmp}/out.json"],
    ["factorize", "--input", "{tmp}/{name}.json", "--dim", "4",
     "--trace", "{tmp}/T"],
    ["categorify", "--input", "{tmp}/{name}-X.json",
     "--out", "{tmp}/out.json"],
    ["counit-check", "--cat", "{tmp}/{name}.json", "--dim", "4",
     "--report", "{tmp}/out.json"],
], ids=lambda argv: argv[0])
def test_cyclic_garbage_of_a_command_does_not_grow_with_its_input(
        command, tmp_path, capsys):
    """``cli.run`` turns the cyclic collector off for the whole command.  That
    is safe while the objects only the collector could free are a fixed few,
    the same for ``chain-1`` as for ``oriental-3``."""
    for name in ("chain-1", "oriental-3"):
        assert run(["examples", "--name", name,
                    "--out", str(tmp_path / f"{name}.json")]) == 0
        assert run(["nerve", "--input", str(tmp_path / f"{name}.json"),
                    "--dim", "4", "--out", str(tmp_path / f"{name}-X.json")]) \
            == 0
    unreachable = []
    for name in ("chain-1", "oriental-3"):
        argv = [a.format(tmp=tmp_path, name=name) for a in command]
        gc.collect()
        gc.disable()
        try:
            assert run(argv) == 0
            unreachable.append(gc.collect())
        finally:
            gc.enable()
    capsys.readouterr()
    assert unreachable[0] == unreachable[1] < 1000


def test_witness_in_report_replays(tmp_path):
    """The report embeds enough data to replay a failing check in isolation."""
    from complicial import lifting, tdelta
    from oracles import LiftingProblem, find_lift
    cat = tmp_path / "C.json"
    run(["examples", "--name", "iso", "--out", str(cat)])
    nerve = tmp_path / "X.json"
    run(["nerve", "--input", str(cat), "--marking", "rs", "--dim", "4",
         "--out", str(nerve)])
    report = tmp_path / "rep.json"
    run(["check-fibrant", "--input", str(nerve), "--dim", "4",
         "--report", str(report)])
    doc = json.loads(report.read_text())
    entry = next(e for e in doc["extensions"] if not e["passed"])
    ext = next(e for e in lifting.anodyne_library(doc["n"], doc["dim"])
               if e.family == entry["family"]
               and dict(e.params) == entry["params"])
    X = tdelta.TruncatedTDeltaSet.from_json_dict(json.loads(nerve.read_text()))
    f = tdelta.map_from_json_dict(ext.A, X, entry["witness"])
    assert f.is_valid()
    assert find_lift(LiftingProblem(ext, f)) is None


def test_replay_builds_each_nerve_once(tmp_path, monkeypatch):
    from collections import Counter

    from complicial import factorization, nerves

    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(nerves, "nerve_with_info")
    for stage in ("stage_p1", "stage_p2", "stage_p3", "stage_p4_and_retract"):
        count(factorization, stage)
    cat = tmp_path / "C.json"
    assert run(["examples", "--name", "sigma-iso", "--out", str(cat)]) == 0
    assert run(["factorize", "--input", str(cat), "--dim", "4",
                "--trace", str(tmp_path / "T")]) == 0
    assert calls == {"nerve_with_info": 2, "stage_p1": 1, "stage_p2": 1,
                     "stage_p3": 1, "stage_p4_and_retract": 1}
    calls.clear()
    assert run(["counit-check", "--cat", str(cat), "--dim", "4",
                "--report", str(tmp_path / "K.json")]) == 0
    assert calls == {"nerve_with_info": 1}
