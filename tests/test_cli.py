import json
import subprocess
import sys

import pytest

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
    assert list(trace.iterdir()) == []


def test_counit_check(tmp_path):
    cat = tmp_path / "C.json"
    run(["examples", "--name", "z2", "--out", str(cat)])
    report = tmp_path / "cc.json"
    assert run(["counit-check", "--cat", str(cat), "--dim", "4",
                "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] and doc["sections"] == {"*->*": True}


def test_invalid_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"objects\": []}")
    assert run(["nerve", "--input", str(bad), "--out",
                str(tmp_path / "o.json")]) == cli.EXIT_INPUT
    missing = tmp_path / "missing.json"
    assert run(["nerve", "--input", str(missing), "--out",
                str(tmp_path / "o.json")]) == cli.EXIT_INPUT


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
], ids=["dim-float", "dim-str", "dim-bool", "dim-negative", "dim-7",
        "dim-huge", "extra-simplex-level", "extra-token-level",
        "face-level-5", "face-level-0", "degeneracy-level-2", "zeta-level--1",
        "face-index-2", "unknown-simplex", "repeated-zeta"])
def test_tdelta_loader_rejects_what_it_would_drop(mutate, named, tmp_path,
                                                  capsys):
    from complicial import tdelta
    doc = tdelta.delta_t(2).to_json_dict()
    mutate(doc)
    bad = tmp_path / "X.json"
    bad.write_text(json.dumps(doc))
    assert run(["check-fibrant", "--input", str(bad),
                "--dim", "2"]) == cli.EXIT_INPUT
    assert named in capsys.readouterr().err


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


@pytest.mark.parametrize("value", ["abc", "0", "-5", "2.5"])
def test_bad_budget_environment_exits_input(value, chain1_nerve, monkeypatch,
                                            capsys):
    monkeypatch.setenv("COMPLICIAL_BUDGET", value)
    assert run(["check-fibrant", "--input", chain1_nerve,
                "--dim", "4"]) == cli.EXIT_INPUT
    assert "COMPLICIAL_BUDGET" in capsys.readouterr().err


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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "complicial.cli", "examples", "--list"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "inv-oriental-2" in proc.stdout


def test_witness_in_report_replays(tmp_path):
    """The report embeds enough data to replay a failing check in isolation."""
    from complicial import lifting, tdelta
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
    assert lifting.find_lift(lifting.LiftingProblem(ext, f)) is None


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
