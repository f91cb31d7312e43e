"""Tests of the benchmark itself, run against its smoke mode.

    python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"),
         "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.per_layer_units()


def test_every_wrapped_function_is_reached_by_some_workload():
    wrapped = {f"{m}.{p}" for m, p, _ in tracer.LAYERS}
    reached = set().union(*run.REACHED.values())
    assert reached == wrapped


def test_tracer_rebinds_names_imported_elsewhere():
    code = (
        "import sys; sys.path.insert(0, {bench!r})\n"
        "import tracer\n"
        "t = tracer.install(tracer.Tracer())\n"
        "from complicial import factorization, lifting, tdelta, twocat\n"
        "assert lifting.inclusion_map is tdelta.inclusion_map\n"
        "assert factorization.inclusion_map is tdelta.inclusion_map\n"
        "assert hasattr(tdelta.inclusion_map, '__wrapped__')\n"
        "assert not hasattr(tdelta.TDeltaMap.apply_simplex, '__wrapped__')\n"
        "A = tdelta.delta(1)\n"
        "tdelta.TruncatedTDeltaSet.from_json_dict(A.to_json_dict())\n"
        "lifting.AnodyneExtension('x', (), A, A).inclusion\n"
        "names = [s[0] for s in t.spans]\n"
        "assert names == ['tdelta.delta', 'tdelta.TruncatedTDeltaSet."
        "to_json_dict', 'tdelta.TruncatedTDeltaSet.from_json_dict', "
        "'tdelta.inclusion_map'], names\n"
    ).format(bench=BENCH)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_traced_invariants_are_read_off_the_reports():
    observed = {
        "cli-d5/iso/rs": {"R.json": {"extensions": 44, "maps_checked": [2, 3],
                                     "failing": ["a", "b"]}},
        "cli-d5/chain-2/natural": {"R.json": {"extensions": 40,
                                              "maps_checked": [7],
                                              "failing": []}},
        "replay-d5/iso": {"K.json": {"relations_checked": 4}},
    }
    want = {"lifting.library_extensions": 44, "lifting.maps_checked": 12,
            "lifting.witnesses": 2}
    assert run.report_invariants(observed) == want
    metrics = {"cli.commands": 0, "nerves.build_calls": 1,
               **want, "lifting.witnesses": 1}
    problems = run.wrapper_check("replay-d5", metrics, {}, {"procs": []},
                                 want)
    assert "lifting.witnesses 1 != 2 in the reports" in problems


def test_verdict_gate():
    spec = {"id": "cli-d5/iso/rs", "entry": "iso", "marking": "rs"}
    good = {"failing": run.EXPECTED_FAILING[("iso", "rs")], "passed": False}
    run.check_verdict(spec, "R.json", good)
    with pytest.raises(run.Failure):
        run.check_verdict(spec, "R.json",
                          {"failing": ["saturation(l=0)"], "passed": False})
    natural = dict(spec, marking="natural")
    with pytest.raises(run.Failure):
        run.check_verdict(natural, "R.json", good)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_reports_every_end_to_end_metric(workload):
    proc, result = bench("--workload", workload, "--smoke", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert '"seed": 1' in proc.stdout and "loadavg" in proc.stdout


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_smoke_counts_repeat_across_seeds(workload):
    counts = []
    for seed in ("1", "2"):
        proc, result = bench("--workload", workload, "--smoke", "--trace", "1",
                             "--seed", seed)
        assert proc.returncode == 0, proc.stderr
        assert result["correct"], proc.stderr
        metrics = result["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == \
            run.per_layer_units()
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["trace.spans"] > 0


def _copy_checkout(tmp_path, with_src=True):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return str(tmp_path)


def test_refuses_to_run_without_sources(tmp_path):
    proc, result = bench("--workload", "cli-d5", "--smoke",
                         root=_copy_checkout(tmp_path, with_src=False))
    assert proc.returncode != 0
    assert result is None


def test_changed_output_counts_as_failed(tmp_path):
    root = _copy_checkout(tmp_path)
    ref_path = os.path.join(root, "bench", "reference.json")
    with open(ref_path, encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["replay-d5/iso"]["files"]["K.json"] = "0" * 64
    with open(ref_path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh)
    proc, result = bench("--workload", "replay-d5", "--smoke", root=root)
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] >= 1
    assert "K.json files differ" in proc.stderr
