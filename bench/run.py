#!/usr/bin/env python3
"""Layered benchmark of complicial's three pipelines.

    python3 bench/run.py --workload cli-d5|replay-d5|all
                         --seconds S [--seed N] [--trace 0|1] [--smoke]

Run from the root of a source checkout; the program is taken from ``src/``.
Each workload is a closed loop, driven from this single process, over a
fixed list of catalog pipelines whose order is shuffled by ``--seed``; one
child process runs at a time and no threads are started.  A timed run
measures whole cycles over the pipelines for at most ``--seconds``; the
``run_seconds`` of BENCHMARK.json is the length comparisons use.  Every
output is checked against the digests and work counts in ``reference.json``
and against the mathematical verdicts below.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics (see tracer.py).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for the metric definitions.

``--record`` runs one pass and writes this workload's digests and work
counts into ``reference.json``; use it only when a change is meant to alter
the program's outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(BENCH, "reference.json")

RUN_LIMIT_S = 170.0          # a run must end within 180 s
SETUP_SAMPLES = 21
SETUP_BLOCK = 7              # set-up samples taken before each cycle
SETUP_CODE = ("import complicial.cli\n"
              "from complicial import twocat\n"
              "twocat.standard_examples()\n")

END_TO_END = {"wall_s": "s", "pipeline_gmean_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s", "success_ratio": "1"}

# check-fibrant verdicts of the identity-marked (rs) nerves at dim 5; every
# other nerve of the workloads passes.
EXPECTED_FAILING = {
    ("iso", "rs"): ["saturation(l=-1)", "saturation(l=0)", "saturation(l=1)"],
    ("sigma-iso", "rs"): ["saturation(l=0)", "saturation(l=1)"],
}

TRACE_FILES = ["T/p1.json", "T/p2.json", "T/p3.json", "T/p4.json",
               "T/final.json", "T/summary.json"]


class Failure(Exception):
    """An output that differs from the reference or a wrong verdict."""


# -- child processes ---------------------------------------------------------

class _Child:
    pid = None
    timed_out = False


def _on_alarm(signum, frame):
    _Child.timed_out = True
    try:
        os.kill(_Child.pid, signal.SIGKILL)
    except (ProcessLookupError, TypeError):
        pass


def _on_term(signum, frame):
    # Unwinds through spawn(), which kills and reaps the running child.
    raise SystemExit(128 + signum)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("COMPLICIAL_BUDGET", "PYTHONDONTWRITEBYTECODE",
                "PYTHONSTARTUP"):
        env.pop(var, None)
    return env


CHILD_ENV = _child_env()


def spawn(argv, cwd, log_path, deadline):
    """Run one child to completion.

    Returns (start, end, exit status or None if killed at the deadline,
    peak RSS in MB).  The child is always reaped before this returns.
    """
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        now = time.perf_counter()
        return now, now, None, 0.0
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=CHILD_ENV,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
    _Child.pid, _Child.timed_out = proc.pid, False
    signal.setitimer(signal.ITIMER_REAL, remaining)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:                # interrupted: never leave it running
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _Child.pid = None
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if _Child.timed_out else proc.returncode
    return start, end, code, usage.ru_maxrss / 1024.0


def _log_tail(path, lines=5):
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return " | ".join(fh.read().strip().splitlines()[-lines:])
    except OSError:
        return ""


# -- output checks -----------------------------------------------------------

def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _labels(report):
    out = []
    for e in report["extensions"]:
        if not e["passed"]:
            inner = ",".join(f"{k}={v}" for k, v in sorted(e["params"].items()))
            out.append(f"{e['family']}({inner})")
    return out


def file_counters(name, path):
    """Deterministic work counts read off one output document."""
    if name == "C.json":
        return None
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if name == "X.json":
        return {"simplices": [len(s) for s in doc["simplices"]],
                "tokens": [len(t) for t in doc["tokens"]]}
    if name == "R.json":
        return {"extensions": len(doc["extensions"]),
                "maps_checked": [e["maps_checked"] for e in doc["extensions"]],
                "failing": _labels(doc), "passed": doc["passed"]}
    if name == "P.json":
        return {k: len(doc[k]) for k in sorted(doc)}
    if name == "T/summary.json":
        return {"gluings": [s["gluings"] for s in doc["stages"]],
                "tokens_after": [s["tokens_after"] for s in doc["stages"]],
                "final_equals_natural_nerve": doc["final_equals_natural_nerve"],
                "composite_equals_rs_to_natural":
                    doc["composite_equals_rs_to_natural"]}
    if name == "K.json":
        return {"relations_checked": doc["relations_checked"],
                "sections": len(doc["sections"]), "passed": doc["passed"]}
    return None


def check_verdict(spec, name, counters):
    """The mathematical verdict each output must carry."""
    if name == "R.json":
        want = EXPECTED_FAILING.get((spec["entry"], spec["marking"]), [])
        if counters["failing"] != want or counters["passed"] != (not want):
            raise Failure(f"{spec['id']}: fails at {counters['failing']}, "
                          f"expected {want}")
    elif name == "T/summary.json":
        if not (counters["final_equals_natural_nerve"] and
                counters["composite_equals_rs_to_natural"]):
            raise Failure(f"{spec['id']}: factorization summary not verified")
    elif name == "K.json" and not counters["passed"]:
        raise Failure(f"{spec['id']}: counit section identity fails")


# -- workloads ---------------------------------------------------------------

def _cli_spec(workload, entry, marking=None):
    pid = f"{workload}/{entry}" + (f"/{marking}" if marking else "")
    return {"id": pid, "entry": entry, "marking": marking}


def cli_d5_commands(spec):
    entry, marking = spec["entry"], spec["marking"]
    cmds = [
        ("examples", ["examples", "--name", entry, "--out", "C.json"],
         ["C.json"]),
        ("nerve", ["nerve", "--input", "C.json", "--marking", marking,
                   "--dim", "5", "--out", "X.json"], ["X.json"]),
        ("check-fibrant", ["check-fibrant", "--input", "X.json", "--dim", "5",
                           "--report", "R.json"], ["R.json"]),
    ]
    if marking == "natural":
        cmds.append(("categorify", ["categorify", "--input", "X.json",
                                    "--out", "P.json"], ["P.json"]))
    return cmds


def replay_d5_commands(spec):
    return [
        ("examples", ["examples", "--name", spec["entry"], "--out", "C.json"],
         ["C.json"]),
        ("factorize", ["factorize", "--input", "C.json", "--dim", "5",
                       "--trace", "T"], TRACE_FILES),
        ("counit-check", ["counit-check", "--cat", "C.json", "--dim", "4",
                          "--report", "K.json"], ["K.json"]),
    ]


WORKLOADS = {
    "cli-d5": {
        "commands": cli_d5_commands,
        "pipelines": [_cli_spec("cli-d5", e, mk)
                      for e in ("chain-2", "iso", "sigma-iso", "oriental-3")
                      for mk in ("natural", "rs")],
        "smoke": ["cli-d5/iso/natural"],
    },
    "replay-d5": {
        "commands": replay_d5_commands,
        "pipelines": [_cli_spec("replay-d5", e)
                      for e in ("chain-1", "iso", "sigma-iso",
                                "inv-oriental-2", "oriental-3")],
        "smoke": ["replay-d5/iso"],
    },
}

# Functions each workload's traced pass must reach at least once; a wrapper
# that stops firing makes the traced run fail.
_COMMON = {"twocat.invertible_2cells", "twocat.adjoint_equivalence_completions",
           "nerves.nerve_with_info", "categorify.categorify"}
_CLI = {"cli.main", "twocat.FiniteTwoCategory.validate",
        "tdelta.TruncatedTDeltaSet.to_json_dict"}
_LIFTING = {"lifting.anodyne_library", "lifting.check_extension",
            "lifting.is_precomplicial", "tdelta.delta", "tdelta.delta_t",
            "tdelta.delta_k", "tdelta.delta_k_prime", "tdelta.delta_k_dprime",
            "tdelta.horn", "tdelta.delta3_eq", "tdelta.delta3_sharp",
            "tdelta.join"}
REACHED = {
    "cli-d5": _COMMON | _CLI | _LIFTING | {
        "tdelta.TruncatedTDeltaSet.validate",
        "tdelta.TruncatedTDeltaSet.from_json_dict"},
    "replay-d5": _COMMON | _CLI | {
        "tdelta.TruncatedTDeltaSet.same_as", "tdelta.pushout",
        "tdelta.pushout_family", "tdelta.identify_markings",
        "tdelta.TDeltaMap.is_valid", "tdelta.TDeltaMap.equals",
        "tdelta.TDeltaMap.compose", "tdelta.TDeltaMap.is_mono",
        "tdelta.identity_map", "tdelta.inclusion_map", "nerves.rs_to_natural",
        "factorization.stage_p1", "factorization.stage_p2",
        "factorization.stage_p3", "factorization.stage_p4_and_retract",
        "factorization.verify_factorization", "categorify.counit_assignment",
        "categorify.section_check", "tdelta.delta", "tdelta.delta3_eq",
        "tdelta.delta3_sharp", "tdelta.join", "tdelta.delta_k_prime",
        "tdelta.delta_k_dprime"},
}


class Run:
    """State of one benchmark run: deadline, reference, tallies."""

    def __init__(self, workload, seed, record, work_dir):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.work_dir = work_dir
        with open(REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)
        self.record = record
        self.observed = {}      # pipeline -> output -> work counters
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.peak_rss_mb = 0.0

    def fail(self, n, message):
        self.failed += n
        self.errors.append(message)

    def check(self, pid, kind, name, got):
        """Compare a digest or counters with the reference (record mode
        stores them instead)."""
        if kind == "counters":
            self.observed.setdefault(pid, {})[name] = got
        if self.record:
            entry = self.reference.setdefault(pid,
                                              {"files": {}, "counters": {}})
            entry[kind][name] = got
            return
        want = self.reference.get(pid, {}).get(kind, {}).get(name)
        if want is None:
            raise Failure(f"{pid}: no reference {kind} for {name}")
        if got != want:
            raise Failure(f"{pid}: {name} {kind} differ from the reference")

    def shuffled(self, pipelines):
        order = list(pipelines)
        self.rng.shuffle(order)
        return order

    def run_unit(self, order, traced):
        """Run the pipelines in the given order, one fresh process per
        command."""
        wall, times, procs, complete = 0.0, [], [], True
        for spec in order:
            seconds, ok = self.run_cli_pipeline(spec, traced, procs)
            wall += seconds
            times.append((spec["id"], seconds))
            complete = complete and ok
        return {"wall": wall, "pipelines": times, "procs": procs,
                "complete": complete, "order": [p["id"] for p in order]}

    def run_cli_pipeline(self, spec, traced, procs):
        cwd = os.path.join(self.work_dir, spec["id"].replace("/", "_"))
        shutil.rmtree(cwd, ignore_errors=True)
        os.makedirs(cwd)
        cmds = self.spec["commands"](spec)
        self.attempted += len(cmds)
        seconds = 0.0
        for k, (label, argv, outputs) in enumerate(cmds):
            log = os.path.join(cwd, f"{k}-{label}.log")
            spans = os.path.join(cwd, f"{k}-{label}.spans.json")
            if traced:
                cmd = [sys.executable, os.path.join(BENCH, "tracer.py"),
                       spans, spec["id"], "--"] + argv
            else:
                cmd = [sys.executable, "-m", "complicial.cli"] + argv
            start, end, code, rss = spawn(cmd, cwd, log, self.deadline)
            seconds += end - start
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            try:
                if code is None:
                    raise Failure(f"{spec['id']}: {label} killed at the run "
                                  f"deadline")
                if code != 0:
                    raise Failure(f"{spec['id']}: {label} exited {code}: "
                                  f"{_log_tail(log)}")
                for name in outputs:
                    path = os.path.join(cwd, name)
                    self.check(spec["id"], "files", name, _sha256(path))
                    counters = file_counters(name, path)
                    if counters is not None:
                        check_verdict(spec, name, counters)
                        self.check(spec["id"], "counters", name, counters)
                if traced:
                    with open(spans, encoding="utf-8") as fh:
                        procs.append({"pipeline": spec["id"], "command": label,
                                      "start": start, "end": end,
                                      **json.load(fh)})
            except (Failure, OSError, ValueError, KeyError) as exc:
                self.fail(len(cmds) - k, str(exc))
                shutil.rmtree(cwd, ignore_errors=True)
                return seconds, False
        shutil.rmtree(cwd, ignore_errors=True)
        return seconds, True


# -- metrics -----------------------------------------------------------------

def measure_setup(run, samples):
    """Times for a fresh interpreter to import complicial and build the
    catalog, one child per sample."""
    argv = [sys.executable, "-c", SETUP_CODE]
    log = os.path.join(run.work_dir, "setup.log")
    times = []
    for _ in range(samples):
        start, end, code, _ = spawn(argv, ROOT, log, run.deadline)
        run.attempted += 1
        if code != 0:
            run.fail(1, f"setup exited {code}: {_log_tail(log)}")
        else:
            times.append(end - start)
    return times


def layer_names():
    seen = []
    for _, _, layer in tracer.LAYERS:
        if layer not in seen:
            seen.append(layer)
    return seen


def _layer_metric_names(layer):
    if layer == "cli.main":
        return "cli.self_s", "cli.commands"
    return f"{layer}_s", f"{layer}_calls"


COUNTER_NAMES = sorted({c[0] for cs in tracer.COUNTERS.values() for c in cs})
DERIVED = {"lifting.maps_per_s": "1/s", "factorization.stage_calls": "count",
           "cli.proc_s": "s", "cli.startup_s": "s", "trace.wall_s": "s",
           "trace.overhead_s": "s", "trace.spans": "count"}


def per_layer_units():
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for layer in layer_names():
        secs, calls = _layer_metric_names(layer)
        units[secs], units[calls] = "s", "count"
    units.update({name: "count" for name in COUNTER_NAMES})
    units.update(DERIVED)
    return units


def layer_metrics(procs, traced_wall, untraced_wall):
    layer_of = {f"{m}.{p}": layer for m, p, layer in tracer.LAYERS}
    self_s = {layer: 0.0 for layer in layer_names()}
    calls = {layer: 0 for layer in layer_names()}
    func_calls = {}
    counts = {name: 0 for name in COUNTER_NAMES}
    max_counters = {c[0] for cs in tracer.COUNTERS.values() for c in cs
                    if c[2] == "max"}
    proc_s = main_s = 0.0
    n_spans = 0
    for proc in procs:
        spans = proc["spans"]
        n_spans += len(spans)
        covered = [0.0] * len(spans)
        for key, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (key, start, end, parent, _) in enumerate(spans):
            layer = layer_of[key]
            self_s[layer] += end - start - covered[i]
            calls[layer] += 1
            func_calls[key] = func_calls.get(key, 0) + 1
            if key == "cli.main" and parent < 0:
                main_s += end - start
        if proc["command"] is not None:
            proc_s += proc["end"] - proc["start"]
        for name, value in proc["counts"].items():
            counts[name] = max(counts[name], value) if name in max_counters \
                else counts[name] + value
    metrics = {}
    for layer in layer_names():
        secs, ncalls = _layer_metric_names(layer)
        metrics[secs], metrics[ncalls] = self_s[layer], calls[layer]
    metrics.update(counts)
    check_s = self_s["lifting.check"]
    metrics["lifting.maps_per_s"] = \
        counts["lifting.maps_checked"] / check_s if check_s > 0 else 0.0
    metrics["factorization.stage_calls"] = sum(calls[s] for s in tracer.STAGES)
    metrics["cli.proc_s"] = proc_s
    metrics["cli.startup_s"] = proc_s - main_s if proc_s else 0.0
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.spans"] = n_spans
    return metrics, func_calls


def report_invariants(observed):
    """Library size, maps checked and witnesses read off the fibrancy
    reports of a cycle, which the output gate pins to the reference."""
    reports = [obs["R.json"] for obs in observed.values() if "R.json" in obs]
    return {"lifting.library_extensions":
                max((r["extensions"] for r in reports), default=0),
            "lifting.maps_checked": sum(sum(r["maps_checked"])
                                        for r in reports),
            "lifting.witnesses": sum(len(r["failing"]) for r in reports)}


def wrapper_check(workload, metrics, func_calls, record, invariants):
    """Failures if a wrapper stopped firing, a call count is off or a
    traced invariant differs from the reports of the same cycle."""
    problems = [f"wrapper for {key} never fired"
                for key in sorted(REACHED[workload]) if not func_calls.get(key)]
    problems += [f"{name} {metrics[name]} != {want} in the reports"
                 for name, want in sorted(invariants.items())
                 if metrics[name] != want]
    n_checks = sum(1 for p in record["procs"]
                   if p["command"] == "check-fibrant")
    n_cmds = sum(1 for p in record["procs"] if p["command"] is not None)
    if metrics["cli.commands"] != n_cmds:
        problems.append(f"cli.commands {metrics['cli.commands']} != "
                        f"{n_cmds} commands run")
    if workload == "cli-d5" and not (
            metrics["lifting.library_calls"] == n_checks ==
            metrics["lifting.fibrancy_calls"]):
        problems.append(f"lifting.library_calls "
                        f"{metrics['lifting.library_calls']} != {n_checks} "
                        f"check-fibrant commands")
    if workload == "replay-d5" and not metrics["nerves.build_calls"] > 0:
        problems.append("replay-d5 built no nerves")
    return problems


def _median(values):
    return statistics.median(values) if values else float("nan")


# -- environment -------------------------------------------------------------

def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            loadavg = fh.read().strip()
    except OSError:
        loadavg = "unknown"
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "platform": platform.platform(), "commit": _git_commit(),
            "seed": seed, "loadavg": loadavg}


# -- one workload ------------------------------------------------------------

def run_workload(workload, seed, seconds, traced, smoke, record):
    spec = WORKLOADS[workload]
    work_dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    run = Run(workload, seed, record, work_dir)
    pipelines = [p for p in spec["pipelines"]
                 if not smoke or p["id"] in spec["smoke"]]
    result = {"workload": workload, "env": environment(seed),
              "trace": int(traced), "smoke": smoke}
    try:
        if traced:
            plain = run.run_unit(run.shuffled(pipelines), traced=False)
            rec = run.run_unit(run.shuffled(pipelines), traced=True)
            metrics, func_calls = layer_metrics(rec["procs"], rec["wall"],
                                                plain["wall"])
            problems = wrapper_check(workload, metrics, func_calls, rec,
                                     report_invariants(run.observed))
            for problem in problems:
                run.fail(1, problem)
            units = per_layer_units()
            result["units"] = [_summary(plain), _summary(rec)]
            result["function_calls"] = func_calls
        else:
            metrics, result["units"], result["pooled_p50"] = \
                timed_loop(run, pipelines, seconds, once=smoke or record)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if record:
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(run.reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    result.update({
        "attempted": run.attempted, "failed": run.failed,
        "errors": run.errors, "correct": run.failed == 0,
        "counters": run.observed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}})
    return result


def timed_loop(run, pipelines, seconds, once):
    """The end-to-end metrics of a closed loop that runs for ``seconds``.

    The loop runs whole shuffled cycles over the pipelines, at least one,
    and starts another only if it is expected to end within ``seconds``, so
    every pipeline has the same number of samples.  The set-up samples are
    taken in blocks before the cycles and after the last one, outside
    ``seconds``: the machine's speed drifts within seconds, and samples
    spread over the run see it as the pipelines do.
    """
    measure_setup(run, 1)                  # warms the caches; not a sample
    left = 2 if once else SETUP_SAMPLES
    samples = {p["id"]: [] for p in pipelines}
    setup, walls, summaries, elapsed = [], [], [], 0.0
    while True:
        block = min(SETUP_BLOCK, left)
        setup += measure_setup(run, block)
        left -= block
        t0 = time.perf_counter()
        rec = run.run_unit(run.shuffled(pipelines), traced=False)
        elapsed += time.perf_counter() - t0
        summaries.append(_summary(rec))
        walls.append(rec["wall"])
        for pid, secs in rec["pipelines"]:
            samples[pid].append(secs)
        if once or not rec["complete"] or \
                elapsed + elapsed / len(walls) > seconds:
            break
    setup += measure_setup(run, left)
    flat = [x for v in samples.values() for x in v]
    medians = [_median(v) for v in samples.values()]
    metrics = {
        "wall_s": _median(walls),
        "pipeline_gmean_s": statistics.geometric_mean(medians)
        if min(medians) > 0 else float("nan"),
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": _median(setup),
        "success_ratio": 1.0 - run.failed / max(run.attempted, 1),
    }
    return metrics, summaries, {"samples": len(flat), "value": _median(flat)}


def _summary(p):
    return {"wall": p["wall"], "order": p["order"],
            "pipelines": p["pipelines"], "complete": p["complete"]}


def _print_human(result):
    w = result["workload"]
    for name, m in result["metrics"].items():
        print(f"{w}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{w}  fail_ratio = {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / max(result['attempted'], 1):.6g} "
          f"(failed / attempted operations)")
    if "pooled_p50" in result:
        print(f"{w}  pooled pipeline p50 = {result['pooled_p50']['value']:.6g} s "
              f"over {result['pooled_p50']['samples']} pipeline samples "
              f"(not gated)")
    for err in result["errors"]:
        print(f"{w}  FAILED: {err}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of a timed run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pipeline per workload, one pass")
    ap.add_argument("--record", action="store_true",
                    help="rewrite reference.json from one pass")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "complicial", "cli.py")):
        print(f"no complicial sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for w in names:
        res = run_workload(w, args.seed, args.seconds, bool(args.trace),
                           args.smoke, args.record)
        results.append(res)
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        path = os.path.join(WORK, "results", f"{w}-seed{args.seed}-trace"
                            f"{args.trace}-{int(time.time())}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)
        print("env " + json.dumps(res["env"], sort_keys=True))
        _print_human(res)
        print(f"{w}  result file: {os.path.relpath(path, ROOT)}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
