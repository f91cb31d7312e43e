"""Span tracing of complicial's public layer boundaries, from outside.

``install()`` wraps the public functions listed in ``LAYERS`` and rebinds
every reference to them inside the loaded ``complicial`` modules, including
names imported with ``from .tdelta import inclusion_map``.  Each call of a
wrapped function records one span: function, start, end, parent span and
pipeline id.  Spans stay in memory until the process writes them out.

Per-simplex hot calls (``apply_simplex``, ``face_of`` ...) are deliberately
not wrapped; their cost lands in the self time of the enclosing layer.

Run as a script this file is the bootstrap for traced CLI children:

    python3 bench/tracer.py SPANS.json PIPELINE_ID -- <complicial argv>

installs the wrappers, calls ``complicial.cli.main(argv)``, writes the spans
and exits with the command's status.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, layer).  A layer's time is the self time of all
# its spans; its call count is the number of its spans.
LAYERS = [
    ("twocat", "FiniteTwoCategory.validate", "twocat.validate"),
    ("twocat", "invertible_2cells", "twocat.inv2"),
    ("twocat", "adjoint_equivalence_completions", "twocat.completions"),
    ("tdelta", "TruncatedTDeltaSet.validate", "tdelta.validate"),
    ("tdelta", "TruncatedTDeltaSet.to_json_dict", "tdelta.json"),
    ("tdelta", "TruncatedTDeltaSet.from_json_dict", "tdelta.json"),
    ("tdelta", "TruncatedTDeltaSet.same_as", "tdelta.same_as"),
    ("tdelta", "delta", "tdelta.shapes"),
    ("tdelta", "delta_t", "tdelta.shapes"),
    ("tdelta", "delta_k", "tdelta.shapes"),
    ("tdelta", "delta_k_prime", "tdelta.shapes"),
    ("tdelta", "delta_k_dprime", "tdelta.shapes"),
    ("tdelta", "horn", "tdelta.shapes"),
    ("tdelta", "delta3_eq", "tdelta.shapes"),
    ("tdelta", "delta3_sharp", "tdelta.shapes"),
    ("tdelta", "join", "tdelta.shapes"),
    ("tdelta", "pushout", "tdelta.pushout"),
    ("tdelta", "pushout_family", "tdelta.pushout"),
    ("tdelta", "identify_markings", "tdelta.identify"),
    ("tdelta", "TDeltaMap.is_valid", "tdelta.mapops"),
    ("tdelta", "TDeltaMap.equals", "tdelta.mapops"),
    ("tdelta", "TDeltaMap.compose", "tdelta.mapops"),
    ("tdelta", "TDeltaMap.is_mono", "tdelta.mapops"),
    ("tdelta", "identity_map", "tdelta.mapinit"),
    ("tdelta", "inclusion_map", "tdelta.mapinit"),
    ("nerves", "nerve_with_info", "nerves.build"),
    ("nerves", "rs_to_natural", "nerves.rs_to_natural"),
    ("lifting", "anodyne_library", "lifting.library"),
    ("lifting", "check_extension", "lifting.check"),
    ("lifting", "is_precomplicial", "lifting.fibrancy"),
    ("factorization", "stage_p1", "factorization.p1"),
    ("factorization", "stage_p2", "factorization.p2"),
    ("factorization", "stage_p3", "factorization.p3"),
    ("factorization", "stage_p4_and_retract", "factorization.p4"),
    ("factorization", "verify_factorization", "factorization.verify"),
    ("categorify", "categorify", "categorify.categorify"),
    ("categorify", "counit_assignment", "categorify.counit"),
    ("categorify", "section_check", "categorify.section"),
    ("cli", "main", "cli.main"),
]

STAGES = ("factorization.p1", "factorization.p2", "factorization.p3",
          "factorization.p4")


def _nerve_simplices(res):
    X = res[0]
    return sum(len(X.simplex_ids(m)) for m in range(X.dim + 1))


# Deterministic work counts read off a wrapped call's result:
# layer -> [(counter, function of the result, how calls combine)].
COUNTERS = {
    "nerves.build": [("nerves.simplices", _nerve_simplices, "sum")],
    "lifting.library": [("lifting.library_extensions", len, "max")],
    "lifting.check": [
        ("lifting.maps_checked", lambda r: r.maps_checked, "sum"),
        ("lifting.witnesses", lambda r: int(r.witness is not None), "sum")],
    "categorify.categorify": [("categorify.relations",
                               lambda r: len(r.relations), "sum")],
    **{s: [("factorization.gluings", lambda r: r[-1].gluings, "sum")]
       for s in STAGES},
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []      # [function, start, end, parent index, pipeline]
        self.counts = defaultdict(int)
        self.pipeline = None
        self._stack = []

    def wrap(self, fn, key, layer):
        counters = COUNTERS.get(layer, ())
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, self.pipeline]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for name, get, how in counters:
                value = get(result)
                cur = self.counts[name]
                self.counts[name] = max(cur, value) if how == "max" \
                    else cur + value
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _resolve(module, path):
    owner = module
    *outer, leaf = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, leaf


def install(tracer):
    """Wrap every function of LAYERS and rebind each reference to it.

    Raises RuntimeError if a wrapped function is missing or if any loaded
    complicial module still refers to an unwrapped original afterwards.
    """
    import complicial.cli  # noqa: F401  (loads every layer module)

    mods = {name: mod for name, mod in sys.modules.items()
            if name == "complicial" or name.startswith("complicial.")}
    originals = {}
    for modname, path, layer in LAYERS:
        key = f"{modname}.{path}"
        owner, leaf = _resolve(mods[f"complicial.{modname}"], path)
        raw = owner.__dict__.get(leaf)
        if raw is None:
            raise RuntimeError(f"cannot trace complicial.{modname}.{path}: "
                               f"no such function")
        if isinstance(raw, classmethod):
            setattr(owner, leaf,
                    classmethod(tracer.wrap(raw.__func__, key, layer)))
            originals[id(raw.__func__)] = path
            continue
        wrapped = tracer.wrap(raw, key, layer)
        originals[id(raw)] = path
        if isinstance(owner, type):
            setattr(owner, leaf, wrapped)
            continue
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, attr, wrapped)
    for modname, mod in mods.items():
        for attr, value in vars(mod).items():
            if id(value) in originals:
                raise RuntimeError(f"{modname}.{attr} still refers to the "
                                   f"untraced {originals[id(value)]}")
    return tracer


def _main(argv):
    spans_path, pipeline, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json PIPELINE_ID -- ARGV...")
    tracer = Tracer()
    tracer.pipeline = pipeline
    install(tracer)
    import complicial.cli
    try:
        status = complicial.cli.main(cli_argv)
    finally:
        tracer.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
