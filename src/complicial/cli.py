"""Command-line interface.

Subcommands: ``examples``, ``nerve``, ``check-fibrant``, ``factorize``,
``categorify``, ``counit-check``.  Reports are machine-readable JSON with a
one-line human summary on stdout.  Exit status: 0 on success (a fibrancy
failure is still a successful check, recorded in the report), 1 on a
mathematical verification failure, 2 on budget exhaustion, 3 on input
errors, usage errors included.  ``check-fibrant --budget`` overrides the
default search budget and must be a positive integer.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import sys

from . import categorify as categorify_mod
from . import factorization, lifting, nerves, tdelta, twocat
from .categorify import CounitRelationError
from .factorization import StageError
from .tdelta import BudgetExceeded
from .twocat import InvalidInput

EXIT_OK = 0
EXIT_MATH = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3


@contextlib.contextmanager
def _output(path):
    """Raise InvalidInput (exit 3) where writing to path fails."""
    try:
        yield
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc}") from exc


def _dump(path, doc):
    with _output(path), open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# The text of _dump for a tDelta-set document, written from templates for
# its fixed shape: json.dump with an indent always runs the pure-Python
# encoder, which costs more than building a replay's five stages.
_ROWS_PER_WRITE = 4096
_COPY_BLOCK = 1 << 18


def _dump_tdelta(path, X, prev=None):
    """Write ``X.to_json_dict()`` byte for byte as ``_dump`` does.

    Returns ``(path, X, offset)`` for the next call's ``prev``: ``offset``
    is the byte where ``"tokens"`` starts.  The sections before it depend
    only on the simplicial set, so they are copied from ``prev``'s file when
    ``X`` has the same one, and the whole file is copied when ``X`` is the
    same tDelta-set.  The rest is rendered with the keys in sorted order by
    hand and each id encoded once by the encoder ``json.dump`` uses, in
    bounded batches and blocks: no whole document is held as text.
    """
    if prev is not None and X.same_as(prev[1]):
        with _output(path), open(prev[0], "rb") as src, \
                open(path, "wb") as fh:
            shutil.copyfileobj(src, fh, _COPY_BLOCK)
        return path, X, prev[2]
    doc = X.to_json_dict()
    enc = json.encoder.encode_basestring_ascii
    code = {s: enc(s) for level in doc["simplices"] for s in level}
    code.update((t["id"], enc(t["id"])) for lvl in doc["tokens"] for t in lvl)

    def rows(entries):
        for k in range(0, len(entries), _ROWS_PER_WRITE):
            batch = entries[k:k + _ROWS_PER_WRITE]
            yield ",\n".join([f"    [\n      {m},\n      {i},\n      "
                              f"{code[s]},\n      {code[v]}\n    ]"
                              for m, i, s, v in batch])

    def levels(lists, item):
        for lvl in lists:
            yield ("    [\n" + ",\n".join(map(item, lvl)) + "\n    ]" if lvl
                   else "    []")

    with _output(path), open(path, "wb") as fh:
        def w(text):
            fh.write(text.encode("ascii"))

        def write_list(pieces):
            first = True
            for piece in pieces:
                w("[\n" if first else ",\n")
                w(piece)
                first = False
            w("[]" if first else "\n  ]")

        if prev is not None and X.same_underlying(prev[1]):
            offset = prev[2]
            with open(prev[0], "rb") as src:
                while block := src.read(min(_COPY_BLOCK, offset - fh.tell())):
                    fh.write(block)
        else:
            w('{\n  "degeneracies": ')
            write_list(rows(doc["degeneracies"]))
            w(',\n  "dim": %d,\n  "faces": ' % doc["dim"])
            write_list(rows(doc["faces"]))
            w(',\n  "simplices": ')
            write_list(levels(doc["simplices"], lambda s: "      " + code[s]))
            w(",\n  ")
            offset = fh.tell()
        w('"tokens": ')
        write_list(levels(doc["tokens"], lambda t: (
            f'      {{\n        "id": {code[t["id"]]},\n'
            f'        "under": {code[t["under"]]}\n      }}')))
        w(',\n  "zeta": ')
        write_list(rows(doc["zeta"]))
        w("\n}\n")
    return path, X, offset


def _read(cls, what, path):
    """The ``cls`` that the document at ``path`` holds; InvalidInput where
    the file cannot be read or parsed, and where its ``validate()`` report is
    not empty, naming the first violation and how many more there are."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    obj = cls.from_json_dict(doc, name=os.path.basename(path))
    errs = obj.validate()
    if errs:
        more = f" (+{len(errs) - 1} more)" if len(errs) > 1 else ""
        raise InvalidInput(f"invalid {what} {path}: {errs[0]}{more}")
    return obj


def cmd_examples(args):
    catalog = twocat.standard_examples()
    if args.list or not args.name:
        for name in sorted(catalog):
            print(name)
        return EXIT_OK
    if args.name not in catalog:
        raise InvalidInput(f"unknown example {args.name!r}")
    if not args.out:
        raise InvalidInput("--out is required with --name")
    _dump(args.out, catalog[args.name].to_json_dict())
    print(f"wrote {args.name} to {args.out}")
    return EXIT_OK


def cmd_nerve(args):
    C = _read(twocat.FiniteTwoCategory, "2-category", args.input)
    X = nerves.nerve_with_info(C, args.dim, args.marking)[0]
    _dump_tdelta(args.out, X)
    counts = X.counts()
    print(f"{args.marking} nerve of {C.name}: simplices {counts['simplices']} "
          f"tokens {counts['tokens']} -> {args.out}")
    return EXIT_OK


def cmd_check_fibrant(args):
    X = _read(tdelta.TruncatedTDeltaSet, "tDelta-set", args.input)
    report = lifting.is_precomplicial(X, n=args.n, N=args.dim,
                                      budget=args.budget)
    doc = report.to_json_dict()
    doc["input"] = os.path.basename(args.input)
    if args.report:
        _dump(args.report, doc)
    verdict = "fibrant up to the bound" if report.passed else "NOT fibrant"
    print(f"{os.path.basename(args.input)}: {verdict} "
          f"(n={args.n}, dim={args.dim}, "
          f"{sum(r.maps_checked for r in report.results)} maps checked)")
    for r in report.failures():
        print(f"  fails {r.extension.label()}")
    return EXIT_OK


def cmd_factorize(args):
    C = _read(twocat.FiniteTwoCategory, "2-category", args.input)
    *stages, summary = factorization.verify_factorization(C, args.dim)
    with _output(args.trace):
        os.makedirs(args.trace, exist_ok=True)
    prev = None
    for name, X in zip(("p1", "p2", "p3", "p4", "final"), stages):
        prev = _dump_tdelta(os.path.join(args.trace, f"{name}.json"), X, prev)
    _dump(os.path.join(args.trace, "summary.json"), summary)
    print(f"factorization of {C.name} verified; trace in {args.trace}/")
    return EXIT_OK


def cmd_categorify(args):
    X = _read(tdelta.TruncatedTDeltaSet, "tDelta-set", args.input)
    P = categorify_mod.categorify(X)
    _dump(args.out, P.to_json_dict())
    print(f"presentation {P.counts()} -> {args.out}")
    return EXIT_OK


def cmd_counit_check(args):
    C = _read(twocat.FiniteTwoCategory, "2-category", args.cat)
    assignment = categorify_mod.counit_assignment(C, args.dim)
    sections = {}
    ok = True
    for x in C.objects:
        for y in C.objects:
            res = categorify_mod.section_check(assignment, x, y)
            sections[f"{x}->{y}"] = bool(res)
            ok = ok and bool(res)
    doc = {
        "category": C.name,
        "dim": args.dim,
        "relations_checked": len(assignment.polygraph.relations),
        "sections": sections,
        "passed": ok,
    }
    if args.report:
        _dump(args.report, doc)
    print(f"counit of {C.name}: {len(assignment.polygraph.relations)} "
          f"relations hold; section identity "
          f"{'holds' if ok else 'FAILS'} on all object pairs")
    return EXIT_OK if ok else EXIT_MATH


def build_parser():
    p = argparse.ArgumentParser(
        prog="complicial",
        description="Nerves of finite 2-categories, fibrancy checks, "
                    "anodyne factorizations, and 2-polygraph presentations.")
    sub = p.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("examples", help="bundled 2-category catalog")
    ex.add_argument("--list", action="store_true")
    ex.add_argument("--name")
    ex.add_argument("--out")
    ex.set_defaults(func=cmd_examples)

    nv = sub.add_parser("nerve", help="build a marked nerve")
    nv.add_argument("--input", required=True)
    nv.add_argument("--marking", choices=["street", "rs", "natural"],
                    default="natural")
    nv.add_argument("--dim", type=int, default=5)
    nv.add_argument("--out", required=True)
    nv.set_defaults(func=cmd_nerve)

    cf = sub.add_parser("check-fibrant",
                        help="right-lifting report against the anodyne library")
    cf.add_argument("--input", required=True)
    cf.add_argument("--n", type=int, default=2)
    cf.add_argument("--dim", type=int, default=5)
    cf.add_argument("--report")
    cf.add_argument("--budget", type=int, default=None)
    cf.set_defaults(func=cmd_check_fibrant)

    fz = sub.add_parser("factorize",
                        help="replay the marked-to-natural factorization")
    fz.add_argument("--input", required=True)
    fz.add_argument("--dim", type=int, default=5)
    fz.add_argument("--trace", required=True)
    fz.set_defaults(func=cmd_factorize)

    cg = sub.add_parser("categorify", help="emit a 2-polygraph presentation")
    cg.add_argument("--input", required=True)
    cg.add_argument("--out", required=True)
    cg.set_defaults(func=cmd_categorify)

    cc = sub.add_parser("counit-check",
                        help="verify counit relations and the section identity")
    cc.add_argument("--cat", required=True)
    cc.add_argument("--dim", type=int, default=4)
    cc.add_argument("--report")
    cc.set_defaults(func=cmd_counit_check)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the help or the usage error
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:  # an output that cannot be written fails before any work
        for path in (getattr(args, "out", None), getattr(args, "report", None)):
            if path and os.path.isdir(path):
                raise InvalidInput(f"cannot write {path}: is a directory")
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise InvalidInput(f"cannot write {path}: no such directory")
        trace = getattr(args, "trace", None)
        if trace and os.path.exists(trace) and not os.path.isdir(trace):
            raise InvalidInput(f"cannot write {trace}: not a directory")
        return args.func(args)
    except InvalidInput as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (StageError, CounitRelationError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_MATH


def run():
    """The process entry point of ``python -m complicial.cli`` and of the
    ``complicial`` console script; ``main(argv)`` is the in-process one.

    The cyclic collector stays off for the whole command, and the process
    ends with ``os._exit`` once both streams are flushed, so the interpreter
    neither collects nor tears down the command's tables on the way out.
    What the collector would have freed is the argument parser's objects,
    the same few hundred for every input, so nothing grows with the input.
    """
    gc.disable()
    status = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:  # a closed pipe: the interpreter's exit reports it
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
