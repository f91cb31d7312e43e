"""What a CLI process loads before it runs a command.

Every command starts a fresh interpreter, so the modules that
``import complicial.cli`` pulls in are paid for by each of them.  These
tests check which modules are loaded, never how long that takes, and that
the code in ``src/`` is what the commands run: the oracles stay in
``tests/oracles.py``.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import oracles

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# heavy standard modules that no engine module needs: dataclasses alone
# brings in inspect, ast, dis and tokenize
UNWANTED = ("dataclasses", "inspect")


def test_cli_import_loads_no_dataclasses_or_inspect():
    code = ("import json, sys; import complicial.cli; "
            f"print(json.dumps([m for m in {UNWANTED!r} if m in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def _source_nodes():
    """(file name, node) for every AST node of every module in src/."""
    for path in sorted((SRC / "complicial").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_no_source_file_imports_dataclasses():
    for name, node in _source_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert "dataclasses" not in names, name


# The oracles of tests/oracles.py: no command runs them, so src/ defines none
MOVED = {
    "_iter_maps", "_lift_tables", "maps", "iter_maps", "_to_map",
    "count_generators", "find_isomorphism", "find_lift", "LiftingProblem",
    "check_extension_generic", "two_functors", "TwoFunctor", "nerve_map",
    "rs_fully_faithful_check", "rs_fibrancy_prediction", "one_isomorphisms",
    "is_equivalence", "evaluate_presentation", "evaluate_free",
    "EvaluationRefused", "_one_cell_words", "_detect_inverse_pairs",
    "_normalize", "_closure_cells", "_UnionFind", "_by_boundary"}


def test_oracles_stay_out_of_the_engine():
    """src/ defines no oracle, searches in one order only (no ``reverse``
    parameter) and takes its budget from its callers, not from os.environ."""
    assert all(hasattr(oracles, name) for name in MOVED)
    for name, node in _source_nodes():
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            assert node.name not in MOVED, (name, node.name)
        if isinstance(node, ast.FunctionDef):
            args = node.args
            assert "reverse" not in [a.arg for a in args.posonlyargs +
                                     args.args + args.kwonlyargs], \
                (name, node.name)
        assert not (isinstance(node, ast.Attribute)
                    and node.attr == "environ"), name
