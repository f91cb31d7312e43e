"""What a CLI process loads before it runs a command.

Every command starts a fresh interpreter, so the modules that
``import complicial.cli`` pulls in are paid for by each of them.  These
tests check which modules are loaded, never how long that takes, that
the code in ``src/`` is what the commands run: the oracles stay in
``tests/oracles.py``, and that no module keeps a name that nothing uses.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import oracles

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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


def _modules(*dirs):
    """(path, tree) for every Python file under these directories of the
    repository."""
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _named(node):
    """The identifiers that the code under node names: variables,
    attributes and imported names (comments and strings do not count)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
    return out


def test_every_imported_name_is_used():
    for path, tree in _modules("src", "tests", "stretch"):
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.partition(".")[0]
                         for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused = [b for b in bound if b not in used]
            assert not unused, (path.relative_to(ROOT), unused)


def test_every_engine_definition_is_named_elsewhere():
    """Each module-level function and class of src/complicial is named,
    outside its own definition, by some module of src/, tests/, stretch/
    or bench/."""
    modules = list(_modules("src", "tests", "stretch", "bench"))
    named = [(stmt, _named(stmt)) for _, tree in modules for stmt in tree.body]
    for path, tree in modules:
        if path.parent != SRC / "complicial":
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                assert any(stmt.name in names for other, names in named
                           if other is not stmt), (path.name, stmt.name)


def test_no_source_file_imports_dataclasses():
    for name, node in _source_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert "dataclasses" not in names, name


def test_no_source_file_asserts():
    """Invariants in src/ are raised exceptions: ``python -O`` drops every
    ``assert``, and the -O run of the tests sees only those they reach."""
    assert [(name, node.lineno) for name, node in _source_nodes()
            if isinstance(node, ast.Assert)] == []


# The oracles of tests/oracles.py: no command runs them, so src/ defines none
MOVED = {
    "_iter_maps", "_lift_tables", "maps", "iter_maps", "_to_map",
    "count_generators", "find_isomorphism", "find_lift", "LiftingProblem",
    "check_extension_generic", "two_functors", "TwoFunctor", "nerve_map",
    "rs_fully_faithful_check", "rs_fibrancy_prediction", "one_isomorphisms",
    "is_equivalence", "evaluate_presentation", "evaluate_free",
    "EvaluationRefused", "_one_cell_words", "_detect_inverse_pairs",
    "_normalize", "_closure_cells", "_UnionFind", "_by_boundary",
    "_nondeg_chains", "_free_token_unders", "compile_plan_from_shapes",
    "dfs_search"}


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
