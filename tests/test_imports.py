"""What a CLI process loads before it runs a command.

Every command starts a fresh interpreter, so the modules that
``import complicial.cli`` pulls in are paid for by each of them.  These
tests check which modules are loaded, never how long that takes.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

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


def test_no_source_file_imports_dataclasses():
    for path in sorted((SRC / "complicial").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, path.name
