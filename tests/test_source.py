import ast
import os
import pathlib
import subprocess
import sys

import bunzeta


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_package():
    # runtime invariants raise named errors, so they hold under python -O
    # and name what failed
    src = pathlib.Path(bunzeta.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Raise) and _raises_assertion_error(node)]
    assert found == []


def test_cli_import_leaves_out_unused_modules():
    # every CLI run is a fresh process, so what `import bunzeta.cli` loads
    # is paid on every run; csv is loaded only by the csv report writer.
    # -S keeps site packages (whose .pth files may load typing) out
    src = pathlib.Path(bunzeta.__file__).parent.parent
    code = ("import sys; before = set(sys.modules); import bunzeta.cli; "
            "print(sorted({'dataclasses', 'inspect', 'csv', 'typing'} "
            "& (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_no_dataclasses_import_in_package():
    # the value types derive from arith.Record, not from dataclasses
    src = pathlib.Path(bunzeta.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import)
             and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "dataclasses"]
    assert found == []
