import ast
import json
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


def test_cli_import_leaves_out_unused_modules(tmp_path):
    # every CLI run is a fresh process, so what `import bunzeta.cli` and one
    # run load is paid on every run; csv is loaded only by the csv report
    # writer, and the command line is parsed without argparse (which loads
    # gettext, and locale and shutil when it formats help or errors).
    # -S keeps site packages (whose .pth files may load typing) out
    src = pathlib.Path(bunzeta.__file__).parent.parent
    config = src.parent / "configs" / "demo.json"
    code = ("import json, sys; before = set(sys.modules); import bunzeta.cli; "
            "imported = set(sys.modules) - before; "
            f"rc = bunzeta.cli.main(['zeta', '--config', {str(config)!r}, "
            f"'--out', {str(tmp_path / 'zeta.json')!r}]); "
            "ran = set(sys.modules) - before - imported; "
            "print(json.dumps([rc, sorted(imported), sorted(ran)]))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    rc, imported, ran = json.loads(out)
    assert rc == 0
    parsers = {"argparse", "gettext", "locale", "shutil"}
    assert (parsers | {"dataclasses", "inspect", "csv", "typing"}).isdisjoint(
        imported)
    assert parsers.isdisjoint(ran)


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


def test_zeta_imports_nothing_from_curves():
    # the zeta layer works on plain counts: it needs arith, not the models
    path = pathlib.Path(bunzeta.__file__).parent / "zeta.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.startswith("bunzeta.curves")]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = [a.name for a in node.names]
            if module in (".curves", "bunzeta.curves") or (
                    module in (".", "bunzeta") and "curves" in names):
                found.append(f"{module}: {', '.join(names)}")
    assert found == []
