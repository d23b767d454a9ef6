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


def test_cli_asks_models_for_zeta_not_counts():
    # CurveModel.zeta is the one zeta entry point: the CLI counts no points
    # and rebuilds no P(T).  Its zeta_from_counts import is a re-export that
    # bench/test_bench.py calls through bunzeta.cli, used nowhere in cli.py
    tree = ast.parse((pathlib.Path(bunzeta.__file__).parent
                      / "cli.py").read_text())
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    imported = {a.asname or a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) for a in n.names}
    assert attrs.isdisjoint({"counts", "count_points", "zeta_from_counts"})
    assert names.isdisjoint({"zeta_from_counts", "PointCounts",
                             "InconsistentCountsError"})
    assert imported.isdisjoint({"PointCounts", "InconsistentCountsError"})


def test_no_unused_module_level_imports():
    # a name a module imports at its top level is used in that module, or
    # is marked as a re-export with "# noqa: F401" on its line
    src = pathlib.Path(bunzeta.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        tree, lines = ast.parse(text), text.splitlines()
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    bound = a.asname or a.name.split(".")[0]
                    if bound not in used and \
                            "noqa: F401" not in lines[a.lineno - 1]:
                        unused.append(f"{path.name}:{a.lineno}: {bound}")
    assert unused == []


def test_count_admissibility_decided_once():
    # zeta.checked_counts is the one rule that enumerated and regenerated
    # counts pass: no other function in the package words a Weil
    # violation, and the curve models import the rule, not a copy of it
    src = pathlib.Path(bunzeta.__file__).parent
    hits = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        funcs = [n for n in ast.walk(ast.parse(text))
                 if isinstance(n, ast.FunctionDef)]
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "violates the Weil bound" in line:
                owners = [f for f in funcs
                          if f.lineno <= lineno <= f.end_lineno]
                inner = max(owners, key=lambda f: f.lineno, default=None)
                hits.append((path.name, inner and inner.name))
    assert hits == [("zeta.py", "checked_counts")]
    curves = ast.parse((src / "curves.py").read_text())
    assert any(isinstance(n, ast.ImportFrom) and n.level == 1
               and n.module == "zeta"
               and "checked_counts" in {a.name for a in n.names}
               for n in curves.body)


def test_every_record_subclass_validates():
    # a Record is a validated value: a class that checks nothing on
    # construction is a plain dict or tuple in disguise
    src = pathlib.Path(bunzeta.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "Record"
                    for b in node.bases):
                methods = {n.name for n in node.body
                           if isinstance(n, ast.FunctionDef)}
                # without empty slots a value takes new attributes
                slots = any(ast.unparse(n) == "__slots__ = ()"
                            for n in node.body)
                found.append((node.name, "__new__" in methods, slots))
    assert sorted(found) == [("GroupSpec", True, True), ("TVData", True, True),
                             ("ZetaData", True, True)]


def test_config_values_read_once():
    # cli.py is the one module that reads the config's JSON: no other
    # module words a config value error, and the ConfigError readers are
    # defined there alone
    src = pathlib.Path(bunzeta.__file__).parent
    wording = ("expected an integer", "expected a JSON", "expected an array",
               "cannot parse rational", "ConfigError", "import json")
    found = sorted({path.name for path in src.glob("*.py")
                    for text in wording if text in path.read_text()})
    assert found == ["cli.py"]
    readers = {"_typed", "_integer", "_rational"}
    defined = [(path.name, node.name) for path in sorted(src.glob("*.py"))
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name in readers]
    assert sorted(defined) == [("cli.py", name) for name in sorted(readers)]


def test_missing_config_key_worded_once():
    # cli._key is the one reader of a required key: no other function words
    # a missing key, and cli.py catches no KeyError or TypeError, which the
    # library may raise for its own reasons
    src = pathlib.Path(bunzeta.__file__).parent
    hits = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        funcs = [n for n in ast.walk(ast.parse(text))
                 if isinstance(n, ast.FunctionDef)]
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "missing key" in line:
                owners = [f for f in funcs
                          if f.lineno <= lineno <= f.end_lineno]
                inner = max(owners, key=lambda f: f.lineno, default=None)
                hits.append((path.name, inner and inner.name))
    assert hits and set(hits) == {("cli.py", "_key")}
    tree = ast.parse((src / "cli.py").read_text())
    caught = [ast.unparse(h.type) for h in ast.walk(tree)
              if isinstance(h, ast.ExceptHandler) and h.type is not None]
    assert not any(name in c for c in caught
                   for name in ("KeyError", "TypeError")), caught
