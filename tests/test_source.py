import ast
import pathlib

import bunzeta


def test_no_assert_statements_in_package():
    # runtime invariants raise named errors, so they hold under python -O
    src = pathlib.Path(bunzeta.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
