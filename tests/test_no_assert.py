"""No bare `assert` in the library.

Contracts are explicit raises, because `python -O` strips `assert`
statements. This test parses every module of the package and names the
file and line of any `assert` it finds."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wreathconj"


def test_no_assert_statement_in_src():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
