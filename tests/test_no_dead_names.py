"""No dead names in the library.

Every function and class defined in `src/wreathconj` must be named,
as a whole word, somewhere besides its own definition: in the library,
the tests, the benchmarks, the perf harness or `pyproject.toml`. A name
found nowhere else is reached by no command, workload or test, so it is
deleted rather than kept. Dunder names are exempt: Python calls them."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wreathconj"


def _word_counts() -> Counter:
    """How often each whole word occurs across the searched files."""
    files = [ROOT / "pyproject.toml"]
    for top in ("src", "tests", "benchmarks", "perfbench"):
        files += sorted((ROOT / top).rglob("*.py"))
    return Counter(w for path in files for w in re.findall(r"\w+", path.read_text()))


def test_every_defined_name_is_used():
    counts = _word_counts()
    modules = sorted(SRC.glob("*.py"))
    assert modules
    dead = [
        f"{path.stem}.{node.name}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and counts[node.name] < 2
    ]
    assert not dead, dead
