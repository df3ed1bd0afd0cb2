"""No dead names in the library.

Every function and class defined in `src/wreathconj` must be named,
as a whole word, somewhere besides its own definition: in the library,
the tests, the benchmarks, the perf harness or `pyproject.toml`. A name
found nowhere else is reached by no command, workload or test, so it is
deleted rather than kept. Dunder names are exempt: Python calls them.

Every name a library module imports must be used again in that
module's code. Two kinds are exempt: the bindings the benchmark's
tracer replaces (`LAYERS` in `perfbench/spans.py`), which a module
holds so the tracer finds them, and the re-exports of `__init__`."""

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


def _traced_bindings() -> set:
    """(module, name) for each binding `perfbench/spans.py` replaces."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    layers = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS"
    )
    return {(module, attr) for _, module, attr, _ in ast.literal_eval(layers)}


def test_every_imported_name_is_used():
    # a name a module imports must appear again in that module's code,
    # unless the tracer replaces it there or `__init__` re-exports it
    traced = _traced_bindings()
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        unused += [
            f"{path.stem}.{name}" for name in imported
            if name not in used and (f"wreathconj.{path.stem}", name) not in traced
        ]
    assert not unused, unused
