"""Static check: no module under ``src/repro``, ``tests``, ``benchmarks``
or ``examples`` imports a name it never uses.

An AST scan, with no dependency beyond the standard library.  A name
counts as used when it is read anywhere in the module (including inside
quoted annotations) or listed in the module's ``__all__``.  ``from
__future__`` imports and import lines marked ``# noqa`` are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
#: The repository's other Python trees, scanned like ``src``.
SCRIPTS = [ROOT / "tests", ROOT / "benchmarks", ROOT / "examples"]


def _names_in_annotation(node: ast.expr | None) -> set[str]:
    """Names read by an annotation, parsing a quoted one."""
    if node is None:
        return set()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                elt.value
                for elt in getattr(node.value, "elts", [])
                if isinstance(elt, ast.Constant)
            }
    return set()


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of every import in ``path`` that is never used."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    used = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _names_in_annotation(node.returns)
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                used |= _names_in_annotation(arg.annotation)
            for arg in (args.vararg, args.kwarg):
                if arg is not None:
                    used |= _names_in_annotation(arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            used |= _names_in_annotation(node.annotation)
    return [
        (line, name)
        for line, name in imported
        if name not in used and "# noqa" not in lines[line - 1]
    ]


def _found(trees: list[Path]) -> list[str]:
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for tree in trees
        for path in sorted(tree.rglob("*.py"))
        for line, name in unused_imports(path)
    ]


def test_no_unused_imports_in_src():
    assert _found([SRC]) == []


def test_no_unused_imports_in_tests_benchmarks_examples():
    assert _found(SCRIPTS) == []


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import Sequence, Iterator\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    pass\n"
    )
    assert unused_imports(module) == [(2, "os"), (4, "Iterator")]
