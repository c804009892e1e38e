"""No ``repro`` module imports a name it never uses.

An import nobody reads still costs its module load, and it hides what a
module really depends on (a leftover ``from dataclasses import
dataclass`` would load ``dataclasses`` and ``inspect`` into every
command).  A name counts as used when the module's code reads it (a
``Name`` node, annotations included), when a string annotation names
it, or when ``__all__`` re-exports it.  A name mentioned only in a
docstring is not used.  ``from __future__`` imports are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent


def _annotation_names(node: ast.AST) -> Set[str]:
    """Names read by an annotation, including quoted ones."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(sub)
    return names


def _imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(bound name, line) of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.returns is not None):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)
                     and isinstance(elt.value, str)}
    return used


def unused_imports(source: str) -> List[str]:
    """``"line: name"`` for every imported name ``source`` never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return [f"{line}: {name}" for name, line in _imports(tree)
            if name not in used]


def test_no_module_imports_an_unused_name():
    found = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        unused = unused_imports(path.read_text())
        if unused:
            found[path.relative_to(PACKAGE_DIR.parent).as_posix()] = unused
    assert found == {}


@pytest.mark.parametrize("source, expected", [
    ("from dataclasses import dataclass\n", ["1: dataclass"]),
    ("import os.path\n", ["1: os"]),
    ('from x import A\n"""Mentions A only here."""\n', ["1: A"]),
    ("from x import A as B\nB()\n", []),
    ("from x import A\n__all__ = ['A']\n", []),
    ("from x import A\ndef f(a: 'A') -> None: ...\n", []),
    ("from x import A\ny: 'Optional[A]' = None\n", []),
    ("from __future__ import annotations\n", []),
])
def test_scanner(source, expected):
    assert unused_imports(source) == expected
