"""Every ``repro`` module is reachable from the command line.

A static scan from ``repro.cli`` and ``repro.__main__`` follows three
kinds of edges: import statements anywhere in a module (lazy imports
inside functions included, ``if TYPE_CHECKING:`` blocks excluded), the
``name -> module`` tables of the lazy package namespaces, and the
experiment registry's id -> runner-module table.  Reaching a module
reaches its parent packages, whose ``__init__`` runs first.  A module
that nothing on that surface reaches is code only its tests exercise:
delete it, or wire it into the CLI.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, Set

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent

ROOTS = ("repro.cli", "repro.__main__")

#: Entry points outside the CLI, each with the user path that needs it.
#: What they import counts as reached too.
ALLOWED = {
    "repro.sim.serialize": "examples/export_artifacts.py writes its "
                           "JSON artifacts with it, a documented user path",
    "repro.tools.apidocs": "generates docs/API.md, which CI regenerates "
                           "and diffs",
}


def _module_files() -> Dict[str, Path]:
    files = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        parts = path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


MODULES = _module_files()


def _is_type_checking(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute)
            and test.attr == "TYPE_CHECKING"))


def _runtime_nodes(tree: ast.AST) -> Iterator[ast.AST]:
    """Every node of ``tree`` outside ``if TYPE_CHECKING:`` bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if _is_type_checking(node):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _string_values(node: ast.AST) -> Iterable[str]:
    if isinstance(node, ast.Dict):
        return [value.value for value in node.values
                if isinstance(value, ast.Constant)
                and isinstance(value.value, str)]
    return []


def _edges(module: str) -> Set[str]:
    """Modules ``module`` reaches by import, lazy table or registry."""
    path = MODULES[module]
    package = module if path.name == "__init__.py" else \
        module.rpartition(".")[0]
    found: Set[str] = set()
    for node in _runtime_nodes(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "lazy_namespace"):
            for argument in node.args:
                found.update(_string_values(argument))
        elif (module == "repro.experiments.registry"
              and isinstance(node, ast.AnnAssign)
              and getattr(node.target, "id", None) == "_MODULES"):
            found.update(f"repro.experiments.{name}"
                         for name in _string_values(node.value))
    return {name for name in found if name in MODULES}


def _reach(roots: Iterable[str]) -> Set[str]:
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        module = stack.pop()
        if module in seen:
            continue
        seen.add(module)
        parts = module.split(".")
        stack.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        stack.extend(_edges(module))
    return seen


def test_scan_follows_every_edge_kind():
    # Lazy-namespace table, registry id, function-level import.
    assert "repro.core.edge" in _edges("repro.core")
    assert "repro.experiments.table2_zoo" in _edges(
        "repro.experiments.registry")
    assert "repro.models.trace" in _edges("repro.experiments.table2_zoo")
    # Only annotations name the session there.
    assert "repro.runtime.session" not in _edges(
        "repro.experiments.table2_zoo")


def test_every_module_is_reachable_from_the_cli():
    from_cli = _reach(ROOTS)
    unreached = set(MODULES) - from_cli
    allowed = _reach(ALLOWED)
    assert sorted(unreached - allowed) == []


def test_allowed_entry_points_are_still_needed():
    """An allow-listed module that the CLI reaches, or that no longer
    exists, must leave the list."""
    from_cli = _reach(ROOTS)
    for module in ALLOWED:
        assert module in MODULES, module
        assert module not in from_cli, module
