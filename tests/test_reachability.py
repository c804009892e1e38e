"""Every ``repro`` module is reachable from the command line.

A static scan from ``repro.cli`` and ``repro.__main__`` follows three
kinds of edges: import statements anywhere in a module (lazy imports
inside functions included, ``if TYPE_CHECKING:`` blocks excluded), the
``name -> module`` tables of the lazy package namespaces, and the
experiment registry's id -> runner-module table.  Reaching a module
reaches its parent packages, whose ``__init__`` runs first.  A module
that nothing on that surface reaches is code only its tests exercise:
delete it, or wire it into the CLI.

The same holds one level down.  In every reached module, a top-level
function or class, or a non-dunder method of a top-level class, is
reached when its name is used by reached code: the module-level code of
a reached module (``__all__`` entries and lazy-table keys are
re-exports, not uses), the body of a reached symbol, or any non-test
file under ``examples/``, ``perfbench/`` or ``benchmarks/``.  A method
also needs its class reached.  Names are matched without their module,
so the scan over-approximates: one use of ``run`` keeps every ``run``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent
REPO_DIR = Path(__file__).resolve().parent.parent

ROOTS = ("repro.cli", "repro.__main__")

#: Entry points outside the CLI, each with the user path that needs it.
#: What they import counts as reached too.
ALLOWED = {
    "repro.sim.serialize": "examples/export_artifacts.py writes its "
                           "JSON artifacts with it, a documented user path",
    "repro.tools.apidocs": "generates docs/API.md, which CI regenerates "
                           "and diffs",
}

#: Directories outside the package whose non-test files use it: CI runs
#: every example, and perfbench and the benchmarks drive the package.
USER_DIRS = ("examples", "perfbench", "benchmarks")

_SECTION_3 = ("a Section-3 closed form (Eq. 6-8): the independent oracle "
              "the checker's overlap-ROI layer is to compare against")

#: Symbols nothing reaches that stay, each with the user path or oracle
#: that needs it.  What their bodies use counts as reached too.
SYMBOL_ALLOWED = {
    "repro.cli.build_parser": "the full reference parser that "
                              "TestPerCommandParser and perfbench's tests "
                              "compare cli.main's per-command parser with",
    "repro.core.flops.fc_backprop_gemm_ops": _SECTION_3,
    "repro.core.flops.fc_weight_grad_bytes": _SECTION_3,
    "repro.core.flops.layer_counts": _SECTION_3,
    "repro.core.flops.LayerCounts": _SECTION_3,
    "repro.core.flops.LayerCounts.ops_per_serialized_byte": _SECTION_3,
    "repro.core.flops.LayerCounts.ops_per_overlapped_byte": _SECTION_3,
    "repro.core.edge.amdahl_edge": _SECTION_3,
    "repro.core.edge.EdgeAnalysis": _SECTION_3,
    "repro.sim.checker.validate_schedule": "a schedule validator: safety "
                                           "code that checks a hand-built "
                                           "schedule",
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _uses(nodes: Iterable[ast.AST]) -> Set[str]:
    """Names, attributes and identifier strings under ``nodes``.

    A dotted string such as ``"GridSpec.chunk"`` uses each part.  The
    keys of a ``lazy_namespace`` table are re-exports, not uses.
    """
    names: Set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_namespace"):
            stack.append(node.func)
            for argument in node.args:
                stack.extend(argument.values if isinstance(argument, ast.Dict)
                             else [argument])
        else:
            stack.extend(ast.iter_child_nodes(node))
    return names


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        getattr(target, "id", None) == "__all__" for target in node.targets)


def _symbols(module: str, tree: ast.Module
             ) -> Dict[str, Tuple[ast.AST, ...]]:
    """Qualified symbol name -> the nodes whose uses it makes.

    A class's own nodes are its decorators, bases and body without its
    non-dunder methods, which are symbols of their own.
    """
    symbols: Dict[str, Tuple[ast.AST, ...]] = {}
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        name = f"{module}.{node.name}"
        if isinstance(node, ast.ClassDef):
            methods = [item for item in node.body
                       if isinstance(item, _FUNCTIONS)
                       and not item.name.startswith("__")]
            symbols.update((f"{name}.{method.name}", (method,))
                           for method in methods)
            symbols[name] = (*node.decorator_list, *node.bases,
                             *node.keywords,
                             *(item for item in node.body
                               if item not in methods))
        else:
            symbols[name] = (node,)
    return symbols


def _user_files() -> List[Path]:
    return [path for directory in USER_DIRS
            for path in sorted((REPO_DIR / directory).rglob("*.py"))
            if "tests" not in path.relative_to(REPO_DIR).parts]


def _scan() -> Tuple[Dict[str, Tuple[ast.AST, ...]], Set[str]]:
    """Every symbol of a reached module, and the names used outside
    any symbol: module-level code and the user directories."""
    symbols: Dict[str, Tuple[ast.AST, ...]] = {}
    used: Set[str] = set()
    for module in sorted(_reach(ROOTS) | _reach(ALLOWED)):
        tree = _parse(MODULES[module])
        symbols.update(_symbols(module, tree))
        used |= _uses(node for node in tree.body
                      if not isinstance(node, _DEFS) and not _is_all(node))
    for path in _user_files():
        used |= _uses([_parse(path)])
    return symbols, used


def _symbol_reach(roots: Iterable[str] = ()
                  ) -> Tuple[Dict[str, Tuple[ast.AST, ...]], Set[str]]:
    """Every scanned symbol, and those reached, to a fixpoint, from the
    scan's uses and the bodies of ``roots``."""
    symbols, used = _scan()
    reached = set(roots)
    new = reached
    while new:
        for name in new:
            used |= _uses(symbols[name])
        new = {name for name in symbols if name not in reached
               and name.rpartition(".")[2] in used
               and (name.rpartition(".")[0] not in symbols
                    or name.rpartition(".")[0] in reached)}
        reached |= new
    return symbols, reached


def test_every_symbol_is_reachable_from_the_cli():
    symbols, reached = _symbol_reach(SYMBOL_ALLOWED)
    dead = set(symbols) - reached
    # A method of an unreached class goes with its class.
    assert sorted(name for name in dead
                  if name.rpartition(".")[0] not in dead) == []


def test_allowed_symbols_are_still_needed():
    """An allow-listed symbol that something reaches, or that no longer
    exists, must leave the list."""
    symbols, reached = _symbol_reach()
    for name in SYMBOL_ALLOWED:
        assert name in symbols, name
        assert name not in reached, name
