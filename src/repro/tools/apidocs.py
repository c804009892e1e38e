"""API-reference generator.

``python -m repro.tools.apidocs [path]`` walks the ``repro`` package and
writes a markdown reference (to ``docs/API.md`` by default) built from
the live docstrings: one section per module, with each public class and
function's signature and summary paragraph.  Because it reads the
imported objects, the reference can never drift from the code.

Modules that set ``__apidoc_full__ = True`` (e.g.
:mod:`repro.core.invariants`, whose docstring catalogues every engine
invariant) render their complete module docstring instead of just the
summary paragraph.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

import repro

__all__ = ["iter_module_names", "render_module", "render_reference",
           "write_reference"]


def iter_module_names(package=None) -> Iterator[str]:
    """Importable module names under a package (default: ``repro``),
    sorted, recursively."""
    if package is None:
        package = repro
    names = [package.__name__]
    for info in pkgutil.walk_packages(package.__path__,
                                      prefix=f"{package.__name__}."):
        names.append(info.name)
    return iter(sorted(names))


def _summary(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    first_paragraph = doc.split("\n\n")[0].strip()
    return " ".join(first_paragraph.split())


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    members = []
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        defined_here = getattr(obj, "__module__", None) == module.__name__
        if defined_here and (inspect.isclass(obj)
                             or inspect.isfunction(obj)):
            members.append((name, obj))
    return members


def render_module(name: str) -> str:
    """One module's markdown section (empty string if nothing public)."""
    module = importlib.import_module(name)
    lines: List[str] = [f"## `{name}`", ""]
    if getattr(module, "__apidoc_full__", False):
        summary = (inspect.getdoc(module) or "").strip()
    else:
        summary = _summary(module)
    if summary:
        lines.append(summary)
        lines.append("")
    members = _public_members(module)
    for member_name, obj in members:
        if inspect.isclass(obj):
            lines.append(f"### class `{member_name}`")
        else:
            lines.append(f"### `{member_name}{_signature(obj)}`")
        lines.append("")
        member_summary = _summary(obj)
        if member_summary:
            lines.append(member_summary)
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_reference() -> str:
    """The full package reference as one markdown document."""
    sections = [
        "# repro API reference",
        "",
        "Generated from live docstrings by `python -m repro.tools.apidocs`;",
        "do not edit by hand.",
        "",
    ]
    for name in iter_module_names():
        if name.endswith("__main__"):
            continue
        sections.append(render_module(name))
    return "\n".join(sections)


def write_reference(path: Path) -> Path:
    """Render and write the reference to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_reference(), encoding="utf-8")
    return path


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.apidocs",
        description="Write the markdown API reference of the repro "
                    "package, rendered from its docstrings.",
    )
    parser.add_argument("path", nargs="?", type=Path,
                        default=Path("docs/API.md"),
                        help="output file (default: docs/API.md)")
    args = parser.parse_args(argv)
    written = write_reference(args.path)
    print(f"wrote {written}")


if __name__ == "__main__":
    main()
