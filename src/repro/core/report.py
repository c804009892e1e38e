"""Plain-text reporting helpers for experiment output.

The benchmark harness and examples print each reproduced table/figure as
aligned text; these helpers keep that formatting in one place.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["format_table", "format_pct", "format_ms"]


def format_pct(value: float, digits: int = 1) -> str:
    """Render a fraction as a percentage string (0.47 -> ``"47.0%"``)."""
    return f"{100.0 * value:.{digits}f}%"


def format_ms(seconds: float, digits: int = 3) -> str:
    """Render seconds as milliseconds (0.0042 -> ``"4.200 ms"``)."""
    return f"{seconds * 1e3:.{digits}f} ms"


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render rows as an aligned text table with a header rule.

    Raises:
        ValueError: if a row's width does not match the header's.
    """
    string_rows: List[List[str]] = []
    for row in rows:
        cells = [str(cell) for cell in row]
        if len(cells) != len(headers):
            raise ValueError(
                f"row has {len(cells)} cells, expected {len(headers)}"
            )
        string_rows.append(cells)
    widths = [len(h) for h in headers]
    for cells in string_rows:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    def _line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(cells)).rstrip()
    lines = [_line(list(headers)), _line(["-" * w for w in widths])]
    lines.extend(_line(cells) for cells in string_rows)
    return "\n".join(lines)
