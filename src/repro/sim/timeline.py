"""ASCII timeline rendering for schedules.

Turns a :class:`repro.sim.engine.Schedule` into a per-stream text Gantt
chart, the quickest way to *see* overlap behaviour: whether DP gradient
all-reduces hide under backprop, where serialized all-reduces stall the
compute stream, and what a decomposition transform actually pipelined.

Example output::

    compute    ##########--####......####
    comm       ....######........##......
    comm-async ..........######..........
               0.0 ms                3.2 ms

``#`` marks busy time, ``.`` idle; one character spans
``makespan / width`` seconds.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.sim.engine import Schedule

__all__ = ["render_timeline"]


def render_timeline(schedule: Schedule, width: int = 72,
                    resources: Optional[Sequence[str]] = None) -> str:
    """Render a schedule as an ASCII Gantt chart.

    Args:
        schedule: The scheduled execution.
        width: Characters across the full makespan.
        resources: Streams to show, in order (default: all, first-seen).

    Raises:
        ValueError: for a non-positive width.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    names = list(resources) if resources is not None else (
        schedule.resources()
    )
    makespan = schedule.makespan
    if makespan == 0 or not names:
        return "(empty schedule)"
    label_width = max(len(name) for name in names)
    lines: List[str] = []
    for name in names:
        cells = [False] * width
        for start, finish in schedule.intervals(name):
            first = int(start / makespan * width)
            last = int(finish / makespan * width)
            if finish > start:
                last = max(last, first + 1)
            for index in range(first, min(last, width)):
                cells[index] = True
        bar = "".join("#" if busy else "." for busy in cells)
        lines.append(f"{name.ljust(label_width)} {bar}")
    footer = (f"{' ' * label_width} 0.0 ms"
              f"{' ' * max(1, width - 14)}{makespan * 1e3:.1f} ms")
    lines.append(footer)
    return "\n".join(lines)
