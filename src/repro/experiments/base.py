"""Shared experiment-result plumbing for the per-figure modules.

Every experiment module exposes ``run(...) -> ExperimentResult`` returning
the rows/series the corresponding paper table or figure reports, plus a
``main()`` that prints them.  Benchmarks and examples consume the same
``run`` functions, so the numbers in EXPERIMENTS.md, the benches, and the
examples always agree.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro._frozen import Frozen
from repro.core import report

__all__ = ["ExperimentResult", "RunMeta"]


class RunMeta(Frozen):
    """How one ``ExperimentResult`` was produced by the runtime layer.

    Attached by :class:`repro.runtime.Session` and excluded from result
    equality, so a cache hit compares equal to the fresh run it replays.

    Attributes:
        wall_time_s: Wall-clock seconds spent producing (or replaying)
            the result.
        cache: ``"hit"``, ``"miss"``, or ``"off"``.
        session: Fingerprint of the session (cluster + timing models +
            cache version) that produced the result.
        checked: Whether a validator checked the run against the engine
            invariants (``Session(check=True)``, CLI ``--check``, or
            ``REPRO_CHECK=1``).  A run whose path no validator sees
            (Figures 11 and 13 time the overlap ROI in closed form)
            reports False even with checking on, and so does a cache
            hit, which validates nothing.
    """

    __slots__ = ("wall_time_s", "cache", "session", "checked")

    wall_time_s: float
    cache: str
    session: str
    checked: bool

    def __init__(self, wall_time_s: float, cache: str, session: str,
                 checked: bool = False) -> None:
        self._set(wall_time_s=wall_time_s, cache=cache, session=session,
                  checked=checked)

    def to_dict(self) -> Dict[str, object]:
        return {"wall_time_s": self.wall_time_s, "cache": self.cache,
                "session": self.session, "checked": self.checked}

    def describe(self) -> str:
        """One-line human-readable form (the ``to_text`` meta line)."""
        checked = ", checked" if self.checked else ""
        return (f"run: {self.wall_time_s * 1e3:.1f} ms "
                f"(cache {self.cache}, session {self.session}{checked})")


class ExperimentResult(Frozen):
    """A reproduced table/figure as rows of printable values.

    Attributes:
        experiment_id: Paper artifact id (e.g. ``"figure-10"``).
        title: Human-readable description.
        headers: Column names.
        rows: Data rows (tuples matching ``headers``).
        notes: Free-form annotations (paper-vs-measured commentary).
        meta: Optional run metadata (wall time, cache hit/miss, session
            fingerprint).  Never participates in equality and is omitted
            from rendered output unless explicitly requested, so cached
            and fresh results stay byte-identical.
    """

    __slots__ = ("experiment_id", "title", "headers", "rows", "notes",
                 "meta")
    _uncompared = ("meta",)

    experiment_id: str
    title: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]
    notes: Tuple[str, ...]
    meta: Optional[RunMeta]

    def __init__(self, experiment_id: str, title: str,
                 headers: Sequence[str], rows: Sequence[Sequence[object]],
                 notes: Sequence[str] = (),
                 meta: Optional[RunMeta] = None) -> None:
        if not isinstance(rows, tuple):
            rows = tuple(tuple(row) for row in rows)
        self._set(experiment_id=experiment_id, title=title,
                  headers=tuple(headers), rows=rows, notes=tuple(notes),
                  meta=meta)

    def with_meta(self, meta: Optional[RunMeta]) -> "ExperimentResult":
        """A copy carrying (or clearing) run metadata."""
        return self.replace(meta=meta)

    def to_text(self, include_meta: bool = False) -> str:
        """Render the result as an aligned text block.

        Args:
            include_meta: Append the run-metadata line (wall time, cache
                status, session fingerprint) when metadata is present.
                Off by default so repeated runs render identically.
        """
        lines = [f"== {self.experiment_id}: {self.title} ==",
                 report.format_table(self.headers, self.rows)]
        for note in self.notes:
            lines.append(f"note: {note}")
        if include_meta and self.meta is not None:
            lines.append(self.meta.describe())
        return "\n".join(lines)

    def column(self, header: str) -> List[object]:
        """All values of one column.

        Raises:
            KeyError: if the header is unknown.
        """
        try:
            index = self.headers.index(header)
        except ValueError:
            raise KeyError(
                f"no column {header!r}; have {list(self.headers)}"
            ) from None
        return [row[index] for row in self.rows]

    def to_dict(self, include_meta: bool = False) -> Dict[str, object]:
        """Plain-data form (JSON-serializable).

        Args:
            include_meta: Add a ``"meta"`` entry when run metadata is
                present.  Off by default so serialized results are
                reproducible across cache hits and fresh runs.
        """
        data: Dict[str, object] = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }
        if include_meta and self.meta is not None:
            data["meta"] = self.meta.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (cache replay)."""
        meta_data = data.get("meta")
        meta = RunMeta(**meta_data) if isinstance(meta_data, Mapping) \
            else None
        return cls(
            experiment_id=data["experiment_id"],
            title=data["title"],
            headers=tuple(data["headers"]),
            rows=tuple(tuple(row) for row in data["rows"]),
            notes=tuple(data.get("notes", ())),
            meta=meta,
        )

    def to_json(self, indent: int = 2, include_meta: bool = False) -> str:
        """Render the result as a JSON document."""
        return json.dumps(self.to_dict(include_meta=include_meta),
                          indent=indent)

    def to_csv(self) -> str:
        """Render the result as CSV (header row + data rows)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()
