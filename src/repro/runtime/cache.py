"""Keyed result cache: in-memory dict plus an optional on-disk JSON store.

The cache stores plain JSON payloads (``ExperimentResult.to_dict()``
documents, and ``repro search``'s exact per-chunk sweep records)
under content keys from :mod:`repro.runtime.keys`.  Every on-disk entry is wrapped in
an envelope carrying :data:`CACHE_VERSION`; bumping the version -- or
constructing the cache with a different ``version`` tag -- invalidates
all previously written entries without touching the files until
:meth:`ResultCache.clear` is called.

The default store location is ``~/.cache/repro`` (overridable with the
``REPRO_CACHE_DIR`` environment variable or the CLI ``--cache-dir``
flag); a cache constructed without a directory is memory-only.  The
memory side keeps at most :data:`MEMORY_ENTRIES` entries, evicting the
least recently used, so a long-lived process stays bounded; the disk
store keeps everything it is given.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = ["CACHE_VERSION", "MEMORY_ENTRIES", "CacheStats", "ResultCache",
           "default_cache_dir"]

#: Bump to invalidate every previously persisted cache entry (e.g. when
#: timing-model calibration or result schemas change).
CACHE_VERSION = "1"

#: Entries the memory side of a :class:`ResultCache` keeps before it
#: evicts the least recently used.  ``repro experiment all`` stores 36
#: in one process, one per experiment; the cap leaves room for long
#: searches' chunk records while bounding a long-lived process.
MEMORY_ENTRIES = 1024


def default_cache_dir() -> Path:
    """The default on-disk store location (``REPRO_CACHE_DIR`` wins)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


class CacheStats:
    """Hit/miss/write counters for one cache instance."""

    __slots__ = ("hits", "misses", "writes")

    def __init__(self, hits: int = 0, misses: int = 0,
                 writes: int = 0) -> None:
        self.hits = hits
        self.misses = misses
        self.writes = writes

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes}


class ResultCache:
    """Content-keyed JSON payload cache.

    Attributes:
        cache_dir: On-disk store directory; ``None`` keeps the cache
            memory-only.
        version: Invalidation tag stamped into every envelope; entries
            written under a different tag read as misses.
    """

    __slots__ = ("cache_dir", "version", "stats", "_memory")

    def __init__(self, cache_dir: Optional[Path] = None,
                 version: str = CACHE_VERSION,
                 stats: Optional[CacheStats] = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.version = version
        self.stats = stats if stats is not None else CacheStats()
        self._memory: "OrderedDict[str, object]" = OrderedDict()

    @property
    def persistent(self) -> bool:
        """Whether entries are also written to disk."""
        return self.cache_dir is not None

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def get(self, key: str, default: Optional[object] = None) -> object:
        """The payload stored under ``key``, or ``default`` on a miss.

        A cached ``None`` payload is a hit (and is returned as None), on
        both the memory and the disk path.  A disk hit is promoted to
        memory.
        """
        if key in self._memory:
            self.stats.hits += 1
            self._memory.move_to_end(key)
            return self._memory[key]
        found, payload = self._read_disk(key)
        if found:
            self._remember(key, payload)
            self.stats.hits += 1
            return payload
        self.stats.misses += 1
        return default

    def _remember(self, key: str, payload: object) -> None:
        """Store ``key`` in memory as the most recently used entry,
        evicting the least recently used beyond :data:`MEMORY_ENTRIES`."""
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > MEMORY_ENTRIES:
            self._memory.popitem(last=False)

    def contains(self, key: str) -> bool:
        """Whether ``key`` is cached (memory or disk), without touching
        the hit/miss counters, the recency order, or promoting the entry
        to memory."""
        if key in self._memory:
            return True
        found, _ = self._read_disk(key)
        return found

    __contains__ = contains

    def _read_disk(self, key: str) -> Tuple[bool, Optional[object]]:
        """``(found, payload)`` for the on-disk entry under ``key``.

        The presence flag distinguishes a stored null payload from a
        miss.  Envelopes written before the flag existed are treated as
        present when they carry a ``payload`` entry.
        """
        if not self.persistent:
            return False, None
        path = self._path(key)
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return False, None
        if (not isinstance(envelope, dict)
                or envelope.get("version") != self.version
                or envelope.get("key") != key):
            return False, None
        if not envelope.get("present", "payload" in envelope):
            return False, None
        return True, envelope.get("payload")

    def put(self, key: str, payload: object) -> None:
        """Store a JSON-serializable payload under ``key``.

        ``None`` is a legitimate payload: the envelope carries a
        ``present`` flag, so a later :meth:`get` reports a hit.
        """
        self._remember(key, payload)
        self.stats.writes += 1
        if not self.persistent:
            return
        envelope = {"version": self.version, "key": key,
                    "payload": payload, "present": True}
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        # Tmp name must be unique per writer: concurrent processes store
        # identical content under the same key, and a shared tmp path
        # would let one writer's os.replace steal the other's file.
        tmp = path.with_suffix(f".json.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(envelope, sort_keys=True),
                       encoding="utf-8")
        try:
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise

    def info(self) -> Dict[str, object]:
        """Cache shape and counters (the ``repro cache info`` payload)."""
        memory_entries = len(self._memory)
        disk_entries = 0
        disk_bytes = 0
        if self.persistent and self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.json"):
                disk_entries += 1
                try:
                    disk_bytes += path.stat().st_size
                except OSError:
                    pass
        return {
            "version": self.version,
            "cache_dir": str(self.cache_dir) if self.persistent else None,
            "memory_entries": memory_entries,
            "disk_entries": disk_entries,
            "disk_bytes": disk_bytes,
            "stats": self.stats.as_dict(),
        }

    def clear(self) -> int:
        """Drop every entry (memory and disk); returns entries removed."""
        removed = len(self._memory)
        self._memory.clear()
        if self.persistent and self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in self.cache_dir.glob("*.tmp"):  # orphaned writers
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed
