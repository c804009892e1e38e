"""Deterministic cache keys for configuration objects.

The runtime layer caches fitted operator-model suites, whole
``ExperimentResult``s, and ``repro search``'s per-chunk sweep records.
Every cache key is derived from the *content* of the configuration
objects involved -- immutable records such as
:class:`~repro.core.hyperparams.ModelConfig` or
:class:`~repro.hardware.cluster.ClusterSpec` -- so two sessions built
from equal configurations share cache entries while any field change
(a scaled link, a different baseline, a new collective model) produces a
different key.

Canonicalization rules:

* records (:class:`~repro._frozen.Frozen`) become ``{type, fields}``
  mappings (recursively).  The document is tagged ``__dataclass__``,
  as when the records were dataclasses, so keys written then still
  match,
* enums become ``{type, value}`` mappings,
* mappings are sorted by their canonicalized keys,
* sequences canonicalize element-wise,
* primitives pass through (floats keep full ``repr`` precision via JSON),
* anything else falls back to ``type:repr`` -- stable for the value
  objects used here, and safely over-conservative otherwise.
"""

from __future__ import annotations

import enum
import json
from typing import Mapping, Sequence

from repro._frozen import Frozen

__all__ = ["canonicalize", "cache_key", "fingerprint"]


def canonicalize(obj: object) -> object:
    """Reduce an object to a JSON-serializable canonical structure."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return {"__enum__": f"{type(obj).__module__}.{type(obj).__qualname__}",
                "value": canonicalize(obj.value)}
    if isinstance(obj, Frozen):
        return {
            "__dataclass__":
                f"{type(obj).__module__}.{type(obj).__qualname__}",
            "fields": {
                name: canonicalize(getattr(obj, name))
                for name in obj._fields
            },
        }
    if isinstance(obj, Mapping):
        entries = [
            [canonicalize(key), canonicalize(value)]
            for key, value in obj.items()
        ]
        entries.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"__mapping__": entries}
    if isinstance(obj, (set, frozenset)):
        members = [canonicalize(member) for member in obj]
        members.sort(key=lambda m: json.dumps(m, sort_keys=True))
        return {"__set__": members}
    if isinstance(obj, Sequence):
        return [canonicalize(item) for item in obj]
    return {"__repr__": f"{type(obj).__module__}.{type(obj).__qualname__}"
                        f":{obj!r}"}


def cache_key(*parts: object) -> str:
    """A stable hex digest of the canonicalized ``parts``."""
    # Imported here: hashlib loads OpenSSL, which a process that never
    # keys a cache entry should not pay for.
    import hashlib

    canonical = json.dumps([canonicalize(part) for part in parts],
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def fingerprint(*parts: object) -> str:
    """A short (16-hex-digit) content fingerprint, for display and keys."""
    return cache_key(*parts)[:16]
