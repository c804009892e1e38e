"""The invariant-checking switch, with no dependencies beyond the stdlib.

Deciding whether to check must not cost the checker's import:
:class:`~repro.runtime.session.Session`, the streaming sweep and the CLI
read :func:`check_enabled` first and import :mod:`repro.sim.checker`
only when it is true.  The checker re-exports both names, and counts
each validator call here, so a caller can tell whether checking
actually validated anything (:func:`validation_count`).
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["CHECK_ENV", "check_enabled", "validation_count"]

#: Environment variable that turns invariant checking on everywhere a
#: :class:`~repro.runtime.session.Session` executes or batches a trace.
CHECK_ENV = "REPRO_CHECK"

_TRUTHY = ("1", "true", "yes", "on")


def check_enabled(explicit: Optional[bool] = None) -> bool:
    """Whether invariant checking is on.

    An explicit ``True``/``False`` wins; ``None`` defers to the
    :data:`CHECK_ENV` environment variable (``1``/``true``/``yes``/``on``).
    """
    if explicit is not None:
        return bool(explicit)
    return os.environ.get(CHECK_ENV, "").strip().lower() in _TRUTHY


_validations = 0


def validation_count() -> int:
    """Validator calls made so far in this process.

    Validators running in sweep pool workers count in those processes,
    not here.
    """
    return _validations


def _count_validation() -> None:
    global _validations
    _validations += 1
