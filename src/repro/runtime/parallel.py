"""Order-preserving parallel map for experiment and sweep execution.

Built on :mod:`concurrent.futures` threads: the simulator is pure
Python, so threads mainly win by overlapping independent experiments'
cache/disk work and by letting one warm session serve many runners --
but the contract that matters is *determinism*: results always come
back in input order, and ``jobs=1`` (the default) degenerates to a
plain serial loop with no executor involved.

``items`` may be any iterable, including an unbounded generator: it is
consumed lazily, with at most ``window`` tasks in flight, so streaming
callers (chunked grid sweeps) never buffer the whole work list.
"""

from __future__ import annotations

import os
from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Iterable,
    List,
    Optional,
    TypeVar,
)

if TYPE_CHECKING:
    from concurrent.futures import Future

__all__ = ["resolve_jobs", "parallel_map"]

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 -> 1, negative -> CPU count."""
    if jobs is None or jobs == 0:
        return 1
    if jobs < 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 jobs: Optional[int] = 1,
                 window: Optional[int] = None) -> List[R]:
    """Map ``fn`` over ``items``, preserving input order.

    Serial when ``jobs`` resolves to 1; otherwise a thread pool of
    ``jobs`` workers fed lazily from ``items`` with at most ``window``
    submissions outstanding (default ``2 * jobs``).  Exceptions
    propagate to the caller either way; on failure, queued-but-unrun
    tasks are cancelled and no further items are consumed.
    """
    workers = resolve_jobs(jobs)
    iterator = iter(items)
    if workers <= 1:
        return [fn(item) for item in iterator]
    from concurrent.futures import ThreadPoolExecutor

    limit = max(workers, window or 2 * workers)
    results: List[R] = []
    inflight: Deque[Future] = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for item in iterator:
                inflight.append(pool.submit(fn, item))
                if len(inflight) >= limit:
                    results.append(inflight.popleft().result())
            while inflight:
                results.append(inflight.popleft().result())
        finally:
            for future in inflight:
                future.cancel()
    return results
