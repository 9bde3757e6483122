"""Worker-pool helper for the embarrassingly parallel scans.

Every bulk scan in the library (commutator tables, commuting-pair walks)
iterates independent candidates over immutable inputs, so partitioning and
merging is safe.  The worker count is process-global, set once by the CLI
from --threads; the default is the machine's core count.  CPython threads
share the interpreter lock, so the benefit is bounded; the knob mainly
caps resource use and keeps the scan structure explicitly partitioned.
"""

from __future__ import annotations

import os
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_worker_count = max(1, os.cpu_count() or 1)


def set_worker_count(n: int) -> None:
    global _worker_count
    if n < 1:
        raise ValueError("worker count must be >= 1")
    _worker_count = n


def worker_count() -> int:
    return _worker_count


def map_chunks(fn: Callable[[Sequence[T]], R], items: Sequence[T]) -> List[R]:
    """Apply fn to contiguous chunks of items, one per worker; returns the
    per-chunk results in order."""
    n = _worker_count
    if n == 1 or len(items) < 2 * n:
        return [fn(items)]
    size = (len(items) + n - 1) // n
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    # imported here: most CLI calls never start the pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, chunks))
