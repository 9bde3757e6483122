"""The one seam through which the bulk scans run their candidates.

`commutator_values` and the `commuting_pairs` oracle hand their scan to
`map_chunks`, which runs it serially in one chunk: a thread pool was bound
by the interpreter lock and measured slower with two workers than with one.
The module stays because the benchmark's layer tracer imports it and wraps
`map_chunks` by name.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def map_chunks(fn: Callable[[Sequence[T]], R], items: Sequence[T]) -> List[R]:
    """fn applied to all of items as one chunk, as a one-element list."""
    return [fn(items)]
