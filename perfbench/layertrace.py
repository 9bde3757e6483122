"""Layer tracing from outside the program.

The tracer wraps public functions of the twogroups modules, and two
collector methods on PcGroup, from the benchmark's own files.  A wrapped
function records a span (name, start, end, parent, thread) per call; the
collector methods only count calls, because they run millions of times.
Spans and counts stay in memory until the run writes them out.

A layer's self time is its spans' duration minus the part of each span
that its child spans cover; spans of INCLUSIVE layers are not taken out of
their parent.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

# Layer name -> (module, attribute).  The name is the per-layer metric
# prefix; the module is the one that defines the function.
SPANNED = {
    "catalog.parse": ("catalog", "parse_catalog"),
    "catalog.fingerprint": ("catalog", "fingerprint"),
    "pcgroup.classes": ("pcgroup", "conjugacy_classes"),
    "pcgroup.witness": ("pcgroup", "conjugate_to_inverse_witness"),
    "ktheory.h1_wh_prime": ("ktheory", "h1_wh_prime"),
    "ktheory.search_ext": ("ktheory", "search_central_extensions"),
    "ktheory.thm42": ("ktheory", "thm42_check"),
    "ktheory.sk1": ("ktheory", "sk1"),
    "homology.schur_cover": ("homology", "schur_cover"),
    "homology.commuting_pairs": ("homology", "commuting_pairs"),
    "homology.commuting_wedges": ("homology", "commuting_wedges"),
    "linalg.snf": ("linalg", "smith_normal_form"),
    "parallel.map_chunks": ("parallel", "map_chunks"),
    "lhs.d2_table": ("lhs", "d2_table"),
    "lhs.survives_deg4": ("lhs", "survives_deg4"),
    "f2poly.degree_membership": ("f2poly", "degree_membership"),
    "ooze.lambda4": ("ooze", "lambda4_detect"),
    "ooze.adapted_decomposition": ("ooze", "adapted_decomposition"),
    "ooze.compat": ("ooze", "compatible_pair_check"),
    "cli.call": ("cli", "main"),
}

# Counted-only methods of PcGroup.
COUNTED = {"pcgroup.mult_calls": "mult", "pcgroup.comm_calls": "comm"}

# Layers whose time stays in their caller's self time as well: the worker
# pool only runs its caller's loop, so taking it out would leave the
# commuting-pair walk with no time of its own.
INCLUSIVE = {"parallel.map_chunks"}


class Tracer:
    """Spans and counts for one process; install() patches, remove() undoes."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, Optional[int], int]] = []
        self._local = threading.local()
        self._counters: List[Dict[str, int]] = []
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self) -> Dict[str, int]:
        # one dict per thread, so that threads of the worker pool never
        # lose an update to a read-modify-write race
        d = getattr(self._local, "counts", None)
        if d is None:
            d = self._local.counts = {}
            with self._lock:
                self._counters.append(d)
        return d

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        with self._lock:
            for d in self._counters:
                for k, v in d.items():
                    out[k] = out.get(k, 0) + v
        return out

    def span_wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append((name, 0.0, 0.0, parent, threading.get_ident()))
            counter = tracer._counter()
            counter[name] = counter.get(name, 0) + 1
            if name == "linalg.snf" and args and args[0]:
                # rows x cols of the matrix
                cells = len(args[0]) * len(args[0][0])
                counter["linalg.snf_cells"] = counter.get("linalg.snf_cells", 0) + cells
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent, threading.get_ident())

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, name: str, fn):
        tracer = self

        def counted(*args):
            counter = tracer._counter()
            counter[name] = counter.get(name, 0) + 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every SPANNED function wherever a twogroups module binds it,
        and the COUNTED methods on PcGroup."""
        import importlib

        mods = {
            name: importlib.import_module(f"twogroups.{name}")
            for name in ("catalog", "pcgroup", "ktheory", "homology", "linalg",
                         "parallel", "lhs", "f2poly", "ooze", "cli")
        }
        bound = [m for k, m in sys.modules.items()
                 if k == "twogroups" or k.startswith("twogroups.")]
        for layer, (mod, attr) in SPANNED.items():
            orig = getattr(mods[mod], attr)
            wrapped = self.span_wrapper(layer, orig)
            for m in bound:
                if getattr(m, attr, None) is orig:
                    self._undo.append((m, attr, orig))
                    setattr(m, attr, wrapped)
        cls = mods["pcgroup"].PcGroup
        for name, meth in COUNTED.items():
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self.count_wrapper(name, orig))

    def remove(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self, first: int = 0, last: Optional[int] = None,
                   scale=lambda idx: 1.0) -> Dict[str, float]:
        """Self time per layer over spans[first:last]; scale(idx) turns a
        span's seconds into normalised seconds."""
        spans = self.spans[first:last]
        children: Dict[int, List[int]] = {}
        for i, (name, _s, _e, parent, _t) in enumerate(spans, start=first):
            if parent is not None and name not in INCLUSIVE:
                children.setdefault(parent, []).append(i)
        out: Dict[str, float] = {}
        for i, (name, start, end, _p, _t) in enumerate(spans, start=first):
            covered = _union_length(
                [(self.spans[c][1], self.spans[c][2]) for c in children.get(i, ())],
                start, end,
            )
            out[name] = out.get(name, 0.0) + (end - start - covered) * scale(i)
        return out

    def dump(self) -> Dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "thread": t}
                for n, s, e, p, t in self.spans
            ],
            "counts": self.counts(),
        }


def _union_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total
