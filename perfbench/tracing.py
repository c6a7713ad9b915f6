"""Span recording for the traced benchmark run.

The tracer wraps functions at the boundary between two ``dynnet`` modules
(for example ``dynnet.search.cover_achieved``, which the search calls once
per state) by replacing the module or class attribute for the duration of
the run. Nothing inside ``dynnet`` changes. Per-round helpers such as
``compose_rows`` are deliberately not wrapped, which keeps the overhead
bounded by the number of layer crossings.

Spans are kept in flat in-memory arrays while the job runs and are only
aggregated and written out after timing has stopped.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Iterable, Optional

CountHook = Callable[[Any], Iterable[tuple[str, int]]]


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    """Records one span per call of each wrapped function.

    A span stores its name, its parent (the span open when it started, or
    -1) and its start and end times. Use as a context manager: the original
    attributes are restored on exit even if the job raises.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, span: str, count: Optional[CountHook] = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span named
        ``span``; ``count`` maps the call's result to counter increments."""
        fn = getattr(owner, attr)
        self._patched.append((owner, attr, owner.__dict__[attr]))
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        name_idx, parents, starts, ends = self.name_idx, self.parents, self.starts, self.ends
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            name_idx.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter_ns()
                stack.pop()
            if count is not None:
                for key, value in count(result):
                    counts[key] += value
            return result

        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def __len__(self) -> int:
        return len(self.starts)

    def layer_stats(self) -> dict[str, LayerStats]:
        """Calls, total time and self time per span name. Self time is a
        span's duration minus the durations of its direct children; the job
        runs on one thread, so children never overlap."""
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        child_ns = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        stats = {name: LayerStats() for name in self.names}
        for i in range(n):
            st = stats[self.names[self.name_idx[i]]]
            dur = ends[i] - starts[i]
            st.calls += 1
            st.total_ns += dur
            st.self_ns += dur - child_ns[i]
        return stats

    def retime(self, to_s: Callable[[float], float]) -> None:
        """Map every recorded timestamp through ``to_s``, a function from
        ``perf_counter`` seconds to the seconds to report."""
        for arr in (self.starts, self.ends):
            for i, ns in enumerate(arr):
                arr[i] = round(to_s(ns * 1e-9) * 1e9)

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            names, idx, parents, starts, ends = (
                self.names, self.name_idx, self.parents, self.starts, self.ends,
            )
            fh.writelines(
                f"{i}\t{parents[i]}\t{names[idx[i]]}\t{starts[i]}\t{ends[i]}\n"
                for i in range(len(starts))
            )
