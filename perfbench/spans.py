"""Span recording for the traced benchmark run.

Every layer call the benchmark makes goes through ``call(name, fn, *args)``.
Untraced runs use ``direct``, which only calls ``fn``; traced runs use a
``Tracer``, which records one span per call with its name, start, end,
parent span and item (its index in the batch), on the clock it is given.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

from array import array


def direct(name, fn, *args):
    return fn(*args)


class Tracer:
    """In-memory span recorder for a single-threaded run.

    Spans live in flat columns (numbers in arrays), so that a long trace
    adds almost nothing for the cyclic garbage collector to traverse."""

    def __init__(self, clock):
        self.clock = clock
        self.names = []
        self.items = []
        self.parents = array("l")  # -1 for a root span
        self.starts = array("d")
        self.ends = array("d")
        self.item = None
        self._stack = [-1]

    def call(self, name, fn, *args):
        i = len(self.names)
        self.names.append(name)
        self.items.append(self.item)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())
        try:
            return fn(*args)
        finally:
            self.ends[i] = self.clock()
            self._stack.pop()

    def self_times(self, scales):
        """Total self time per span name: each span's duration minus the
        time its direct children cover, times ``scales[item]`` (the
        reference-speed factor of the span's item)."""
        child = [0.0] * len(self.names)
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name, start, end, covered, item in zip(self.names, self.starts, self.ends, child, self.items):
            out[name] = out.get(name, 0.0) + ((end - start) - covered) * scales[item]
        return out

    def to_json(self):
        t0 = self.starts[0] if self.names else 0.0
        return [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p if p >= 0 else None, "item": i}
            for n, s, e, p, i in zip(self.names, self.starts, self.ends, self.parents, self.items)
        ]
