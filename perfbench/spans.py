"""In-memory spans around the benchmark's calls into each layer.

A span is ``[name, start, end, parent, op, failed, tag]``: the layer
function (``<module>.<function>``) or ``"op"`` for a whole operation,
``perf_counter`` times, the index of the enclosing span (-1 for none),
the operation's index in its pass, whether the call raised, and a tag
(the operation kind for an ``"op"`` span, the input degree for
``straighten``).  A span's self time is its duration minus that of its
direct children.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, tags=None, counters=None):
        # span name -> function of the call's arguments giving its tag
        self.tags = tags or {}
        # span name -> function(counts, args, result) run after each call
        self.counters = counters or {}
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._op = -1

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        tag = self.tags.get(name)
        counter = self.counters.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, True,
                    tag(args) if tag else ""]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[5] = False
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter:
                counter(counts, args, result)
            return result

        return traced

    def begin_op(self, index: int, tag: str) -> None:
        self._op = index
        self._stack.append(len(self.spans))
        self.spans.append(["op", perf_counter(), 0.0, -1, index, False, tag])

    def end_op(self, failed: bool) -> None:
        span = self.spans[self._stack.pop()]
        span[2] = perf_counter()
        span[5] = failed

    def totals(self) -> dict:
        """``<name>.calls``, ``.s`` (self time), ``.failed`` and
        ``<name>.s.<tag>`` summed over every span recorded."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _, _, failed, tag) in enumerate(self.spans):
            self_s = end - start - child[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += self_s
            out[f"{name}.failed"] += failed
            if tag and name != "op":
                out[f"{name}.s.{tag}"] += self_s
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
