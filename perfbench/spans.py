"""In-memory span recorder for the traced run.

A span has a name (``layer.operation``), start and end (``perf_counter``
seconds), the index of its parent span (-1 at the top) and the id of the
request it belongs to; children inherit the id of their parent. Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext

_NO_SPAN = nullcontext()


class Tracer:
    """Records spans when ``enabled``; otherwise every span is a shared no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self._open: list[int] = []

    def span(self, name: str, request: str | None = None):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, request)

    def children(self, parts: list[tuple[str, float]]) -> None:
        """Close spans for work timed inside the open span by the code it called.

        Each ``(name, seconds)`` becomes a child of the innermost open span;
        the children are laid end to end from that span's start.
        """
        if not self.enabled:
            return
        parent = self._open[-1]
        _, start, _, _, request = self.spans[parent]
        for name, seconds in parts:
            self.spans.append([name, start, start + seconds, parent, request])
            start += seconds

    def self_times(self) -> dict[str, list[tuple[float, float, float]]]:
        """Per span name, each span's start, end and self time: its duration
        minus the time its children cover.

        Children of one span run one after another, so their durations add.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            out[name].append((start, end, end - start - covered))
        return out

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {"meta": meta, "fields": ["name", "start", "end", "parent", "request"],
                 "spans": self.spans},
                f,
            )


class _Span:
    __slots__ = ("tracer", "name", "request", "record")

    def __init__(self, tracer: Tracer, name: str, request: str | None):
        self.tracer = tracer
        self.name = name
        self.request = request

    def __enter__(self):
        tracer = self.tracer
        opened = tracer._open
        parent = opened[-1] if opened else -1
        request = self.request
        if request is None and parent >= 0:
            request = tracer.spans[parent][4]
        self.record = [self.name, 0.0, 0.0, parent, request]
        opened.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._open.pop()
        return False
