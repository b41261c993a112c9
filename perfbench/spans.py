"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its name, start, end, the index of
the span that was open when it started (its parent, -1 for none) and a work
count taken from the call's arguments (rows trained, rows evaluated, updates
aggregated; 0 where nothing is counted).  Spans stay in a list until the run
ends; nothing is written while the clock is running.

The wrappers replace module globals, so they see exactly the calls the
program makes through those names.  ``install`` returns an undo function and
the wrapped modules are restored in the caller's ``finally``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, work]
        self._open: list[int] = []

    def wrap(self, name: str, fn, work=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1,
                          work(*args, **kwargs) if work else 0])
            open_.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[index][1] = start
                spans[index][2] = end

        return traced

    def install(self, targets) -> Callable[[], None]:
        """Wrap ``(module, attribute, span name, work)`` targets in place.

        Attributes a module no longer has are skipped, so a program that drops
        a function still runs under the trace; its span then counts zero.
        """
        saved = []
        for module, attr, name, work in targets:
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, work))

        def undo() -> None:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return undo

    def summary(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, work.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of a tree sum to its root's duration.
        Only spans from index ``first`` on are counted.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
        )
        for offset, (name, start, end, _, work) in enumerate(self.spans[first:]):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[first + offset]
            entry["work"] += work
        return dict(out)

    def write(self, path) -> None:
        """One JSON object per line: name, start, end, parent, work."""
        with open(path, "w") as f:
            for name, start, end, parent, work in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "work": work}) + "\n")
