"""In-memory span recorder for the traced benchmark run.

A span covers one call into the package: its name, start and end on the
``perf_counter`` clock, the span open around it (its parent) and the
operation (input graph) it belongs to.  Spans stay in memory until the run
ends and are then written out in one file.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, op, parent, perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        part of it its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration - covered[s.id]
        return dict(out)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def write(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [dict(asdict(s), start=s.start - t0, end=s.end - t0)
                for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
