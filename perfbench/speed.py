"""Interpreter-speed samples, for reporting times at a reference speed.

On a shared virtual machine the same Python code runs tens of percent
faster or slower from one half-minute to the next, because other guests
load the host.  One run cannot average that away, so the end-to-end times
are scaled to a fixed reference speed: a fixed kernel is timed before and
after the measured work, and a wall time ``t`` measured while the kernel
ran at ``rate`` passes per second is reported as
``t * rate / REFERENCE_RATE``.  On a machine where the kernel runs at the
reference rate, the reported time is the wall time.

The kernel is a breadth-first search over dict adjacency on a fixed random
graph, the shape of a connectivity probe.  It belongs to the benchmark, so
no change to the package moves it.  It tracks the package's speed across
host load far better than a plain arithmetic loop: on a 2-vCPU virtual
machine, over eight 25 s runs of ``circulant`` whose raw certify-time
medians spread by 25% (IQR/median), the arithmetic loop left 8.6% and
this kernel 2%.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import deque
from time import perf_counter

REFERENCE_RATE = 5000.0  # kernel passes per second
PASSES = 8  # about 1.5 ms per sample at the reference rate
MAX_AGE_S = 0.1
N_VERTICES = 512


def reference_graph() -> list[dict[int, int]]:
    """Random connected graph with 512 vertices and 1024 edges, as
    vertex -> {edge id: other endpoint}; always the same graph."""
    rng = random.Random(12345)
    adj: list[dict[int, int]] = [{} for _ in range(N_VERTICES)]
    edges = [(rng.randrange(v), v) for v in range(1, N_VERTICES)]
    while len(edges) < 2 * N_VERTICES:
        u, v = rng.randrange(N_VERTICES), rng.randrange(N_VERTICES)
        if u != v:
            edges.append((u, v))
    for eid, (u, v) in enumerate(edges):
        adj[u][eid] = v
        adj[v][eid] = u
    return adj


def kernel_rate(adj: list[dict[int, int]], passes: int = PASSES) -> float:
    t0 = perf_counter()
    for _ in range(passes):
        seen = bytearray(len(adj))
        seen[0] = 1
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for w in adj[x].values():
                if not seen[w]:
                    seen[w] = 1
                    queue.append(w)
    return passes / (perf_counter() - t0)


class SpeedLog:
    """Kernel-rate samples in time order."""

    def __init__(self):
        self._adj = reference_graph()
        self.times: list[float] = []
        self.rates: list[float] = []

    def sample(self) -> None:
        rate = kernel_rate(self._adj)
        self.times.append(perf_counter())
        self.rates.append(rate)

    def tick(self) -> None:
        """Sample unless the last sample is younger than ``MAX_AGE_S``."""
        if not self.times or perf_counter() - self.times[-1] > MAX_AGE_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor taking a wall time measured over [start, end] to the
        reference speed: the mean rate of the last sample before the
        interval and the first after it, over the reference rate."""
        before = max(bisect_right(self.times, start) - 1, 0)
        after = min(bisect_left(self.times, end), len(self.times) - 1)
        return (self.rates[before] + self.rates[after]) / 2 / REFERENCE_RATE
