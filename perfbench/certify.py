"""One benchmark run of the certify path: operations, checks and metrics.

An operation takes one edge-list text through the path that
``maxgenus greedy --embed`` serves, then checks the result independently:
``parse_edge_list`` -> ``run_pipeline`` (dfs backend, edge-id policy,
preprocessing on) -> ``build_embedding`` -> ``genus_of`` on the emitted
rotation.  That path is what ``certify_s`` times.  The checks that follow
are not timed.  The pair family must pass ``verify_pair_set``.  The traced
genus must be at least k and equal the embedding's own.  The interval must
be ``[k, min(2k, floor(beta / 2))]``.  On a workload marked ``exact``, the
three exact oracles then decide the graph at their default limits.  They
must agree, and their value must lie in the interval and be at least the
embedding's genus.  An oracle that refuses with ``LimitExceededError`` is
counted as skipped, not as a failure.  Any other exception, and any failed
check, fails the operation; the run goes on.

With tracing on, every operation also runs the same public calls one by
one, each inside a span, and must reach the same pairs and counts.  Two
calls are made only for their measurements: a separate ``DfsBackend``
build on the reduced graph, and the greedy on the ``dynamic`` backend
while that backend exists.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from math import ceil
from statistics import median
from time import perf_counter

from spans import SpanRecorder
from speed import SpeedLog
from workloads import Workload

SETUP_REPS = 9
TINY = "a b\na c\na d\nb c\nb d\nc d\n"  # K4, for the warm-up certify

# Span names whose mean self time per operation is a per-layer metric.
LAYER_SPANS = (
    "graph.parse", "preprocess.reduce", "connectivity.build", "greedy.run",
    "greedy.dynamic_run", "embedding.build", "embedding.verify",
    "oracle.pairs", "oracle.xuong", "oracle.rotations",
)


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _span(rec: SpanRecorder | None, name: str, op: int):
    return rec.span(name, op) if rec is not None else nullcontext()


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


@dataclass
class Certified:
    g: object
    pairs: object
    bounds: object
    emb: object
    genus: int
    counts: dict[str, int]


def _counts(stats: dict, preprocess_pairs: int) -> dict[str, int]:
    return {
        "preprocess.pairs": preprocess_pairs,
        "greedy.tests": stats["tests"],
        "greedy.candidate_pairs": stats["candidate_pairs"],
        "greedy.final_pass_tests": stats["final_pass_tests"],
        "greedy.removed": stats["removed"],
        "connectivity.queries": stats["backend_queries"],
        "connectivity.deletes": stats["backend_deletes"],
        "connectivity.inserts": stats["backend_inserts"],
    }


def certify(mg, text: str) -> Certified:
    """The untraced certify path, as the CLI runs it."""
    g = mg.parse_edge_list(text)
    out = mg.run_pipeline(g)
    emb = mg.build_embedding(g, out.pairs)
    genus = mg.genus_of(g, emb.rotation)
    return Certified(g, out.pairs, out.bounds, emb, genus,
                     _counts(out.report.stats, out.report.preprocess_pairs))


def certify_traced(mg, text: str, rec: SpanRecorder, op: int) -> Certified:
    """The same calls as ``run_pipeline`` plus the embedding, one span each."""
    with rec.span("certify", op):
        with rec.span("graph.parse", op):
            g = mg.parse_edge_list(text)
        with rec.span("preprocess.reduce", op):
            pre = mg.reduce_multiedges(g)
        with rec.span("greedy.run", op):
            res = mg.greedy_max_genus(pre.reduced)
        pairs = mg.merge_pairs(pre.pairs, res.pairs)
        with rec.span("embedding.build", op):
            emb = mg.build_embedding(g, pairs)
        with rec.span("embedding.verify", op):
            genus = mg.genus_of(g, emb.rotation)
    with rec.span("extra", op):
        with rec.span("connectivity.build", op):
            mg.DfsBackend(pre.reduced)
        if "dynamic" in mg.BACKENDS:
            with rec.span("greedy.dynamic_run", op):
                mg.greedy_max_genus(pre.reduced, backend="dynamic")
    stats = asdict(res.stats)
    stats.update({f"backend_{k}": v
                  for k, v in asdict(res.backend_stats).items()})
    beta = g.n_edges - g.n_vertices + 1
    bounds = mg.GenusBounds.from_pairs(len(pairs), beta)
    return Certified(g, pairs, bounds, emb, genus,
                     _counts(stats, len(pre.pairs)))


def check_certified(mg, c: Certified) -> None:
    verdict = mg.verify_pair_set(c.g, c.pairs)
    _require(verdict.ok, f"verify_pair_set: {verdict.reason}")
    k = len(c.pairs)
    beta = c.g.n_edges - c.g.n_vertices + 1
    _require((c.bounds.lower, c.bounds.upper) == (k, min(2 * k, beta // 2)),
             f"interval [{c.bounds.lower}, {c.bounds.upper}] for k={k}")
    _require(c.genus == c.emb.genus,
             f"traced genus {c.genus} != embedding genus {c.emb.genus}")
    _require(c.genus >= k, f"traced genus {c.genus} < k={k}")


def decide_exactly(mg, c: Certified, rec: SpanRecorder | None,
                   op: int) -> tuple[int, list[str]]:
    """gamma_M from every oracle that accepts the graph, cross-checked."""
    calls = {
        "pairs": lambda g: mg.exact_max_genus_pairs(g)[0],
        "xuong": lambda g: mg.xuong_max_genus(g)[0],
        "rotations": mg.exact_max_genus_rotations,
    }
    values: dict[str, int] = {}
    skipped: list[str] = []
    with _span(rec, "oracle", op):
        for name, call in calls.items():
            try:
                with _span(rec, f"oracle.{name}", op):
                    values[name] = call(c.g)
            except mg.LimitExceededError:
                skipped.append(name)
    _require(bool(values), "every exact oracle refused")
    _require(len(set(values.values())) == 1, f"oracles disagree: {values}")
    gamma = next(iter(values.values()))
    _require(c.bounds.lower <= gamma <= c.bounds.upper,
             f"gamma_M={gamma} outside [{c.bounds.lower}, {c.bounds.upper}]")
    _require(c.genus <= gamma, f"genus {c.genus} above gamma_M={gamma}")
    return gamma, skipped


@dataclass
class OpResult:
    stamps: tuple[float, float, float]  # start, certify done, checks done
    pairs: list[tuple[int, int, int]]
    tally: Counter  # integer quantities summed over operations


def run_operation(mg, wl: Workload, text: str, n_edges: int, op: int,
                  rec: SpanRecorder | None) -> OpResult:
    t0 = perf_counter()
    c = certify(mg, text)
    t1 = perf_counter()
    check_certified(mg, c)
    tally = Counter(c.counts)
    if wl.exact:
        gamma, skipped = decide_exactly(mg, c, rec, op)
        tally.update(gamma=gamma, oracle_refusals=len(skipped),
                     rotations_skipped=int("rotations" in skipped))
    t2 = perf_counter()
    if rec is not None:
        traced = certify_traced(mg, text, rec, op)
        _require(traced.pairs.pairs == c.pairs.pairs,
                 "traced calls gave other pairs")
        _require(traced.counts == c.counts, "traced calls gave other counts")
    k = len(c.pairs)
    tally.update(edges=n_edges, k=k, upper=c.bounds.upper,
                 genus_slack=c.genus - k)
    return OpResult((t0, t1, t2),
                    [(p.e, p.f, p.witness) for p in c.pairs], tally)


def setup(reps: int = SETUP_REPS):
    """Import the package afresh ``reps`` times, each followed by a warm-up
    certify.  Returns the last module and the median time of one round, at
    the reference speed and as wall time."""
    speed = SpeedLog()
    scaled, wall = [], []
    mg = None
    for _ in range(reps):
        for name in [n for n in sys.modules
                     if n == "maxgenus" or n.startswith("maxgenus.")]:
            del sys.modules[name]
        speed.sample()
        t0 = perf_counter()
        mg = importlib.import_module("maxgenus")
        check_certified(mg, certify(mg, TINY))
        t1 = perf_counter()
        speed.sample()
        wall.append(t1 - t0)
        scaled.append(wall[-1] * speed.scale(t0, t1))
    return mg, median(scaled), median(wall)


def tail_percentile(values: list[float]) -> dict | None:
    """The highest of a few standard percentiles with at least ten samples
    beyond it, by nearest rank."""
    xs = sorted(values)
    n = len(xs)
    for p in (99.9, 99, 95, 90, 75, 50):
        idx = ceil(p / 100 * n) - 1
        if n - 1 - idx >= 10:
            return {"percentile": p, "value": xs[idx]}
    return None


class Run:
    """Accumulates the operations of one run and derives its metrics."""

    def __init__(self, wl: Workload, trace: bool):
        self.wl = wl
        self.rec = SpanRecorder() if trace else None
        self.attempted = 0
        self.failures: list[str] = []
        self.speed = SpeedLog()
        self.stamps: list[tuple[float, float, float]] = []
        self.total: Counter = Counter()   # over every operation
        self.prefix: Counter = Counter()  # over the first wl.prefix only
        self._digest = hashlib.sha256()

    def execute(self, mg, rng, seconds: float) -> None:
        deadline = perf_counter() + seconds
        i = 0
        while i < self.wl.prefix or perf_counter() < deadline:
            self.step(mg, rng, i)
            i += 1
        self.speed.sample()

    def step(self, mg, rng, i: int) -> None:
        self.attempted += 1
        in_prefix = i < self.wl.prefix
        try:
            inp = self.wl.make(mg, rng, i)
            self.speed.tick()
            res = run_operation(mg, self.wl, inp.text, inp.n_edges, i,
                                self.rec)
            self.speed.tick()
        except Exception as exc:  # noqa: BLE001 - a failure is counted, never raised
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            if in_prefix:
                self._digest.update(f"{i} failed\n".encode())
            return
        self.stamps.append(res.stamps)
        self.total.update(res.tally)
        if in_prefix:
            self.prefix.update(res.tally)
            pairs = ";".join(f"{e},{f},{w}" for e, f, w in res.pairs)
            self._digest.update(f"{i} {pairs}\n".encode())

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def certify_times(self, scaled: bool = True) -> list[float]:
        """Certify time per operation, at the reference speed or as wall
        time."""
        return [(t1 - t0) * (self.speed.scale(t0, t1) if scaled else 1.0)
                for t0, t1, _ in self.stamps]

    def op_time(self, scaled: bool = True) -> float:
        """Summed time of whole operations: certify, checks and oracles."""
        return sum((t2 - t0) * (self.speed.scale(t0, t2) if scaled else 1.0)
                   for t0, _, t2 in self.stamps)

    def end_to_end(self, scaled: bool = True) -> dict[str, float]:
        """Every end-to-end metric except set-up time and memory."""
        times = self.certify_times(scaled)
        return {
            "certify_edges_per_s": _ratio(self.total["edges"], sum(times)),
            "certify_s_p50": median(times) if times else 0.0,
            "graphs_per_s": _ratio(len(times), self.op_time(scaled)),
            "k_over_upper": _ratio(self.prefix["k"], self.prefix["upper"]),
        }

    def per_layer(self) -> dict[str, float]:
        rec = self.rec
        self_s = rec.self_times()
        out = {f"{name}_s": _ratio(self_s.get(name, 0.0), len(self.stamps))
               for name in LAYER_SPANS}
        if "greedy.dynamic_run" not in self_s:
            del out["greedy.dynamic_run_s"]
        pc = self.prefix
        for key in ("preprocess.pairs", "greedy.tests",
                    "greedy.candidate_pairs", "greedy.final_pass_tests",
                    "connectivity.queries", "connectivity.deletes",
                    "connectivity.inserts"):
            out[key] = pc[key]
        out.update({
            "preprocess.edge_share": _ratio(2 * pc["preprocess.pairs"],
                                            pc["edges"]),
            "connectivity.probe_success": _ratio(pc["greedy.removed"],
                                                 pc["greedy.tests"]),
            "greedy.probe_us": 1e6 * _ratio(rec.total("greedy.run"),
                                            self.total["greedy.tests"]),
            "embedding.us_per_pair": 1e6 * _ratio(rec.total("embedding.build"),
                                                  self.total["k"]),
            "embedding.genus_slack": pc["genus_slack"],
            "oracle.rotations_skipped": pc["rotations_skipped"],
            "oracle.k_over_gamma": _ratio(pc["k"], pc["gamma"]),
            "trace.overhead_frac": _ratio(
                rec.total("certify"), sum(self.certify_times(False))) - 1,
        })
        return out

    def layer_shares(self) -> dict[str, float]:
        """Each layer's self time as a share of the traced certify time,
        and the oracles' share of certify plus oracles."""
        rec = self.rec
        self_s = rec.self_times()
        certify_s = rec.total("certify")
        shares = {name: _ratio(self_s.get(name, 0.0), certify_s)
                  for name in ("graph.parse", "preprocess.reduce",
                               "greedy.run", "embedding.build",
                               "embedding.verify")}
        oracle_s = rec.total("oracle")
        shares["oracle"] = _ratio(oracle_s, oracle_s + certify_s)
        return shares

    def details(self) -> dict:
        times = self.certify_times()
        wall = self.end_to_end(scaled=False)
        out = {
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_rate": _ratio(self.failed, self.attempted),
            "failures": self.failures[:5],
            "samples": len(times),
            "certify_s": {"p50": median(times) if times else None,
                          "tail": tail_percentile(times)},
            "wall": {k: v for k, v in wall.items() if k != "k_over_upper"},
            "kernel_rate_p50": (median(self.speed.rates)
                                if self.speed.rates else None),
            "prefix": {"ops": self.wl.prefix, "digest": self.digest,
                       "counts": dict(sorted(self.prefix.items()))},
        }
        if self.rec is not None:
            out["layer_shares"] = self.layer_shares()
        return out
