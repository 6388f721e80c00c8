"""Benchmark harness: generate, run the certify pipeline of
:mod:`.pipeline`, fit scaling slopes.

A benchmark config is a ``key = value`` text file (``#`` comments) such
as ``scripts/bench_example.conf``; ``sizes`` are generator size
parameters (random: n, with m = round(edge_factor * n); an
``edge_factor`` below 1 is refused, and so is a size whose graph
:func:`~maxgenus.generators.check_size` refuses, before the first cell).

Every (size, seed, policy) combination becomes one cell; the cells run
in turn, in one process, each :data:`REPEATS` times, and time the
pipeline, ``build_embedding`` (embed) and ``genus_of`` (verify) as the
minimum over the repeats.  Rows are means over the seeds;
slopes are least-squares log-log fits against the edge count.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace

from .embedding import build_embedding, genus_of
from .generators import FAMILIES, check_probabilities, check_size, generate
from .graph import CertificationError, GraphError, MultiGraph
from .greedy import DEFAULT_POLICY, check_policy
from .pipeline import run_pipeline
from .report import RunReport


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchConfig:
    family: str = "random"
    sizes: tuple[int, ...] = (64, 128, 256)
    edge_factor: float = 2.0
    seeds: tuple[int, ...] = (0,)
    policies: tuple[str, ...] = (DEFAULT_POLICY,)
    preprocess: bool = True
    loop_prob: float = 0.15
    parallel_prob: float = 0.15

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise GraphError(f"unknown family {self.family!r}")
        if not self.sizes:
            raise GraphError("sizes must be non-empty")
        for policy in self.policies:
            check_policy(policy)
        if not 1 <= self.edge_factor < math.inf:
            raise GraphError(f"edge_factor must be finite and at least 1, "
                             f"got {self.edge_factor}")
        check_probabilities(self.loop_prob, self.parallel_prob)
        for size in self.sizes:
            try:
                m = round(self.edge_factor * size)
            except OverflowError:
                raise GraphError(f"size {size} is too large for an edge "
                                 f"count") from None
            check_size(self.family, size, m)

    @classmethod
    def parse(cls, text: str) -> "BenchConfig":
        fields = {
            "family": str,
            "sizes": "ints",
            "edge_factor": float,
            "seeds": "ints",
            "policies": "strs",
            "preprocess": "bool",
            "loop_prob": float,
            "parallel_prob": float,
        }
        out: dict = {}
        for no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or key not in fields:
                raise GraphError(f"config line {no}: unknown entry {raw!r}")
            if key in out:
                raise GraphError(f"config line {no}: {key} repeated")
            kind = fields[key]
            if kind == "bool":
                if value not in ("true", "false"):
                    raise GraphError(f"config line {no}: expected true/false")
                out[key] = value == "true"
                continue
            try:
                if kind == "ints":
                    out[key] = tuple(int(t) for t in value.split(","))
                elif kind == "strs":
                    out[key] = tuple(t.strip() for t in value.split(","))
                else:
                    out[key] = kind(value)
            except ValueError:
                raise GraphError(f"config line {no}: bad value {value!r} "
                                 f"for {key}") from None
        return cls(**out)


# runs per cell; a cell's times are the minimum over its runs, since one
# run swings with machine noise far more than a fitted slope can absorb
REPEATS = 3


def _run_cell(g: MultiGraph, label: str, policy: str, seed: int,
              preprocess: bool) -> RunReport:
    out = run_pipeline(g, label=label, policy=policy, seed=seed,
                       preprocess=preprocess)
    t0 = time.perf_counter()
    emb = build_embedding(g, out.pairs)
    t1 = time.perf_counter()
    genus = genus_of(g, emb.rotation)
    t2 = time.perf_counter()
    if genus != emb.genus:
        raise CertificationError(f"{label}: traced genus "
                                 f"{genus} != {emb.genus}")
    return replace(out.report, embedding_genus=genus,
                   phase_s={"embed": t1 - t0, "verify": t2 - t1})


def run_bench(cfg: BenchConfig) -> list[RunReport]:
    """Run every cell of the grid :data:`REPEATS` times in turn, sizes
    outermost, then seeds, then policies, and report each cell's minimum
    times; a traced genus off the embedding's, or a repeat with other
    pairs or another genus, is a :class:`CertificationError`."""
    reports = []
    size_name = FAMILIES[cfg.family][1]
    for size in cfg.sizes:
        m = round(cfg.edge_factor * size) if cfg.family == "random" else None
        for seed in cfg.seeds:
            g = generate(cfg.family, m=m, seed=seed, loop_prob=cfg.loop_prob,
                         parallel_prob=cfg.parallel_prob, **{size_name: size})
            label = f"{cfg.family}-{size}-s{seed}"
            for policy in cfg.policies:
                runs = [_run_cell(g, label, policy, seed, cfg.preprocess)
                        for _ in range(REPEATS)]
                first = runs[0]
                if any(r.pairs != first.pairs
                       or r.embedding_genus != first.embedding_genus
                       for r in runs):
                    raise CertificationError(f"{label}: a repeat gave other "
                                             "pairs or another genus")
                reports.append(replace(
                    first, elapsed_s=min(r.elapsed_s for r in runs),
                    phase_s={k: min(r.phase_s[k] for r in runs)
                             for k in first.phase_s}))
    return reports


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def fit_loglog_slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log(y) against log(x), or None when some y
    is not positive (a count that stayed 0 has no slope).

    Needs at least two distinct x values, all positive.
    """
    if any(x <= 0 for x, _ in points):
        raise GraphError("slope fit needs positive sizes")
    if len({x for x, _ in points}) < 2:
        raise GraphError("slope fit needs at least two distinct sizes")
    if any(y <= 0 for _, y in points):
        return None
    lx = [math.log(x) for x, _ in points]
    ly = [math.log(y) for _, y in points]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


# summary column -> decimals printed; counts, then times in s (us per pair)
COLUMNS = {"n": 0, "m": 0, "k": 0, "genus": 0, "tree_pairs": 0, "tests": 0,
           "core_bridges": 0, "elapsed_s": 4, "embed_s": 4,
           "us_per_pair": 1, "verify_s": 4}
SLOPE_COLUMNS = ("elapsed_s", "tests", "embed_s", "verify_s")


def _cell(r: RunReport) -> dict[str, float]:
    embed, k = r.phase_s["embed"], r.lower
    return {"n": r.n_vertices, "m": r.n_edges, "k": k,
            "genus": r.embedding_genus, "elapsed_s": r.elapsed_s,
            **{c: r.stats[c] for c in ("tree_pairs", "tests", "core_bridges")},
            "embed_s": embed, "us_per_pair": 1e6 * embed / max(1, k),
            "verify_s": r.phase_s["verify"]}


@dataclass(frozen=True)
class BenchSummary:
    """Per policy: rows sorted by m, each the means of :data:`COLUMNS`
    over the seeds of one size, plus log-log slopes of
    :data:`SLOPE_COLUMNS` against m over the rows with m >= 1."""

    rows: dict[str, list[dict[str, float]]]
    slopes: dict[str, dict[str, float | None]]


def summarize(reports: list[RunReport]) -> BenchSummary:
    groups: dict[str, dict[tuple[int, int], list[dict[str, float]]]] = {}
    for r in reports:
        size_key = (r.n_vertices, r.n_edges)
        groups.setdefault(r.policy, {}).setdefault(
            size_key, []).append(_cell(r))
    rows: dict[str, list[dict[str, float]]] = {}
    slopes: dict[str, dict[str, float | None]] = {}
    for policy, by_size in groups.items():
        rows[policy] = table = [
            {c: sum(cell[c] for cell in cells) / len(cells) for c in COLUMNS}
            for _, cells in sorted(by_size.items(), key=lambda kv: kv[0][1])]
        fitted = [row for row in table if row["m"] >= 1]
        if len({row["m"] for row in fitted}) >= 2:
            slopes[policy] = {c: fit_loglog_slope(
                [(row["m"], row[c]) for row in fitted]) for c in SLOPE_COLUMNS}
    return BenchSummary(rows, slopes)


def summary_json(cfg: BenchConfig, summary: BenchSummary) -> str:
    """The config, the rows and the slopes as JSON text, nothing else, so
    two runs differ only in their numbers; every number is rounded to 6
    decimals."""

    def rounded(value):
        return value if value is None else round(value, 6)

    return json.dumps({
        "config": asdict(cfg),
        "rows": {policy: [{c: rounded(v) for c, v in row.items()}
                          for row in rows]
                 for policy, rows in sorted(summary.rows.items())},
        "slopes": {policy: {c: rounded(v) for c, v in slopes.items()}
                   for policy, slopes in sorted(summary.slopes.items())},
    }, indent=2) + "\n"


def format_summary(summary: BenchSummary) -> str:
    lines = []
    for policy in sorted(summary.rows):
        lines.append(f"policy={policy}")
        lines.append("  " + " ".join(f"{c:>{max(8, len(c))}}"
                                     for c in COLUMNS))
        for row in summary.rows[policy]:
            lines.append("  " + " ".join(f"{row[c]:>{max(8, len(c))}.{d}f}"
                                         for c, d in COLUMNS.items()))
        if policy in summary.slopes:
            lines.append("  " + " ".join(
                f"slope({c.removesuffix('_s')}~m)="
                + ("n/a" if v is None else f"{v:.2f}")
                for c, v in summary.slopes[policy].items()))
    return "\n".join(lines)
