"""The certify path shared by the CLI and the benchmark harness:
preprocess, run the greedy, merge the certificates, build a report."""

from __future__ import annotations

import time
from typing import NamedTuple

from .graph import CertificationError, MultiGraph
from .greedy import DEFAULT_POLICY, GenusBounds, PairSet, greedy_max_genus
from .preprocess import merge_pairs, reduce_multiedges
from .report import RunReport


class PipelineOutcome(NamedTuple):
    report: RunReport
    pairs: PairSet
    bounds: GenusBounds


def run_pipeline(
    g: MultiGraph,
    *,
    label: str = "input",
    policy: str = DEFAULT_POLICY,
    seed: int = 0,
    preprocess: bool = True,
) -> PipelineOutcome:
    """Preprocess, run the greedy, merge certificates, build a report.

    Bounds are stated for the input graph: the merged family is maximal
    on it, so ``gamma_max <= min(2k, floor(beta / 2))`` with k the merged
    family size.
    """
    t0 = time.perf_counter()
    if preprocess:
        pre = reduce_multiedges(g)
        work, pre_pairs = pre.reduced, pre.pairs
    else:
        work, pre_pairs = g, PairSet()
    res = greedy_max_genus(work, policy=policy, seed=seed)
    merged = merge_pairs(pre_pairs, res.pairs)
    elapsed = time.perf_counter() - t0

    st = res.stats
    be = res.backend_stats
    if be.queries != st.tests or st.tests > st.candidate_pairs:
        raise CertificationError(
            f"{be.queries} connectivity probes for {st.tests} tested pairs "
            f"of {st.candidate_pairs} candidates")
    stats = {**vars(st), **{f"backend_{k}": v for k, v in vars(be).items()}}

    beta = g.n_edges - g.n_vertices + 1
    bounds = GenusBounds.from_pairs(len(merged.pairs), beta)
    report = RunReport(
        label=label, n_vertices=g.n_vertices, n_edges=g.n_edges,
        cycle_rank=beta, policy=policy, seed=seed, preprocess=preprocess,
        lower=bounds.lower,
        upper=bounds.upper,
        pairs=[[e, f, w] for e, f, w in merged.pairs],
        preprocess_pairs=len(pre_pairs.pairs),
        elapsed_s=elapsed,
        stats=stats,
    )
    return PipelineOutcome(report, merged, bounds)
