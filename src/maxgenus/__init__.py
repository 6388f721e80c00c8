"""Maximum-genus estimation for connected multigraphs.

Greedy removal of disjoint adjacent edge pairs under a connectivity
constraint gives a lower bound k and the sandwich
``k <= gamma_max <= min(2k, floor(beta / 2))`` with ``beta`` the cycle
rank, so the greedy value is a 2-approximation.  Every claimed lower
bound can be certified by an explicit rotation-system embedding, and
small instances can be solved exactly by three independent oracles.
"""

from importlib import import_module

from .connectivity import BACKENDS, BackendStats, DfsBackend
from .embedding import (
    EmbeddingResult,
    EmbeddingState,
    RotationSystem,
    build_embedding,
    genus_of,
    trace_faces,
)
from .graph import (
    CertificationError,
    DisconnectedError,
    GraphError,
    LimitExceededError,
    MultiGraph,
    ParseError,
    cycle_rank,
    format_edge_list,
    is_cactus,
    is_connected,
    parse_edge_list,
)
from .greedy import (
    DEFAULT_POLICY,
    POLICIES,
    AdjacentPair,
    GenusBounds,
    GreedyResult,
    GreedyStats,
    PairSet,
    VerifyResult,
    greedy_max_genus,
    verify_pair_set,
)
from .pipeline import PipelineOutcome, run_pipeline
from .preprocess import PreprocessResult, merge_pairs, reduce_multiedges
from .report import SCHEMA_VERSION, RunReport

# Exports of the modules the certify path never runs, imported on first
# access (PEP 562) so that ``import maxgenus`` does not compile them.
_LAZY = {
    "bench": ("BenchConfig", "BenchSummary", "fit_loglog_slope",
              "format_summary", "run_bench", "summarize"),
    "dynamic": ("DynamicBackend",),
    "generators": ("FAMILIES", "gen_bouquet", "gen_circulant",
                   "gen_complete", "gen_dipole",
                   "gen_random_connected_multigraph", "gen_tight_star",
                   "generate"),
    "oracle": ("XuongCertificate", "bridge_bound", "exact_max_genus_pairs",
               "exact_max_genus_rotations", "nebesky_bound",
               "odd_components", "spanning_trees", "xuong_max_genus"),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            value = getattr(import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    # ``from maxgenus import oracle`` then imports the submodule
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AdjacentPair",
    "BACKENDS",
    "BackendStats",
    "BenchConfig",
    "BenchSummary",
    "CertificationError",
    "DEFAULT_POLICY",
    "DfsBackend",
    "DisconnectedError",
    "DynamicBackend",
    "EmbeddingResult",
    "EmbeddingState",
    "FAMILIES",
    "GenusBounds",
    "GraphError",
    "GreedyResult",
    "GreedyStats",
    "LimitExceededError",
    "MultiGraph",
    "POLICIES",
    "PairSet",
    "ParseError",
    "PipelineOutcome",
    "PreprocessResult",
    "RotationSystem",
    "RunReport",
    "SCHEMA_VERSION",
    "VerifyResult",
    "XuongCertificate",
    "bridge_bound",
    "build_embedding",
    "cycle_rank",
    "exact_max_genus_pairs",
    "exact_max_genus_rotations",
    "fit_loglog_slope",
    "format_edge_list",
    "format_summary",
    "gen_bouquet",
    "gen_circulant",
    "gen_complete",
    "gen_dipole",
    "gen_random_connected_multigraph",
    "gen_tight_star",
    "generate",
    "genus_of",
    "greedy_max_genus",
    "is_cactus",
    "is_connected",
    "merge_pairs",
    "nebesky_bound",
    "odd_components",
    "parse_edge_list",
    "reduce_multiedges",
    "run_bench",
    "run_pipeline",
    "spanning_trees",
    "summarize",
    "trace_faces",
    "verify_pair_set",
    "xuong_max_genus",
]
