"""JSON run reports for the CLI and the benchmark harness."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class RunReport:
    """One greedy run: the input's size, the run's options, bounds,
    certificate pairs, counters and wall time.

    ``pairs`` holds ``[e, f, witness]`` triples in removal order, the
    preprocessed ones first.  ``stats`` merges greedy counters with the
    backend's (prefixed ``backend_``).  ``embedding_genus`` is present
    only when an embedding was built for the certificate.  ``phase_s``
    holds the timed steps after the greedy (``bench``: embed, verify).
    """

    label: str
    n_vertices: int
    n_edges: int
    cycle_rank: int
    policy: str
    seed: int
    preprocess: bool
    lower: int
    upper: int
    pairs: list[list[int]]
    preprocess_pairs: int
    elapsed_s: float
    stats: dict[str, int] = field(default_factory=dict)
    embedding_genus: int | None = None
    phase_s: dict[str, float] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)
