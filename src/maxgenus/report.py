"""JSON run reports for the CLI and the benchmark harness."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class InstanceInfo:
    label: str
    n_vertices: int
    n_edges: int
    cycle_rank: int


@dataclass(frozen=True)
class RunConfig:
    backend: str  # always "dfs"; kept so schema-1 reports round-trip
    policy: str
    seed: int
    preprocess: bool


@dataclass(frozen=True)
class RunReport:
    """One greedy run: bounds, certificate pairs, counters, wall time.

    ``pairs`` holds ``[e, f, witness]`` triples in removal order, the
    preprocessed ones first.  ``stats`` merges greedy counters with the
    backend's (prefixed ``backend_``).  ``embedding_genus`` is present
    only when an embedding was built for the certificate.  ``phase_s``
    holds the timed steps after the greedy (``bench``: embed, verify).
    """

    instance: InstanceInfo
    config: RunConfig
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

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        raw = json.loads(text)
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported report schema {raw.get('schema_version')!r}"
            )
        return cls(
            instance=InstanceInfo(**raw["instance"]),
            config=RunConfig(**raw["config"]),
            lower=raw["lower"],
            upper=raw["upper"],
            pairs=[list(p) for p in raw["pairs"]],
            preprocess_pairs=raw["preprocess_pairs"],
            elapsed_s=raw["elapsed_s"],
            stats=dict(raw["stats"]),
            embedding_genus=raw.get("embedding_genus"),
            phase_s=dict(raw.get("phase_s", {})),
        )
