"""Self-tests of the benchmark harness: input generators, the metric
declarations in BENCHMARK.json, and failure accounting."""

from __future__ import annotations

import json
import random
import re
import types
from pathlib import Path

import pytest

import maxgenus

import certify
import run
from speed import REFERENCE_RATE, SpeedLog
from workloads import WORKLOADS, Input, Workload, _random_graph, circulant_text

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _tiny(prefix: int) -> Workload:
    return Workload("tiny", lambda mg, rng, i: Input(certify.TINY, 6), prefix)


@pytest.mark.parametrize("n", [5, 6, 9, 64])
def test_circulant_text(n):
    g = maxgenus.parse_edge_list(circulant_text(n, random.Random(n)))
    assert g.n_vertices == n
    assert g.n_edges == 2 * n
    assert all(g.degree(v) == 4 for v in g.vertices())
    assert maxgenus.is_connected(g)
    assert not any(g.is_loop(e) for e in g.edge_ids())


def test_benchmark_json_declarations():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_declared_metric(trace):
    r = certify.Run(WORKLOADS["exact"], trace)
    for i in range(3):
        r.step(maxgenus, random.Random(i), i)
    assert r.failed == 0
    values = r.per_layer() if trace else dict(
        r.end_to_end(), setup_s=1.0, peak_rss_mb=1.0)
    block = run.metrics_block(SPEC, trace, values)
    kind = "per_layer" if trace else "end_to_end"
    assert list(block) == [m["name"] for m in SPEC[kind]]


def test_prefix_digest_and_counts_repeat():
    wl = Workload("small", _random_graph(20, 40), prefix=3)
    runs = []
    for _ in range(2):
        r = certify.Run(wl, trace=False)
        r.execute(maxgenus, random.Random(7), seconds=0)
        runs.append(r)
    assert runs[0].attempted == 3 and runs[0].failed == 0
    assert runs[0].digest == runs[1].digest
    assert runs[0].prefix == runs[1].prefix


def test_failed_check_is_counted_not_raised():
    wrong_genus = types.SimpleNamespace(**vars(maxgenus))
    wrong_genus.genus_of = lambda g, rot: -1
    r = certify.Run(_tiny(prefix=3), trace=False)
    r.execute(wrong_genus, random.Random(0), seconds=0)
    assert (r.attempted, r.failed) == (3, 3)
    assert r.details()["fail_rate"] == 1.0
    assert "CheckFailed" in r.failures[0]


def test_exception_is_counted_not_raised():
    broken = types.SimpleNamespace(**vars(maxgenus))

    def parse(text):
        raise RecursionError("deep")

    broken.parse_edge_list = parse
    r = certify.Run(_tiny(prefix=2), trace=True)
    r.execute(broken, random.Random(0), seconds=0)
    assert (r.attempted, r.failed) == (2, 2)
    assert r.end_to_end()["certify_edges_per_s"] == 0.0


def test_speed_scale_uses_the_samples_around_an_interval():
    log = SpeedLog()
    log.times, log.rates = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    assert log.scale(1.5, 2.5) == (1.0 + 4.0) / 2 / REFERENCE_RATE
    assert log.scale(0.5, 9.0) == (1.0 + 4.0) / 2 / REFERENCE_RATE
