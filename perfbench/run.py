"""Certify-path benchmark for maxgenus.

    python3 perfbench/run.py --workload random --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, no worker pool.  The run imports the package
afresh a few times (set-up), then certifies seeded inputs of the named
workload for ``--seconds`` seconds, checking every output.

Set-up and certify times in the result are scaled to a reference
interpreter speed (see ``speed.py``); the details line also gives them as
wall time.

Standard output ends with two JSON lines.  The first holds the run's
details: environment, sample count and tail percentile, failures, and
the SHA-256 digest and operation counts of the leading inputs every run
of the seed completes.  The last is the result: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics of
BENCHMARK.json with ``--trace 0`` and its per-layer metrics with
``--trace 1``.  A traced run also writes its spans to
``.bench_out/spans-<workload>-s<seed>.json``.

Exit codes: 0 for a result (correct or not), 2 when the checkout has no
``src/maxgenus`` package or the warm-up certify fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import sys
from pathlib import Path

import certify
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Metrics a run may leave out: the dynamic backend's greedy time is
# reported only while that backend exists.
OPTIONAL_METRICS = {"greedy.dynamic_run_s"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Set up from the checkout's own sources, never from an installed copy."""
    if not (SRC / "maxgenus" / "__init__.py").is_file():
        raise RuntimeError(f"no maxgenus package under {SRC}")
    sys.path.insert(0, str(SRC))
    mg, setup_s, setup_wall_s = certify.setup()
    if not Path(mg.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {mg.__file__}, not the checkout's copy")
    return mg, setup_s, setup_wall_s


def metrics_block(spec: dict, trace: bool, values: dict[str, float]) -> dict:
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = {m["name"] for m in declared} - values.keys() - OPTIONAL_METRICS
    if missing:
        raise KeyError(f"run measured no value for {sorted(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in values}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        mg, setup_s, setup_wall_s = import_package()
    except Exception as exc:  # noqa: BLE001 - no result without a working set-up
        print(f"set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    run = certify.Run(wl, trace=bool(args.trace))
    run.execute(mg, random.Random(args.seed), args.seconds)

    if args.trace:
        values = run.per_layer()
        spans_path = ROOT / ".bench_out" / f"spans-{wl.name}-s{args.seed}.json"
        run.rec.write(spans_path)
    else:
        values = run.end_to_end()
        values["setup_s"] = setup_s
        # ru_maxrss is in KiB on Linux.
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        spans_path = None

    details = {
        "workload": wl.name, "params": wl.params, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "setup_s": setup_s, "setup_wall_s": setup_wall_s, **run.details(),
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics_block(spec, bool(args.trace), values),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
