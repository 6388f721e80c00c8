"""Command line interface.

Subcommands: ``greedy`` (2-approximation with certificate), ``exact``
(brute-force oracles), ``embed`` (build or verify a rotation-system
embedding), ``gen`` (graph generators), ``bench`` (scaling harness).
``greedy`` and ``embed`` run :func:`~maxgenus.pipeline.run_pipeline`;
``exact`` imports the oracles, ``gen`` the generators and ``bench`` the
harness only when they run, so the other subcommands start without them.

Exit codes: 0 success, 1 unreadable input or output, 2 invalid or
disconnected graph or invalid option value (also argparse usage errors,
generator probabilities outside [0, 1] and a generated graph with a
vertex of no edge), 3 edge-list or rotation parse error, or input that
is not UTF-8 (the message gives the byte offset), 4 exact-oracle
limit exceeded, 5 certification failure (the exact oracles disagree, or
a certificate check or a ``--check`` audit fails).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

from . import __version__
from .embedding import RotationSystem, build_embedding, surface_genus, trace_faces
from .graph import (
    DEFAULT_PAIRS_EDGE_LIMIT,
    DEFAULT_ROTATION_LIMIT,
    DEFAULT_TREE_LIMIT,
    CertificationError,
    DisconnectedError,
    GraphError,
    LimitExceededError,
    MultiGraph,
    ParseError,
    cut_scan,
    format_edge_list,
    is_connected,
    parse_edge_list,
)
from .greedy import DEFAULT_POLICY, POLICIES
from .pipeline import run_pipeline

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_LIMIT = 4
EXIT_CERT = 5


def _read_text(path: str | None) -> str:
    """The file at ``path`` (stdin for None or '-') as strict UTF-8;
    raises :class:`ParseError` at the first byte that is not."""
    if path is None or path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path or 'stdin'}: not UTF-8 at byte offset "
                         f"{exc.start}") from None


def _read_graph(path: str | None) -> MultiGraph:
    return parse_edge_list(_read_text(path))


def _limit(text: str) -> int:
    """An exact-oracle limit: a non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not an integer >= 0: {text!r}")
    return int(text)


def _add_graph_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", nargs="?", default=None, metavar="FILE",
                   help="edge-list file, '-' or absent for stdin")


def _add_greedy_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", choices=POLICIES, default=DEFAULT_POLICY)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--raw", action="store_true",
                   help="skip the parallel/loop preprocessing pass")


def cmd_greedy(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    out = run_pipeline(
        g, label=args.graph or "stdin", policy=args.policy,
        seed=args.seed, preprocess=not args.raw,
    )
    rep = out.report
    if args.embed or args.check:
        emb = build_embedding(g, out.pairs, check=args.check)
        rep = replace(rep, embedding_genus=emb.genus)
    if args.json:
        print(rep.to_json())
        return EXIT_OK
    print(f"n={rep.n_vertices} m={rep.n_edges} beta={rep.cycle_rank}")
    print(f"pairs: {rep.lower} ({rep.preprocess_pairs} preprocessed + "
          f"{rep.lower - rep.preprocess_pairs} greedy)")
    print(f"gamma_M in [{rep.lower}, {rep.upper}]")
    if rep.lower <= 20:
        for e, f, w in rep.pairs:
            print(f"  pair {e},{f} at {w}")
    else:
        print("  (certificate elided; use --json for the pair list)")
    if rep.embedding_genus is not None:
        print(f"embedding genus: {rep.embedding_genus}")
    return EXIT_OK


def cmd_exact(args: argparse.Namespace) -> int:
    from . import oracle

    g = _read_graph(args.graph)
    methods = (("pairs", "xuong", "rotations")
               if args.method == "all" else (args.method,))
    values: dict[str, int] = {}
    skipped: dict[str, str] = {}
    for name in methods:
        try:
            if name == "pairs":
                values[name] = oracle.exact_max_genus_pairs(
                    g, max_edges=args.max_edges)[0]
            elif name == "xuong":
                values[name] = oracle.xuong_max_genus(
                    g, limit=args.tree_limit)[0]
            else:
                values[name] = oracle.exact_max_genus_rotations(
                    g, limit=args.rotation_limit)
        except LimitExceededError as exc:
            if args.method != "all":
                raise
            skipped[name] = str(exc)
    for name in methods:
        if name in values:
            print(f"method={name} gamma_M={values[name]}")
        else:
            print(f"method={name} skipped: {skipped[name]}")
    bridges, _, odd, _ = cut_scan(g)  # g is connected: the oracles ran
    print(f"upper bound = {(g.n_edges - g.n_vertices + 1 - odd) // 2} "
          f"(bridges: {len(bridges)})")
    if not values:
        raise LimitExceededError("all exact methods exceeded their limits")
    distinct = set(values.values())
    if len(distinct) != 1:
        raise CertificationError(f"oracle disagreement: {values}")
    print(f"gamma_M = {distinct.pop()}")
    return EXIT_OK


def cmd_embed(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    if args.rotation is not None:
        rot = RotationSystem.from_text(_read_text(args.rotation))
        if not is_connected(g):
            raise DisconnectedError("genus needs a connected graph")
        sizes = sorted(map(len, trace_faces(g, rot)))
        print(f"genus={surface_genus(g, len(sizes))} faces={len(sizes)} "
              f"sizes={','.join(map(str, sizes))}")
        return EXIT_OK
    out = run_pipeline(
        g, label=args.graph or "stdin", policy=args.policy,
        seed=args.seed, preprocess=not args.raw,
    )
    emb = build_embedding(g, out.pairs, check=args.check)
    sys.stdout.write(emb.rotation.to_text())
    print(f"certified pairs={len(out.pairs)} genus={emb.genus} "
          f"faces={emb.n_faces}", file=sys.stderr)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    from .generators import generate

    text = format_edge_list(generate(
        args.family, n=args.n, m=args.m, k=args.k, seed=args.seed,
        loop_prob=args.loop_prob, parallel_prob=args.parallel_prob))
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (BenchConfig, format_summary, run_bench, summarize,
                        summary_json)

    cfg = BenchConfig.parse(_read_text(args.config))
    reports = run_bench(cfg)
    if args.json:
        payload = json.dumps([asdict(r) for r in reports], indent=2,
                             sort_keys=True)
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    summary = summarize(reports)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(summary_json(cfg, summary))
    print(format_summary(summary))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="maxgenus",
        description="2-approximate maximum genus of connected multigraphs "
                    "with certified embeddings and exact oracles.",
    )
    ap.add_argument("--version", action="version",
                    version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("greedy", help="greedy 2-approximation with bounds")
    _add_graph_arg(p)
    _add_greedy_opts(p)
    p.add_argument("--embed", action="store_true",
                   help="also build a certifying embedding")
    p.add_argument("--check", action="store_true",
                   help="audit embedding invariants at every step "
                        "(implies --embed; linear in the edge count)")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=cmd_greedy)

    p = sub.add_parser("exact", help="exact maximum genus (small graphs)")
    _add_graph_arg(p)
    p.add_argument("--method", choices=("pairs", "xuong", "rotations", "all"),
                   default="all")
    p.add_argument("--max-edges", type=_limit,
                   default=DEFAULT_PAIRS_EDGE_LIMIT,
                   help="edge limit for the pair search")
    p.add_argument("--tree-limit", type=_limit, default=DEFAULT_TREE_LIMIT,
                   help="spanning-tree enumeration limit")
    p.add_argument("--rotation-limit", type=_limit,
                   default=DEFAULT_ROTATION_LIMIT,
                   help="rotation-system enumeration limit")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser(
        "embed",
        help="emit a certifying rotation system, or verify one",
    )
    _add_graph_arg(p)
    _add_greedy_opts(p)
    p.add_argument("--rotation", metavar="FILE",
                   help="verify this rotation instead of building one")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("gen", help="generate an edge list")
    p.add_argument("--family", required=True,
                   help="generator family, checked when gen runs")
    p.add_argument("-n", type=int, default=None, help="size parameter n")
    p.add_argument("-m", type=int, default=None, help="edge count m")
    p.add_argument("-k", type=int, default=None, help="size parameter k")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loop-prob", type=float, default=0.15)
    p.add_argument("--parallel-prob", type=float, default=0.15)
    p.add_argument("-o", "--output", default=None, metavar="FILE")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run a benchmark config")
    p.add_argument("config", metavar="CONFIG")
    p.add_argument("--json", metavar="FILE",
                   help="also dump all reports as JSON")
    p.add_argument("--summary", metavar="FILE",
                   help="also write the config, rows and slopes as JSON")
    p.set_defaults(func=cmd_bench)
    return ap


# the first class an error is an instance of names its exit code
EXIT_CODES = ((ParseError, EXIT_PARSE), (LimitExceededError, EXIT_LIMIT),
              (CertificationError, EXIT_CERT), (GraphError, EXIT_INVALID),
              (OSError, EXIT_IO))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
