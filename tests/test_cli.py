"""End-to-end command line checks, run through subprocesses."""

import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from maxgenus import (
    POLICIES,
    AdjacentPair,
    BackendStats,
    GraphError,
    GreedyStats,
    gen_tight_star,
    parse_edge_list,
    verify_pair_set,
)
from maxgenus import BenchConfig, RotationSystem, bench, cli, oracle
from maxgenus.generators import FAMILIES
from maxgenus.graph import format_dart

CLI = [sys.executable, "-m", "maxgenus.cli"]
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# the child imports the same package copy as this process
SRC = str(Path(cli.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(*argv, stdin=None, check=True):
    proc = subprocess.run(
        CLI + list(argv), input=stdin, capture_output=True, text=True,
        env=ENV,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli {argv} failed rc={proc.returncode}\n{proc.stderr}")
    return proc


K4_TEXT = "a b\na c\na d\nb c\nb d\nc d\n"

# the flat schema-2 report: a key added, dropped or nested again fails
# the layout checks, and ``stats`` holds exactly the greedy's and the
# backend's counters
SCHEMA_2_KEYS = {"label", "n_vertices", "n_edges", "cycle_rank", "policy",
                 "seed", "preprocess", "lower", "upper", "pairs",
                 "preprocess_pairs", "elapsed_s", "stats", "embedding_genus",
                 "phase_s", "schema_version"}
SCHEMA_2_STATS = {f.name for f in fields(GreedyStats)} | {
    f"backend_{f.name}" for f in fields(BackendStats)}


class TestGreedy:
    def test_gen_pipe(self):
        gen = run_cli("gen", "--family", "tight-star", "-n", "2")
        proc = run_cli("greedy", "--policy", "loops-first", stdin=gen.stdout)
        assert "gamma_M in [4, 4]" in proc.stdout
        assert "pairs: 4" in proc.stdout

    def test_json_report_round_trip(self):
        proc = run_cli("greedy", "--json", "--policy", "loops-first",
                       stdin=K4_TEXT)
        rep = json.loads(proc.stdout)
        assert rep["schema_version"] == 2
        assert rep["lower"] == 1
        assert rep["upper"] == 1  # beta = 3 caps the sandwich at floor(3/2)
        assert rep["policy"] == "loops-first"
        g = parse_edge_list(K4_TEXT)
        pairs = [AdjacentPair(e, f, w) for e, f, w in rep["pairs"]]
        assert verify_pair_set(g, pairs).ok

    def test_json_report_has_the_schema_2_layout(self):
        rep = json.loads(run_cli("greedy", "--json", stdin=K4_TEXT).stdout)
        assert set(rep) == SCHEMA_2_KEYS
        assert set(rep["stats"]) == SCHEMA_2_STATS

    def test_embed_flag_adds_genus(self):
        proc = run_cli("greedy", "--embed", "--check", "--json",
                       stdin=K4_TEXT)
        rep = json.loads(proc.stdout)
        assert rep["schema_version"] == 2
        assert rep["embedding_genus"] == 1

    def test_check_implies_embed(self):
        proc = run_cli("greedy", "--check", stdin=K4_TEXT)
        assert "embedding genus: 1" in proc.stdout

    def test_raw_skips_preprocessing(self):
        text = "a b\na b\na b\na b\n"
        cooked = json.loads(run_cli("greedy", "--json", stdin=text).stdout)
        raw = json.loads(
            run_cli("greedy", "--json", "--raw", stdin=text).stdout)
        assert cooked["schema_version"] == raw["schema_version"] == 2
        assert cooked["preprocess_pairs"] == 1
        assert raw["preprocess_pairs"] == 0
        assert cooked["lower"] == raw["lower"] == 1


class TestExact:
    def test_all_methods_agree(self):
        proc = run_cli("exact", stdin=K4_TEXT)
        assert "method=pairs gamma_M=1" in proc.stdout
        assert "method=xuong gamma_M=1" in proc.stdout
        assert "method=rotations gamma_M=1" in proc.stdout
        assert "gamma_M = 1" in proc.stdout

    def test_upper_bound_line(self):
        # two K4s joined by a bridge: floor(beta/2) = 3, the bound is 2
        text = (K4_TEXT + K4_TEXT.translate(str.maketrans("abcd", "efgh"))
                + "d e\n")
        proc = run_cli("exact", stdin=text)
        lines = proc.stdout.splitlines()
        assert lines[-2:] == ["upper bound = 2 (bridges: 1)", "gamma_M = 2"]
        # every oracle skipped: the bound is still printed, exit 4 stays
        proc = run_cli("exact", "--max-edges", "0", "--tree-limit", "0",
                       "--rotation-limit", "0", stdin=text, check=False)
        assert proc.returncode == 4
        assert proc.stdout.splitlines()[-1] == \
            "upper bound = 2 (bridges: 1)"

    def test_all_mode_survives_one_limit(self):
        # 8 loops at one vertex: 15! rotations is out of reach
        gen = run_cli("gen", "--family", "bouquet", "-k", "8")
        proc = run_cli("exact", "--rotation-limit", "100", stdin=gen.stdout)
        assert "method=rotations skipped:" in proc.stdout
        assert "gamma_M = 4" in proc.stdout

    def test_single_method_limit_is_fatal(self):
        gen = run_cli("gen", "--family", "bouquet", "-k", "8")
        proc = run_cli("exact", "--method", "rotations",
                       "--rotation-limit", "100", stdin=gen.stdout,
                       check=False)
        assert proc.returncode == 4

    def test_pairs_edge_limit(self):
        gen = run_cli("gen", "--family", "random", "-n", "6", "-m", "12")
        proc = run_cli("exact", "--method", "pairs", "--max-edges", "4",
                       stdin=gen.stdout, check=False)
        assert proc.returncode == 4

    @pytest.mark.parametrize("flag", ["--max-edges", "--tree-limit",
                                      "--rotation-limit"])
    def test_negative_limit_is_an_invalid_option(self, flag):
        # a negative limit is a bad option value, not an exceeded limit
        proc = run_cli("exact", flag, "-1", stdin=K4_TEXT, check=False)
        assert proc.returncode == 2
        assert f"argument {flag}: not an integer >= 0: '-1'" \
            in proc.stderr
        assert not proc.stdout

    @pytest.mark.parametrize("method", ["xuong", "all"])
    def test_tree_oracle_refuses_before_it_searches(self, method):
        # listing trees up to the default limit on this graph took minutes
        gen = run_cli("gen", "--family", "random", "-n", "512", "-m", "1024",
                      "--seed", "1")
        start = time.perf_counter()
        proc = subprocess.run(CLI + ["exact", "--method", method],
                              input=gen.stdout, capture_output=True,
                              text=True, env=ENV, timeout=1)
        assert time.perf_counter() - start < 1
        assert proc.returncode == 4
        assert "spanning-tree count bound exceeds limit 100000" in (
            proc.stdout + proc.stderr)

    def test_long_cycle(self):
        # the tree oracle decides one edge per search level: 3000 levels
        text = "".join(f"{v} {(v + 1) % 3000}\n" for v in range(3000))
        proc = run_cli("exact", stdin=text, check=False)
        assert proc.returncode == 0
        assert "gamma_M = 0" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_limit_defaults_are_the_oracles_own(self):
        args = cli.build_parser().parse_args(["exact"])
        assert (args.max_edges, args.tree_limit, args.rotation_limit) == (
            oracle.DEFAULT_PAIRS_EDGE_LIMIT, oracle.DEFAULT_TREE_LIMIT,
            oracle.DEFAULT_ROTATION_LIMIT)

    def test_oracle_disagreement(self, tmp_path, monkeypatch, capsys):
        graph_file = tmp_path / "k4.edges"
        graph_file.write_text(K4_TEXT)
        monkeypatch.setattr(oracle, "exact_max_genus_rotations",
                            lambda g, limit: 0)
        assert cli.main(["exact", str(graph_file)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: oracle disagreement")
        assert "Traceback" not in err


class TestEmbed:
    def test_build_then_verify(self, tmp_path):
        graph_file = tmp_path / "g.edges"
        graph_file.write_text(K4_TEXT)
        built = run_cli("embed", "--check", str(graph_file))
        assert "certified pairs=1 genus=1" in built.stderr
        rot_file = tmp_path / "g.rot"
        rot_file.write_text(built.stdout)
        verified = run_cli("embed", str(graph_file), "--rotation",
                           str(rot_file))
        assert "genus=1" in verified.stdout
        assert "faces=2" in verified.stdout

    def test_verify_rejects_garbage_rotation(self, tmp_path):
        graph_file = tmp_path / "g.edges"
        graph_file.write_text(K4_TEXT)
        rot_file = tmp_path / "bad.rot"
        rot_file.write_text("0: 0.0\n")
        proc = run_cli("embed", str(graph_file), "--rotation",
                       str(rot_file), check=False)
        assert proc.returncode == 2

    def test_rotation_is_validated_once(self, tmp_path, monkeypatch, capsys):
        graph_file, rot_file = tmp_path / "g.edges", tmp_path / "g.rot"
        graph_file.write_text(K4_TEXT)
        assert cli.main(["embed", str(graph_file)]) == 0
        rot_file.write_text(capsys.readouterr().out)
        calls, validate = [], RotationSystem.validate
        monkeypatch.setattr(RotationSystem, "validate",
                            lambda rot, g: calls.append(g) or validate(rot, g))
        cli.main(["embed", str(graph_file), "--rotation", str(rot_file)])
        assert (len(calls), capsys.readouterr().out) == (
            1, "genus=1 faces=2 sizes=4,8\n")

    def test_unparsable_rotation_is_a_parse_error(self, tmp_path):
        graph_file = tmp_path / "g.edges"
        graph_file.write_text(K4_TEXT)
        rot_file = tmp_path / "bad.rot"
        rot_file.write_text("garbage\n")
        proc = run_cli("embed", str(graph_file), "--rotation",
                       str(rot_file), check=False)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: line 1:")


class TestGen:
    def test_output_file(self, tmp_path):
        out = tmp_path / "fam.edges"
        run_cli("gen", "--family", "tight-star", "-n", "3", "-o", str(out))
        g = parse_edge_list(out.read_text())
        assert g == gen_tight_star(3)

    def test_deterministic_random(self):
        a = run_cli("gen", "--family", "random", "-n", "7", "-m", "12",
                    "--seed", "9").stdout
        b = run_cli("gen", "--family", "random", "-n", "7", "-m", "12",
                    "--seed", "9").stdout
        assert a == b

    def test_missing_parameter(self):
        proc = run_cli("gen", "--family", "bouquet", check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize("params, message", [
        (["complete", "-n", "4", "-m", "100"],
         "error: family 'complete' takes parameter n, not m\n"),
        (["bouquet", "-n", "5", "-k", "3"],
         "error: family 'bouquet' takes parameter k, not n\n"),
    ], ids=["complete-m", "bouquet-n"])
    def test_parameter_the_family_does_not_take(self, params, message):
        proc = run_cli("gen", "--family", *params, check=False)
        assert proc.returncode == 2
        assert proc.stderr == message
        assert proc.stdout == ""

    @pytest.mark.parametrize("params", [
        ["--family", "bouquet", "-k", "0"],
        ["--family", "complete", "-n", "1"],
        ["--family", "random", "-n", "1", "-m", "0"],
    ], ids=["bouquet", "complete", "random"])
    def test_edgeless_graph_rejected(self, tmp_path, params):
        # the text format cannot carry a vertex with no edge
        proc = run_cli("gen", *params, check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert proc.stdout == ""
        out = tmp_path / "fam.edges"
        proc = run_cli("gen", *params, "-o", str(out), check=False)
        assert proc.returncode == 2
        assert not out.exists()

    def test_probability_out_of_range(self):
        proc = run_cli("gen", "--family", "random", "-n", "4", "-m", "4",
                       "--loop-prob", "2", check=False)
        assert proc.returncode == 2
        assert "loop_prob" in proc.stderr
        assert proc.stdout == ""


    def test_oversized_graph_exits_2_before_building(self, capsys):
        # 10^20 vertices: refused from the counts, in well under a second
        t0 = time.perf_counter()
        assert cli.main(["gen", "--family", "complete",
                         "-n", "1" + "0" * 20]) == 2
        assert time.perf_counter() - t0 < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "n=1" + "0" * 20 + " has" in err


class TestBench:
    def test_mini_run(self, tmp_path):
        cfg = tmp_path / "bench.conf"
        cfg.write_text(
            "family=random\n"
            "sizes=16,32\n"
            "seeds=0,1\n"
            "policies=loops-first\n"
        )
        dump = tmp_path / "reports.json"
        proc = run_cli("bench", str(cfg), "--json", str(dump))
        assert "slope" in proc.stdout
        reports = json.loads(dump.read_text())
        assert len(reports) == 2 * 2  # sizes x seeds
        assert all(r["schema_version"] == 2 for r in reports)
        assert all(set(r) == SCHEMA_2_KEYS for r in reports)
        assert all(set(r["stats"]) == SCHEMA_2_STATS for r in reports)

    def test_summary_holds_config_rows_and_slopes(self, tmp_path):
        cfg = tmp_path / "bench.conf"
        cfg.write_text("family=circulant\nsizes=8,16\npreprocess=false\n")
        out = tmp_path / "BENCH_tiny.json"
        run_cli("bench", str(cfg), "--summary", str(out))
        summary = json.loads(out.read_text())
        assert set(summary) == {"config", "rows", "slopes"}
        assert summary["config"] == json.loads(json.dumps(
            asdict(BenchConfig(family="circulant", sizes=(8, 16),
                               preprocess=False))))
        (rows,) = summary["rows"].values()
        assert [row["m"] for row in rows] == [16, 32]
        assert all(list(row) == list(bench.COLUMNS) for row in rows)
        (slopes,) = summary["slopes"].values()
        assert list(slopes) == list(bench.SLOPE_COLUMNS)

    def test_reports_carry_phase_times(self):
        (rep,) = bench.run_bench(BenchConfig(sizes=(8,)))
        assert set(rep.phase_s) == {"embed", "verify"}
        assert json.loads(rep.to_json())["phase_s"] == rep.phase_s

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "bench.conf"
        cfg.write_text("familly=random\n")
        proc = run_cli("bench", str(cfg), check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize("value", ["-1", "0", "0.5"])
    def test_edge_factor_below_one_exits_2(self, tmp_path, capsys, value):
        # refused, not clamped: a random cell has m = round(edge_factor * n)
        cfg = tmp_path / "bench.conf"
        cfg.write_text(f"sizes = 8\nedge_factor = {value}\n")
        assert cli.main(["bench", str(cfg)]) == 2
        assert "edge_factor must be finite and at least 1" in \
            capsys.readouterr().err

    def test_size_with_no_edge_count_exits_2(self, tmp_path, capsys):
        # m = round(edge_factor * n) overflowed the float conversion
        size = "1" + "0" * 400
        cfg = tmp_path / "bench.conf"
        cfg.write_text(f"family = random\nsizes = {size}\n")
        assert cli.main(["bench", str(cfg)]) == 2
        assert f"size {size} is too large" in capsys.readouterr().err

    def test_size_above_the_cap_exits_2_before_the_first_cell(
            self, tmp_path, capsys):
        # C(2897, 2) edges is just above the cap; the first size is fine
        cfg = tmp_path / "bench.conf"
        cfg.write_text("family = complete\nsizes = 8, 2897\n")
        t0 = time.perf_counter()
        assert cli.main(["bench", str(cfg)]) == 2
        assert time.perf_counter() - t0 < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: family 'complete' at n=2897 has 4194856 "
                       "edges, above the cap of 2^22 = 4194304\n")

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_size_with_no_edge_count_is_refused(self, family):
        # checked in the config only: such a size must never reach a
        # generator, which would allocate until memory runs out
        with pytest.raises(GraphError, match=r"size 10+ is too large"):
            BenchConfig(family=family, sizes=(10 ** 400,))

    def test_repeated_key_rejected(self):
        with pytest.raises(GraphError, match="line 3: sizes repeated"):
            BenchConfig.parse("sizes = 8\n# again\nsizes = 16\n")

    def test_genus_disagreement_exits_5(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "bench.conf"
        cfg.write_text("sizes = 8\n")
        monkeypatch.setattr(bench, "genus_of", lambda g, rot: -1)
        assert cli.main(["bench", str(cfg)]) == 5
        assert "traced genus -1" in capsys.readouterr().err

    def test_repeat_with_other_pairs_exits_5(self, tmp_path, monkeypatch,
                                             capsys):
        # the cell's second run takes another policy's pairs
        cfg = tmp_path / "bench.conf"
        cfg.write_text("family = tight-star\nsizes = 2\n"
                       "policies = loops-first\n")
        runs = []
        real = bench.run_pipeline

        def drifting(g, **kwargs):
            runs.append(kwargs["policy"])
            if len(runs) == 2:
                kwargs["policy"] = "central-vertex-first"
            return real(g, **kwargs)

        monkeypatch.setattr(bench, "run_pipeline", drifting)
        assert cli.main(["bench", str(cfg)]) == 5
        assert "other pairs" in capsys.readouterr().err
        assert len(runs) == bench.REPEATS

    def test_committed_scripts_run(self):
        confs = sorted(SCRIPTS.glob("*.conf"))
        assert len(confs) >= 3  # bench_example and the two slopes grids
        for conf in confs:
            cfg = BenchConfig.parse(conf.read_text(encoding="utf-8"))
            reports = bench.run_bench(replace(cfg, sizes=cfg.sizes[:2]))
            assert "slope(verify~m)" in bench.format_summary(
                bench.summarize(reports)), conf.name
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "policy_gap_demo.py"),
             "--max-n", "2", "--oracle-max-n", "1"],
            capture_output=True, text=True, env=ENV)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[1].split()[-2:] == ["2", "2"]
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "oracle_reach.py"),
             "--sizes", "8,12", "--graphs", "2", "--budget", "1"],
            capture_output=True, text=True, env=ENV)
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()]
        assert rows[0] == ["m", "pairs", "xuong", "rotations"]
        assert [r[0] for r in rows[1:]] == ["8", "12"]
        assert all(r[1::2] == ["2/2"] * 3 for r in rows[1:])

    def test_mutant_catalogue_runs_one_entry(self):
        # one entry, one pytest process in a copy of the checkout; the
        # whole catalogue is run by hand, outside the suite
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "mutants.py"), "scan-loop-twice"],
            capture_output=True, text=True, env=ENV)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.split() == ["killed", "scan-loop-twice"]

    def test_unknown_policy_fails_before_any_cell(self, tmp_path,
                                                  monkeypatch, capsys):
        with pytest.raises(GraphError, match="bogus"):
            BenchConfig.parse("policies = edge-id,bogus\n")
        cfg = tmp_path / "bench.conf"
        cfg.write_text("sizes = 8\npolicies = edge-id,bogus\n")

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(bench, "run_pipeline", no_cell)
        assert cli.main(["bench", str(cfg)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_zero_edge_size_prints_its_row(self, tmp_path):
        # a bouquet of no loops has m = 0, which a log-log fit cannot take
        cfg = tmp_path / "bench.conf"
        cfg.write_text("family = bouquet\nsizes = 0,2\n")
        proc = run_cli("bench", str(cfg), check=False)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()]
        assert [r[:2] for r in rows if r[0].isdigit()] == [["1", "0"],
                                                           ["1", "2"]]

    def test_slopes_skip_zero_edge_rows(self):
        reports = bench.run_bench(BenchConfig(family="bouquet",
                                              sizes=(0, 2, 4)))
        summary = bench.summarize(reports)
        (policy,) = summary.rows
        table = summary.rows[policy]
        assert [row["m"] for row in table] == [0, 2, 4]
        assert summary.slopes[policy]["elapsed_s"] == bench.fit_loglog_slope(
            [(row["m"], row["elapsed_s"]) for row in table[1:]])

    def test_zero_column_has_no_slope(self):
        # a count that stayed 0 at every size was not measured flat
        assert bench.fit_loglog_slope([(8, 0), (16, 0.0)]) is None
        summary = bench.BenchSummary(
            {"p": []}, {"p": dict.fromkeys(bench.SLOPE_COLUMNS, 1.0)
                        | {"tests": None}})
        assert "slope(tests~m)=n/a slope(embed~m)=1.00" in \
            bench.format_summary(summary)

    def test_slope_fit_rejects_nonpositive_sizes(self):
        for x in (0, -1, -0.5):
            with pytest.raises(GraphError, match="positive"):
                bench.fit_loglog_slope([(x, 1.0), (2, 1.0)])

    def test_cells_in_grid_order(self):
        cfg = BenchConfig(sizes=(8, 12), seeds=(0, 1),
                          policies=("edge-id", "loops-first"))
        reports = bench.run_bench(cfg)
        assert [(r.label, r.seed, r.policy)
                for r in reports] == [
            (f"random-{size}-s{seed}", seed, policy)
            for size in (8, 12) for seed in (0, 1)
            for policy in ("edge-id", "loops-first")]


class TestExitCodes:
    def test_missing_file_is_io_error(self):
        proc = run_cli("greedy", "/nonexistent/graph.edges", check=False)
        assert proc.returncode == 1

    def test_disconnected_graph(self):
        proc = run_cli("greedy", stdin="a b\nc d\n", check=False)
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_malformed_edge_list(self):
        proc = run_cli("greedy", stdin="a b c\n", check=False)
        assert proc.returncode == 3

    def test_empty_input(self):
        proc = run_cli("greedy", stdin="", check=False)
        assert proc.returncode == 3

    def test_non_utf8_input_is_a_parse_error(self, tmp_path):
        bad = b"a b\nb c\n\xff\xfe\n"
        path = tmp_path / "bad.txt"
        path.write_bytes(bad)
        good = tmp_path / "k4.edges"
        good.write_text(K4_TEXT)
        # a C locale would decode stdin with surrogateescape
        env = {**ENV, "LC_ALL": "C", "PYTHONIOENCODING": ""}
        for argv, stdin in ((["greedy", str(path)], None),
                            (["greedy"], bad),
                            (["embed", str(good), "--rotation", str(path)],
                             None)):
            proc = subprocess.run(CLI + argv, input=stdin,
                                  capture_output=True, env=env)
            err = proc.stderr.decode()
            assert proc.returncode == 3, err
            assert err.startswith("error: ") and "Traceback" not in err
            assert "not UTF-8 at byte offset 8" in err

    def test_wrong_embedding_genus_under_optimize(self):
        # with asserts stripped by -O, a wrong genus must still be caught:
        # a trace of the final embedding that counts every face twice
        # puts K4's genus at 0, below its one certified pair
        script = (
            "import sys\n"
            "from maxgenus import cli, embedding\n"
            "face_count = embedding._face_count\n"
            "embedding._face_count = lambda darts, sigma_next: (\n"
            "    face_count(darts, sigma_next) * 2)\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, "greedy", "--embed"],
            input=K4_TEXT, capture_output=True, text=True, env=ENV,
        )
        assert proc.returncode == 5
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "embedding genus" not in proc.stdout

    def test_repeated_dart_rejected_under_optimize(self, tmp_path):
        # K4's rotation with dart 0.0 listed twice at vertex 0 is a typed
        # rejection (exit 2) with asserts stripped, not a traceback
        graph_file = tmp_path / "g.edges"
        graph_file.write_text(K4_TEXT)
        rot_file = tmp_path / "g.rot"
        rot_file.write_text("0: 0.0 1.0 2.0 0.0\n1: 0.1 3.0 4.0\n"
                            "2: 1.1 3.1 5.0\n3: 2.1 4.1 5.1\n")
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "maxgenus.cli", "embed",
             str(graph_file), "--rotation", str(rot_file)],
            capture_output=True, text=True, env=ENV,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: rotation lists a dart twice")
        assert "Traceback" not in proc.stderr

    def test_check_audits_under_optimize(self):
        # --check must audit even with asserts stripped by -O
        script = (
            "import sys\n"
            "from maxgenus import cli\n"
            "from maxgenus.embedding import EmbeddingState\n"
            "audit = EmbeddingState._audit\n"
            "def corrupted(self):\n"
            "    self.sigma_prev[self.first_dart[0]] = -1\n"
            "    audit(self)\n"
            "EmbeddingState._audit = corrupted\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, "greedy", "--embed",
             "--check"],
            input=K4_TEXT, capture_output=True, text=True, env=ENV,
        )
        assert proc.returncode == 5
        assert proc.stderr.startswith("error: embedding check failed")
        assert "Traceback" not in proc.stderr

    def test_engine_fault_is_a_certification_failure(self):
        # K4's one pair goes in with its second edge's ends swapped, so a
        # dart of that edge sits at the wrong vertex: exit 5, not 2
        script = (
            "import sys\n"
            "from maxgenus import cli\n"
            "from maxgenus.embedding import EmbeddingState\n"
            "insert = EmbeddingState._insert_pair\n"
            "def crossed(self, e, f, w):\n"
            "    ends = self.ends\n"
            "    self.ends = {**ends, f: ends[f][::-1]}\n"
            "    insert(self, e, f, w)\n"
            "    self.ends = ends\n"
            "EmbeddingState._insert_pair = crossed\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "greedy", "--check"],
            input=K4_TEXT, capture_output=True, text=True, env=ENV,
        )
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr.startswith("error: embedding check failed: "
                                      "rotation of dart")
        assert "Traceback" not in proc.stderr

    def test_version(self):
        proc = run_cli("--version")
        assert "maxgenus" in proc.stdout


def _text(lines):
    return "".join(f"{line}\n" for line in lines)


def _with_junk(lines, junk):
    """Texts of mostly valid lines, at times with one junk line among
    them."""
    return st.tuples(st.lists(lines, max_size=12), st.lists(junk, max_size=1),
                     st.integers(0, 12)).map(
        lambda t: _text(t[0][:t[2]] + t[1] + t[0][t[2]:]))


LABELS = st.sampled_from(["a", "b", "c", "d", "e", "0", "1"])
EDGE_TEXTS = _with_junk(
    st.tuples(LABELS, LABELS).map(" ".join)
    | st.sampled_from(["", "# comment", "a b # trailing"]),
    st.lists(LABELS, min_size=1, max_size=3).map(" ".join)
    | st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
              max_size=8))
K4 = parse_edge_list(K4_TEXT)
K4_ROTATIONS = st.tuples(*(st.permutations(sorted(K4._inc[v]))
                           for v in K4.vertices())).map(
    lambda cycs: _text(f"{v}: {' '.join(map(format_dart, cyc))}"
                       for v, cyc in enumerate(cycs)))
DARTS = st.builds("{}.{}".format, st.integers(0, 7), st.integers(0, 2))
ROTATION_TEXTS = _with_junk(
    st.builds(lambda v, ds: f"{v}: {' '.join(ds)}",
              st.integers(0, 5), st.lists(DARTS, max_size=6)),
    st.sampled_from(["x: 0.0", "3 0.1", "1: 0.x", "1: 0.0 0.0", "²: 0.0",
                     "٣: 0.0", "0: ².0"]))
CONFIG_VALUES = {
    "family": st.sampled_from(["random", "tight-star", "bouquet", "dipole",
                               "complete", "circulant", "petersen"]),
    "sizes": st.lists(st.integers(-1, 8).map(str), min_size=1,
                      max_size=3).map(",".join) | st.just("4,x"),
    "edge_factor": st.sampled_from(["0.5", "2.0", "4", "inf", "nan", "x"]),
    "seeds": st.lists(st.integers(0, 9).map(str), min_size=1,
                      max_size=2).map(",".join) | st.just(""),
    "policies": st.lists(st.sampled_from(POLICIES + ("spiral",)),
                         min_size=1, max_size=2).map(",".join),
    "preprocess": st.sampled_from(["true", "false", "yes"]),
    "loop_prob": st.sampled_from(["0", "0.15", "0.5", "1.5", "-1", "nan"]),
    "parallel_prob": st.sampled_from(["0", "0.15", "0.6", "x"]),
}
CONFIG_TEXTS = st.tuples(
    st.fixed_dictionaries({}, optional=CONFIG_VALUES),
    st.lists(st.sampled_from(["familly = random", "sizes", "jobs = 1 2"]),
             max_size=1),
).map(lambda t: _text([f"{k} = {v}" for k, v in t[0].items()] + t[1]))

FAMILY_NAMES = st.sampled_from(["random", "tight-star", "bouquet", "dipole",
                                "complete", "circulant", "petersen", ""])
GEN_ARGVS = st.tuples(
    FAMILY_NAMES.map(lambda f: ["--family", f]),
    *(st.sampled_from([[], [flag, "3"], [flag, "8"], [flag, "0"],
                       [flag, "-2"]]) for flag in ("-n", "-m", "-k")),
    st.sampled_from([[], ["--seed", "4"]]),
    *(st.sampled_from([[], [flag, "0"], [flag, "0.5"], [flag, "1"],
                       [flag, "1.5"], [flag, "-1"], [flag, "nan"]])
      for flag in ("--loop-prob", "--parallel-prob")),
).map(lambda parts: [arg for part in parts for arg in part])


def main_in_process(argv, files):
    """Exit code and stderr of ``cli.main(argv)``, each ``{}`` in argv
    replaced in turn by the path of a temporary file holding the next
    text of ``files``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(files):
            path = os.path.join(tmp, f"in{i}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            paths.append(path)
        paths.reverse()
        argv = [paths.pop() if a == "{}" else a for a in argv]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    return code, err.getvalue()


class TestFuzz:
    """Any input ends in a documented exit code, never a traceback: an
    exception escaping ``main`` fails the test."""

    @given(EDGE_TEXTS, st.sampled_from([
        ["greedy", "{}"],
        ["greedy", "--embed", "--check", "--json", "{}"],
        ["greedy", "--raw", "--policy", "random", "--seed", "3", "{}"],
        ["embed", "--check", "{}"],
    ]))
    def test_edge_lists(self, text, argv):
        code, err = main_in_process(argv, [text])
        event(f"exit {code}")
        assert code in range(6)
        assert "Traceback" not in err

    @given(st.tuples(st.just(K4_TEXT), K4_ROTATIONS)
           | st.tuples(EDGE_TEXTS | st.just(K4_TEXT), ROTATION_TEXTS))
    def test_rotations(self, texts):
        graph, rotation = texts
        code, err = main_in_process(["embed", "{}", "--rotation", "{}"],
                                    [graph, rotation])
        event(f"exit {code}")
        assert code in range(6)
        assert "Traceback" not in err

    @given(GEN_ARGVS)
    def test_gen_options(self, argv):
        code, err = main_in_process(["gen", *argv, "-o", "{}"], [""])
        event(f"exit {code}")
        assert code in (0, 2)
        assert "Traceback" not in err

    @settings(max_examples=30)
    @given(CONFIG_TEXTS)
    def test_bench_configs(self, config):
        code, err = main_in_process(["bench", "{}"], [config])
        event(f"exit {code}")
        assert code in range(6)
        assert "Traceback" not in err
