"""Tests for the command-line interface."""

import pytest

from repro import write_uncertain_graph
from repro.cli import main


@pytest.fixture
def graph_file(tmp_path, two_triangles):
    path = tmp_path / "graph.uel"
    write_uncertain_graph(two_triangles, path)
    return str(path)


class TestStats:
    def test_prints_counts(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "nodes            6" in out
        assert "edges            7" in out
        assert "largest CC" in out

    def test_missing_file(self, capsys):
        assert main(["stats", "/nonexistent.uel"]) == 2
        assert "error" in capsys.readouterr().err


class TestEstimate:
    def test_estimates_probability(self, graph_file, capsys):
        assert main(["estimate", graph_file, "0", "1", "--samples", "2000"]) == 0
        out = capsys.readouterr().out
        assert "Pr(0 ~ 1)" in out
        value = float(out.split("~=")[1].split()[0])
        assert 0.8 <= value <= 1.0

    def test_depth_flag(self, graph_file, capsys):
        assert main(
            ["estimate", graph_file, "0", "3", "--samples", "500", "--depth", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "paths <= 1" in out
        value = float(out.split("~=")[1].split()[0])
        assert value == 0.0  # not adjacent

    def test_profile_attributes_the_distance_kernel(self, graph_file, capsys):
        assert main(
            ["estimate", graph_file, "0", "3", "--samples", "300", "--depth", "2",
             "--profile"]
        ) == 0
        rows = dict(
            line.rsplit(None, 1) for line in capsys.readouterr().err.splitlines()
            if line.split()[0] in ("sample", "label", "store", "distance", "cluster", "total")
        )
        assert set(rows) == {"sample", "label", "store read", "store write", "distance",
                             "cluster", "total"}
        assert float(rows["distance"]) > 0.0


class TestCluster:
    @pytest.mark.parametrize("algorithm", ["mcp", "acp", "gmm"])
    def test_k_algorithms_write_tsv(self, graph_file, tmp_path, algorithm):
        out_path = tmp_path / "clusters.tsv"
        code = main(
            [
                "cluster", graph_file,
                "--algorithm", algorithm,
                "--k", "2",
                "--samples", "300",
                "-o", str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "node\tcluster\tcenter"
        assert len(lines) == 7  # header + 6 nodes
        clusters = {line.split("\t")[1] for line in lines[1:]}
        assert len(clusters) == 2

    @pytest.mark.parametrize("algorithm", ["mcl", "kpt"])
    def test_granularity_free_algorithms(self, graph_file, tmp_path, algorithm):
        out_path = tmp_path / "clusters.tsv"
        code = main(["cluster", graph_file, "--algorithm", algorithm, "-o", str(out_path)])
        assert code == 0
        assert out_path.exists()

    def test_stdout_default(self, graph_file, capsys):
        assert main(["cluster", graph_file, "--k", "2", "--samples", "200"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("node\tcluster\tcenter")

    def test_output_is_world_cache_invariant(self, graph_file, tmp_path, capsys):
        """No cache, cold cache and warm cache print the same clustering."""
        outputs = []
        for extra in ([], ["--world-cache", str(tmp_path / "wc")],
                      ["--world-cache", str(tmp_path / "wc")]):
            assert main(["cluster", graph_file, "--k", "2", "--samples", "200", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("command", ["cluster", "estimate"])
    def test_backend_flag_is_gone(self, graph_file, command, capsys):
        args = [command, graph_file] + (["0", "1"] if command == "estimate" else [])
        with pytest.raises(SystemExit):
            main([*args, "--backend", "unionfind"])
        assert "--backend" in capsys.readouterr().err

    def test_estimate_prints_probability(self, graph_file, capsys):
        assert main(["estimate", graph_file, "0", "1", "--samples", "500"]) == 0
        assert "Pr(0 ~ 1)" in capsys.readouterr().out

    def test_invalid_k_reports_error(self, graph_file, capsys):
        assert main(["cluster", graph_file, "--k", "99"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cluster", "centrality"])
    def test_budget_below_schedule_start_reports_error(self, graph_file, capsys, command):
        """The progressive schedule starts at 50 worlds; a smaller budget
        is a usage error, as the service answers it, not a traceback."""
        assert main([command, graph_file, "--samples", "10"]) == 2
        assert capsys.readouterr().err.startswith("error: samples must be >= 50")

    @pytest.mark.parametrize("inflation", ["nan", "inf"])
    def test_non_finite_inflation_reports_error(self, graph_file, capsys, inflation):
        argv = ["cluster", graph_file, "--algorithm", "mcl", "--inflation", inflation]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: inflation must be a finite number")


class TestGenerate:
    def test_generates_uel(self, tmp_path, capsys):
        out_path = tmp_path / "krogan.uel"
        code = main(
            ["generate", "krogan", "--scale", "0.08", "--seed", "1", "-o", str(out_path)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "planted complexes" in err
        from repro import read_uncertain_graph

        graph = read_uncertain_graph(out_path, numeric_labels=True)
        assert graph.n_nodes > 20

    def test_roundtrip_through_cluster(self, tmp_path):
        out_path = tmp_path / "g.uel"
        assert main(["generate", "gavin", "--scale", "0.08", "-o", str(out_path)]) == 0
        clusters = tmp_path / "c.tsv"
        assert main(
            ["cluster", str(out_path), "--k", "5", "--samples", "200", "-o", str(clusters)]
        ) == 0
        assert clusters.read_text().count("\n") > 20


class TestWorldCache:
    def test_estimate_populates_and_reuses_cache(self, graph_file, tmp_path, capsys):
        cache = str(tmp_path / "wc")
        args = ["estimate", graph_file, "0", "1", "--samples", "600",
                "--world-cache", cache]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0  # second run is served from the cache
        warm = capsys.readouterr().out
        assert warm == cold

        assert main(["cache", "info", cache]) == 0
        out = capsys.readouterr().out
        assert "1 pool(s)" in out
        assert "600" in out

    def test_cluster_accepts_world_cache(self, graph_file, tmp_path, capsys):
        cache = str(tmp_path / "wc")
        out_path = tmp_path / "c.tsv"
        args = ["cluster", graph_file, "--algorithm", "mcp", "--k", "2",
                "--samples", "200", "--world-cache", cache, "-o", str(out_path)]
        assert main(args) == 0
        cold = out_path.read_text()
        assert main(args) == 0
        assert out_path.read_text() == cold
        assert main(["cache", "info", cache]) == 0
        assert "pool(s)" in capsys.readouterr().out

    def test_cache_clear(self, graph_file, tmp_path, capsys):
        cache = str(tmp_path / "wc")
        assert main(["estimate", graph_file, "0", "1", "--samples", "100",
                     "--world-cache", cache]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", cache]) == 0
        assert "removed 1 pool(s)" in capsys.readouterr().err
        assert main(["cache", "info", cache]) == 0
        assert "no cached pools" in capsys.readouterr().out

    def test_cache_clear_digest_prefix(self, graph_file, tmp_path, capsys):
        cache = str(tmp_path / "wc")
        assert main(["estimate", graph_file, "0", "1", "--samples", "100",
                     "--world-cache", cache]) == 0
        capsys.readouterr()
        from repro.sampling.store import WorldStore

        (pool,) = WorldStore(cache).info()
        assert main(["cache", "clear", cache, "--digest", pool.digest[:8]]) == 0
        assert "removed 1 pool(s)" in capsys.readouterr().err

    def test_cache_clear_unknown_digest(self, tmp_path, capsys):
        assert main(["cache", "clear", str(tmp_path), "--digest", "ffff"]) == 2
        assert "no cached pool" in capsys.readouterr().err

    def test_cache_info_empty_dir(self, tmp_path, capsys):
        assert main(["cache", "info", str(tmp_path / "missing")]) == 0
        assert "no cached pools" in capsys.readouterr().out


class TestMeta:
    def test_version_flag_reports_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestWorkloadCommands:
    """The k-clustering and centrality subcommands end to end."""

    ARGS = {
        "kmedian": ["--k", "2", "--samples", "200"],
        "kcenter": ["--k", "2", "--samples", "200"],
        "centrality": ["--measure", "harmonic", "--samples", "200"],
        "cluster": ["--k", "2", "--samples", "200"],
        "estimate": ["0", "1", "--samples", "200"],
    }

    @pytest.mark.parametrize("command", ["kmedian", "kcenter", "centrality"])
    def test_fixed_seed_output_is_reproducible(self, graph_file, capsys, command):
        outputs = []
        for _ in range(2):
            argv = [command, graph_file, *self.ARGS[command], "--seed", "3"]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_workers_flag_rejected(self, graph_file, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, graph_file, *self.ARGS[command], "--workers", "1"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestServeParser:
    """`serve` / `bench-serve` argument plumbing (the server itself is
    exercised end-to-end in tests/test_service.py)."""

    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8722
        assert args.workers == 2
        assert args.world_cache is None
        assert args.cache_bytes == 256 << 20

    def test_serve_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--workers", "4",
             "--world-cache", "/tmp/wc", "--graph", "g.uel:toy",
             "--cache-bytes", "1024"]
        )
        assert args.port == 9000
        assert args.workers == 4
        assert args.graph == ["g.uel:toy"]
        assert args.cache_bytes == 1024

    def test_serve_sampling_workers_rejected(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--sampling-workers", "2"])
        assert "--sampling-workers" in capsys.readouterr().err

    def test_serve_missing_graph_file_reports_error(self, capsys):
        assert main(["serve", "--graph", "/nonexistent.uel"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bench_serve_requires_graph(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench-serve", "http://x:1"])

    def test_bench_serve_unreachable_url_reports_error(self, capsys, monkeypatch):
        import repro.service.loadgen as loadgen

        monkeypatch.setitem(loadgen.wait_ready.__kwdefaults__, "timeout", 0.2)
        assert main(
            ["bench-serve", "http://127.0.0.1:1", "--graph", "toy"]
        ) == 2
        assert "never became healthy" in capsys.readouterr().err


class TestNodeTokens:
    """``estimate`` and ``mutate`` resolve endpoint tokens by one rule: a
    label as typed, else its int coercion for integer-labelled nodes."""

    @pytest.fixture(params=["string labels", "int labels"])
    def labelled_file(self, request, graph_file, two_triangles, monkeypatch):
        if request.param == "int labels":
            import repro.cli as cli

            # Files parse to string labels; the library builds int ones.
            assert two_triangles.node_labels[0] == 0
            monkeypatch.setattr(cli, "read_uncertain_graph", lambda *a, **k: two_triangles)
        return graph_file

    @staticmethod
    def _run_both(path, tmp_path, u, v):
        return (
            main(["estimate", path, u, v, "--samples", "100"]),
            main(["mutate", path, "--update", u, v, "0.5", "-o", str(tmp_path / "m.uel")]),
        )

    @pytest.mark.parametrize("u,v", [("0", "1"), ("4", "3")])
    def test_known_tokens_are_accepted_by_both(self, labelled_file, tmp_path, capsys, u, v):
        assert self._run_both(labelled_file, tmp_path, u, v) == (0, 0)
        assert f"Pr({u} ~ {v})" in capsys.readouterr().out

    @pytest.mark.parametrize("u,v", [("0", "x"), ("0", "9"), ("1.0", "2")])
    def test_unknown_tokens_are_rejected_by_both(self, labelled_file, tmp_path, capsys, u, v):
        assert self._run_both(labelled_file, tmp_path, u, v) == (2, 2)
        bad = v if u == "0" else u
        assert capsys.readouterr().err == f"error: unknown node label {bad!r}\n" * 2


class TestMutate:
    def test_mutate_writes_updated_graph(self, graph_file, tmp_path, capsys):
        out = tmp_path / "mutated.uel"
        code = main([
            "mutate", graph_file, "--update", "0", "1", "0.123",
            "--add", "0", "4", "0.5", "-o", str(out),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "+1" in err and "~1" in err and "revision 0 -> 1" in err
        from repro.graph.io import read_uncertain_graph

        mutated = read_uncertain_graph(out)
        assert mutated.n_edges == 8  # two_triangles has 7
        assert mutated.edge_probability_between(
            mutated.index_of("0"), mutated.index_of("1")
        ) == 0.123

    def test_mutate_in_place_by_default(self, graph_file, capsys):
        assert main(["mutate", graph_file, "--remove", "2", "3"]) == 0
        from repro.graph.io import read_uncertain_graph

        graph = read_uncertain_graph(graph_file)
        assert graph.n_edges == 6
        assert graph.n_nodes == 6  # node-order directive keeps all nodes

    def test_mutate_without_ops_errors(self, graph_file, capsys):
        assert main(["mutate", graph_file]) == 2
        assert "no mutation ops" in capsys.readouterr().err

    def test_mutate_invalid_op_errors(self, graph_file, capsys):
        assert main(["mutate", graph_file, "--remove", "0", "5"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["x", "nan", "1.5", "0"])
    def test_mutate_bad_probability_errors(self, graph_file, capsys, p):
        assert main(["mutate", graph_file, "--update", "0", "1", p]) == 2
        assert capsys.readouterr().err.startswith("error: edge (0, 1): probability")

    def test_mutate_derives_world_cache(self, graph_file, tmp_path, capsys):
        cache = tmp_path / "wc"
        assert main([
            "estimate", graph_file, "0", "1", "--samples", "300",
            "--world-cache", str(cache),
        ]) == 0
        out = tmp_path / "mutated.uel"
        assert main([
            "mutate", graph_file, "--update", "0", "1", "0.95",
            "-o", str(out), "--world-cache", str(cache),
        ]) == 0
        err = capsys.readouterr().err
        assert "derived 300 worlds" in err
        # The derived pool serves the mutated graph warm, bit-identically
        # to a cold run at the same seed.
        from repro.graph.io import read_uncertain_graph
        from repro.sampling.oracle import MonteCarloOracle

        mutated = read_uncertain_graph(out)
        with MonteCarloOracle(mutated, seed=0, cache_dir=cache) as warm:
            warm.ensure_samples(300)
            assert warm.cache_stats["worlds_sampled"] == 0
            warm_labels = warm.component_labels
        with MonteCarloOracle(mutated, seed=0) as cold:
            cold.ensure_samples(300)
            assert (warm_labels == cold.component_labels).all()

    def test_mutate_without_parent_pool_reports_cold(self, graph_file, tmp_path, capsys):
        cache = tmp_path / "empty-wc"
        assert main([
            "mutate", graph_file, "--update", "0", "1", "0.95",
            "--world-cache", str(cache),
        ]) == 0
        assert "samples cold" in capsys.readouterr().err
