"""End-to-end tests for the repro-scc command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph.digraph import Digraph
from repro.graph.io_text import write_edge_list
from repro.graph.storage import save_graph


@pytest.fixture
def stored_graph(tmp_path):
    rng = np.random.default_rng(0)
    graph = Digraph(200, rng.integers(0, 200, size=(900, 2)))
    path = str(tmp_path / "g.rgr")
    save_graph(graph, path, attributes={"kind": "test"})
    return path, graph


class TestGenerate:
    def test_generate_synthetic(self, tmp_path, capsys):
        out = str(tmp_path / "m.rgr")
        code = main(["generate", "--kind", "massive", "--scale", "3e-5",
                     "--out", out])
        assert code == 0
        assert "nodes" in capsys.readouterr().out

    def test_generate_webspam(self, tmp_path, capsys):
        out = str(tmp_path / "w.rgr")
        code = main(["generate", "--kind", "webspam", "--scale", "2e-5",
                     "--out", out])
        assert code == 0

    @pytest.mark.parametrize(
        "kind",
        ["cit-patents", "go-uniprot", "citeseerx", "large", "small"],
    )
    def test_generate_every_kind(self, tmp_path, kind, capsys):
        from repro.graph.storage import read_metadata

        out = str(tmp_path / f"{kind}.rgr")
        assert main(["generate", "--kind", kind, "--scale", "2e-5",
                     "--out", out]) == 0
        meta = read_metadata(out)
        assert meta["num_nodes"] >= 1000
        assert meta["attributes"]["kind"] == kind


class TestImportInfo:
    def test_import_then_info(self, tmp_path, capsys):
        text = str(tmp_path / "e.txt")
        write_edge_list(Digraph(4, np.array([[0, 1], [1, 0], [2, 3]])), text)
        out = str(tmp_path / "i.rgr")
        assert main(["import", text, "--out", out]) == 0
        assert main(["info", out]) == 0
        captured = capsys.readouterr().out
        assert "nodes:      4" in captured

    def test_info_full(self, stored_graph, capsys):
        path, _ = stored_graph
        assert main(["info", path, "--full"]) == 0
        assert "avg degree" in capsys.readouterr().out

    def test_info_missing_graph(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope.rgr")]) == 1
        assert "error" in capsys.readouterr().err


class TestCompute:
    def test_compute_prints_stats_and_writes_labels(
        self, stored_graph, tmp_path, capsys
    ):
        path, graph = stored_graph
        labels_out = str(tmp_path / "labels.npy")
        code = main(["compute", path, "--algorithm", "1PB-SCC",
                     "--labels-out", labels_out])
        assert code == 0
        out = capsys.readouterr().out
        assert "SCCs" in out and "block I/Os" in out
        labels = np.load(labels_out)
        assert labels.shape == (graph.num_nodes,)

    def test_compute_kernels_flag_scalar_matches_vector(
        self, stored_graph, tmp_path, capsys
    ):
        path, _ = stored_graph
        outputs = {}
        for kernels in ("vector", "scalar"):
            labels_out = str(tmp_path / f"labels-{kernels}.npy")
            assert main(["compute", path, "--algorithm", "1P-SCC",
                         "--kernels", kernels,
                         "--labels-out", labels_out]) == 0
            outputs[kernels] = np.load(labels_out)
            capsys.readouterr()
        assert np.array_equal(outputs["vector"], outputs["scalar"])

    def test_compute_rejects_unknown_kernels(self, stored_graph, capsys):
        path, _ = stored_graph
        with pytest.raises(SystemExit):
            main(["compute", path, "--kernels", "simd"])

    def test_compute_profile_writes_pstats_dump(
        self, stored_graph, tmp_path, capsys
    ):
        import pstats

        path, _ = stored_graph
        profile_out = str(tmp_path / "compute.pstats")
        assert main(["compute", path, "--algorithm", "1PB-SCC",
                     "--profile", profile_out]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out and profile_out in out
        stats = pstats.Stats(profile_out)
        assert stats.total_calls > 0

    def test_compute_profile_kept_on_timeout(self, stored_graph, tmp_path, capsys):
        path, _ = stored_graph
        profile_out = str(tmp_path / "timeout.pstats")
        code = main(["compute", path, "--algorithm", "DFS-SCC",
                     "--time-limit", "0", "--profile", profile_out])
        assert code == 2
        import pstats

        assert pstats.Stats(profile_out).total_calls > 0

    def test_compute_timeout_exit_code(self, stored_graph, capsys):
        path, _ = stored_graph
        code = main(["compute", path, "--algorithm", "DFS-SCC",
                     "--time-limit", "0"])
        assert code == 2
        assert "INF" in capsys.readouterr().err

    def test_compute_dnf_exit_code(self, tmp_path, capsys):
        # A long chain DAG with EM-SCC and minimal memory cannot finish.
        n = 3000
        graph = Digraph(n, np.array([[i, i + 1] for i in range(n - 1)]))
        path = str(tmp_path / "chain.rgr")
        save_graph(graph, path, block_size=4096)
        code = main(["compute", path, "--algorithm", "EM-SCC",
                     "--block-size", "4096", "--memory-factor", "0.4"])
        assert code == 3
        assert "DNF" in capsys.readouterr().err


class TestTraceAndReport:
    def test_compute_trace_writes_valid_trace(
        self, stored_graph, tmp_path, capsys
    ):
        from repro.obs import load_trace, validate_trace

        path, _ = stored_graph
        trace_path = str(tmp_path / "run.jsonl")
        code = main(["compute", path, "--algorithm", "2P-SCC",
                     "--trace", trace_path])
        assert code == 0
        assert "trace:" in capsys.readouterr().out
        trace = load_trace(trace_path)
        assert validate_trace(trace) == []
        assert trace.metadata["algorithm"] == "2P-SCC"
        assert (tmp_path / "run.jsonl.summary.json").exists()

    def test_report_renders_phase_summary(self, stored_graph, tmp_path, capsys):
        path, _ = stored_graph
        trace_path = str(tmp_path / "run.jsonl")
        assert main(["compute", path, "--algorithm", "2P-SCC",
                     "--trace", trace_path]) == 0
        capsys.readouterr()
        assert main(["report", trace_path]) == 0
        out = capsys.readouterr().out
        assert "tree-search: 1 sequential edge scan," in out
        assert "phases:" in out and "files:" in out

    def test_report_check_passes_on_valid_trace(
        self, stored_graph, tmp_path, capsys
    ):
        path, _ = stored_graph
        trace_path = str(tmp_path / "run.jsonl")
        assert main(["compute", path, "--algorithm", "1P-SCC",
                     "--trace", trace_path]) == 0
        capsys.readouterr()
        assert main(["report", trace_path, "--check"]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_report_check_fails_on_truncated_trace(self, tmp_path, capsys):
        import json

        trace_path = str(tmp_path / "cut.jsonl")
        with open(trace_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "header", "schema_version": 1,
                                     "metadata": {}}) + "\n")
        assert main(["report", trace_path, "--check"]) == 1
        assert "summary" in capsys.readouterr().err

    def test_report_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "none.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_verbose_flag_enables_logging(self, stored_graph, capsys):
        import logging

        path, _ = stored_graph
        previous = logging.getLogger("repro").level
        try:
            assert main(["-vv", "info", path]) == 0
            assert logging.getLogger("repro").level == logging.DEBUG
        finally:
            logging.getLogger("repro").setLevel(previous)

    def test_repro_log_env_sets_level(self, stored_graph, monkeypatch):
        import logging

        path, _ = stored_graph
        previous = logging.getLogger("repro").level
        monkeypatch.setenv("REPRO_LOG", "debug")
        try:
            assert main(["info", path]) == 0
            assert logging.getLogger("repro").level == logging.DEBUG
        finally:
            logging.getLogger("repro").setLevel(previous)


class TestMetricsCommands:
    def test_compute_metrics_writes_valid_snapshots_and_exposition(
        self, stored_graph, tmp_path, capsys
    ):
        from repro.obs import load_metrics, parse_prometheus_text, validate_metrics

        path, _ = stored_graph
        metrics_path = str(tmp_path / "run.metrics.jsonl")
        code = main(["compute", path, "--algorithm", "1P-SCC",
                     "--metrics", metrics_path,
                     "--metrics-interval", "0.05"])
        assert code == 0
        assert "metrics:" in capsys.readouterr().out
        data = load_metrics(metrics_path)
        assert validate_metrics(data) == []
        assert data.samples, "at least the final sample must be written"
        final = data.samples[-1]["values"]
        read_total = sum(
            value for series, value in final["counters"].items()
            if series.startswith("repro_io_read_blocks_total")
        )
        assert read_total > 0
        exposition = open(metrics_path + ".prom").read()  # repro: allow[IO001]
        assert parse_prometheus_text(exposition)

    def test_compute_metrics_does_not_change_counted_io(
        self, stored_graph, tmp_path, capsys
    ):
        path, _ = stored_graph
        assert main(["compute", path, "--algorithm", "1P-SCC"]) == 0
        plain = capsys.readouterr().out
        metrics_path = str(tmp_path / "m.jsonl")
        assert main(["compute", path, "--algorithm", "1P-SCC",
                     "--metrics", metrics_path]) == 0
        metered = capsys.readouterr().out

        def io_line(out):
            return [line for line in out.splitlines()
                    if "block I/Os" in line or "ios" in line.lower()][0]

        assert io_line(plain) == io_line(metered)

    def test_metrics_check_accepts_fresh_output(self, stored_graph,
                                                tmp_path, capsys):
        path, _ = stored_graph
        metrics_path = str(tmp_path / "run.metrics.jsonl")
        assert main(["compute", path, "--algorithm", "1P-SCC",
                     "--metrics", metrics_path]) == 0
        capsys.readouterr()
        code = main(["metrics", "check", metrics_path,
                     "--prom", metrics_path + ".prom"])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK:" in out

    def test_metrics_check_rejects_truncated_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "sample", "seq": 0}\n')
        assert main(["metrics", "check", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_compute_heartbeat_prints_progress(self, stored_graph, capsys):
        path, _ = stored_graph
        code = main(["compute", path, "--algorithm", "1P-SCC",
                     "--heartbeat", "0.02"])
        assert code == 0
        err = capsys.readouterr().err
        assert "1P-SCC" in err and "iter" in err


class TestCompare:
    def test_compare_table(self, stored_graph, capsys):
        path, _ = stored_graph
        code = main(["compare", path, "--algorithms", "1PB-SCC", "1P-SCC"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Time" in out and "1PB-SCC" in out and "1P-SCC" in out


class TestCondenseAndToposort:
    def test_condense_writes_openable_graph(self, stored_graph, tmp_path, capsys):
        from repro.graph.storage import open_disk_graph
        from repro.inmemory.toposort import topological_sort

        path, _ = stored_graph
        out = str(tmp_path / "c.rgr")
        assert main(["condense", path, "--out", out]) == 0
        assert "SCC nodes" in capsys.readouterr().out
        condensed = open_disk_graph(out)
        topological_sort(condensed.to_digraph())  # must be a DAG
        condensed.close()

    def test_condense_with_precomputed_labels(self, stored_graph, tmp_path):
        from repro.graph.storage import load_graph
        from repro.inmemory.tarjan import tarjan_scc

        path, graph = stored_graph
        labels, _ = tarjan_scc(graph)
        labels_path = str(tmp_path / "labels.npy")
        np.save(labels_path, labels)
        out = str(tmp_path / "c2.rgr")
        assert main(["condense", path, "--out", out,
                     "--labels", labels_path]) == 0
        condensed = load_graph(out)
        assert condensed.num_nodes == int(labels.max()) + 1

    def test_toposort_reports_layers(self, stored_graph, tmp_path, capsys):
        path, graph = stored_graph
        out = str(tmp_path / "layers.npy")
        assert main(["toposort", path, "--out", out]) == 0
        assert "layers" in capsys.readouterr().out
        layers = np.load(out)
        assert layers.shape == (graph.num_nodes,)


class TestBenchCommand:
    def test_bench_single_experiment(self, tmp_path, capsys):
        outdir = str(tmp_path / "results")
        code = main(["bench", "--experiments", "table1",
                     "--scale", "2e-5", "--outdir", outdir])
        assert code == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert (tmp_path / "results" / "table1.csv").exists()
        assert (tmp_path / "results" / "report.txt").exists()


class TestLint:
    """Exit codes and artifact outputs of ``repro-scc lint``."""

    FIXTURES = "tests/lint_fixtures"

    def test_fixture_package_yields_exactly_the_seeded_rules(self, capsys):
        code = main(["lint", self.FIXTURES, "--no-baseline"])
        assert code == 1
        out = capsys.readouterr().out
        rules = {
            line.split()[1]
            for line in out.splitlines()
            if ": " in line and line.split(":")[0].endswith(".py")
        }
        assert rules == {"SCAN002", "THR001", "IO003", "IO001", "THR004"}

    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", "src"]) == 0
        assert "contract-clean" in capsys.readouterr().out

    def test_unreadable_path_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere.py")
        assert main(["lint", missing]) == 2
        assert "error" in capsys.readouterr().err

    def test_analyzer_crash_exits_two(self, monkeypatch, capsys):
        from repro.analysis_static.engine import Analyzer

        def boom(self, modules):
            raise RuntimeError("internal pass exploded")

        monkeypatch.setattr(Analyzer, "analyze_modules", boom)
        assert main(["lint", "src"]) == 2
        err = capsys.readouterr().err
        assert "analyzer failed" in err
        assert "internal pass exploded" in err

    def test_sarif_artifact_is_written_and_valid(self, tmp_path, capsys):
        import json

        from repro.analysis_static.sarif import validate_sarif

        sarif_path = str(tmp_path / "lint.sarif")
        code = main(
            ["lint", self.FIXTURES, "--no-baseline", "--sarif", sarif_path]
        )
        assert code == 1
        capsys.readouterr()
        log = json.loads(open(sarif_path).read())  # repro: allow[IO001]
        assert validate_sarif(log) == []
        rule_ids = {r["ruleId"] for r in log["runs"][0]["results"]}
        assert rule_ids == {"SCAN002", "THR001", "IO003", "IO001", "THR004"}

    def test_cost_report_flag_prints_the_table(self, capsys):
        assert main(["lint", "src", "--cost-report"]) == 0
        out = capsys.readouterr().out
        assert "Counted-I/O cost inference" in out
        assert "repro/core/em_scc.py" in out

    def test_write_baseline_then_lint_is_clean(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert main(
            ["lint", self.FIXTURES, "--write-baseline",
             "--baseline", baseline]
        ) == 0
        capsys.readouterr()
        code = main(["lint", self.FIXTURES, "--baseline", baseline])
        assert code == 0
        assert "baselined" in capsys.readouterr().out

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"findings": [{"path": "only"}]}')
        code = main(
            ["lint", self.FIXTURES, "--baseline", str(baseline)]
        )
        assert code == 2
        assert "malformed baseline" in capsys.readouterr().err
