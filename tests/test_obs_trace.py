"""JSONL trace format: schema, round-trip, validation, reports.

The golden-file test pins schema v1 exactly — record types, span field
sets, and the accounting invariants (span I/O deltas summing to the
run's total) — so any incompatible format change has to bump
``TRACE_SCHEMA_VERSION`` on purpose.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.two_phase import TwoPhaseSCC
from repro.exceptions import ReproError
from repro.graph.diskgraph import DiskGraph
from repro.io.counter import IOStats
from repro.obs import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    Tracer,
    TraceWriter,
    load_trace,
    render_report,
    validate_trace,
)
from repro.obs.trace import record_to_span, span_to_record

from tests.conftest import SMALL_BLOCK, random_digraphs

#: Exactly the keys a schema-v1 span record carries.
SPAN_KEYS = {
    "type", "id", "parent", "name", "depth", "attrs", "start", "wall",
    "io", "counters", "files",
}

#: Exactly the keys a serialized IOStats payload carries.
IO_KEYS = {
    "seq_reads", "seq_writes", "rand_reads", "rand_writes",
    "bytes_read", "bytes_written",
}


@pytest.fixture
def traced_run(tmp_path, figure1_graph):
    """A 2P-SCC run traced to disk; returns (trace_path, result)."""
    trace_path = str(tmp_path / "run.jsonl")
    disk = DiskGraph.from_digraph(
        figure1_graph, str(tmp_path / "fig1.bin"), block_size=SMALL_BLOCK
    )
    with TraceWriter(trace_path, metadata={"algorithm": "2P-SCC"}) as writer:
        result = TwoPhaseSCC().run(disk, tracer=Tracer(sink=writer))
    disk.close()
    return trace_path, result


class TestGoldenSchema:
    def test_header_is_first_and_versioned(self, traced_run):
        trace_path, _ = traced_run
        with open(trace_path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert records[0]["type"] == "header"
        assert records[0]["schema_version"] == TRACE_SCHEMA_VERSION == 1
        assert records[0]["metadata"] == {"algorithm": "2P-SCC"}

    def test_span_records_carry_exactly_the_v1_fields(self, traced_run):
        trace_path, _ = traced_run
        with open(trace_path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        spans = [r for r in records if r["type"] == "span"]
        assert spans, "trace holds no span records"
        for record in spans:
            assert set(record) == SPAN_KEYS
            assert set(record["io"]) == IO_KEYS

    def test_summary_is_last(self, traced_run):
        trace_path, _ = traced_run
        with open(trace_path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert records[-1]["type"] == "summary"
        assert records[-1]["spans"] == len(records) - 2

    def test_root_span_io_equals_run_stats(self, traced_run):
        trace_path, result = traced_run
        trace = load_trace(trace_path)
        roots = [span for span in trace.spans if span.parent_id is None]
        assert len(roots) == 1
        assert roots[0].name == "run"
        assert roots[0].io == result.stats.io

    def test_two_phase_span_taxonomy(self, traced_run):
        """The acceptance claim: one search scan, <= depth(G) pushdowns."""
        trace_path, result = traced_run
        trace = load_trace(trace_path)
        names = [span.name for span in trace.spans]
        assert names.count("tree-construction") == 1
        assert names.count("tree-search") == 1
        assert names.count("search-scan") == 1
        scans = names.count("pushdown-scan")
        assert 1 <= scans == result.stats.extras["construction_scans"]

    def test_iteration_stats_gain_io_and_sum_to_total(self, traced_run):
        _, result = traced_run
        per_iter = [entry.io for entry in result.stats.per_iteration]
        assert all(io is not None for io in per_iter)
        summed = IOStats()
        for io in per_iter:
            summed = summed + io
        assert summed.total <= result.stats.io.total

    def test_validate_trace_passes(self, traced_run):
        trace_path, _ = traced_run
        assert validate_trace(load_trace(trace_path)) == []

    def test_summary_sidecar(self, traced_run):
        trace_path, result = traced_run
        with open(trace_path + ".summary.json", encoding="utf-8") as handle:
            sidecar = json.load(handle)
        assert sidecar["type"] == "trace-summary"
        assert sidecar["schema_version"] == TRACE_SCHEMA_VERSION
        assert sidecar["trace"] == "run.jsonl"
        assert IOStats.from_dict(sidecar["io"]) == result.stats.io


class TestRoundTrip:
    def test_span_record_round_trip(self, traced_run):
        trace_path, _ = traced_run
        for span in load_trace(trace_path).spans:
            rebuilt = record_to_span(span_to_record(span))
            assert rebuilt == span

    def test_loader_skips_unknown_record_types(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "header", "schema_version": 1,
                                     "metadata": {}}) + "\n")
            handle.write(json.dumps({"type": "future-extension"}) + "\n")
        trace = load_trace(path)
        assert trace.spans == []

    def test_loader_rejects_bad_json(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json\n")
        with pytest.raises(ReproError):
            load_trace(path)

    def test_loader_rejects_missing_header(self, tmp_path):
        path = str(tmp_path / "nohdr.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "summary", "spans": 0}) + "\n")
        with pytest.raises(ReproError):
            load_trace(path)

    def test_writer_rejects_use_after_close(self, tmp_path):
        from repro.obs.tracer import Span

        writer = TraceWriter(str(tmp_path / "w.jsonl"))
        writer.close()
        with pytest.raises(ReproError):
            writer(Span(name="late", span_id=0, parent_id=None, depth=0))


class TestValidator:
    def _write(self, tmp_path, records):
        path = str(tmp_path / "v.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return load_trace(path)

    def _span(self, span_id, parent=None, depth=0, io=None, name="s"):
        return {
            "type": "span", "id": span_id, "parent": parent, "name": name,
            "depth": depth, "attrs": {}, "start": 0.0, "wall": 0.0,
            "io": (io or IOStats()).to_dict(), "counters": {}, "files": {},
        }

    def _header(self, version=TRACE_SCHEMA_VERSION):
        return {"type": "header", "schema_version": version, "metadata": {}}

    def test_flags_wrong_schema_version(self, tmp_path):
        trace = self._write(tmp_path, [self._header(version=99)])
        assert any("schema_version" in p for p in validate_trace(trace))

    def test_flags_duplicate_ids(self, tmp_path):
        trace = self._write(
            tmp_path,
            [self._header(), self._span(0), self._span(0),
             {"type": "summary", "spans": 2, "io": IOStats().to_dict(),
              "wall_seconds": 0.0}],
        )
        assert any("duplicate" in p for p in validate_trace(trace))

    def test_flags_unresolved_parent(self, tmp_path):
        trace = self._write(
            tmp_path,
            [self._header(), self._span(1, parent=42, depth=1),
             {"type": "summary", "spans": 1, "io": IOStats().to_dict(),
              "wall_seconds": 0.0}],
        )
        assert any("unknown" in p for p in validate_trace(trace))

    def test_flags_children_io_exceeding_parent(self, tmp_path):
        child_io = IOStats(seq_reads=10, bytes_read=640)
        trace = self._write(
            tmp_path,
            [self._header(),
             self._span(1, parent=0, depth=1, io=child_io),
             self._span(0),
             {"type": "summary", "spans": 2, "io": IOStats().to_dict(),
              "wall_seconds": 0.0}],
        )
        assert any("exceeds" in p for p in validate_trace(trace))

    def test_flags_missing_summary(self, tmp_path):
        trace = self._write(tmp_path, [self._header(), self._span(0)])
        assert any("summary" in p for p in validate_trace(trace))

    def test_flags_summary_io_mismatch(self, tmp_path):
        trace = self._write(
            tmp_path,
            [self._header(), self._span(0, io=IOStats(seq_reads=5)),
             {"type": "summary", "spans": 1, "io": IOStats().to_dict(),
              "wall_seconds": 0.0}],
        )
        assert any("summary io" in p for p in validate_trace(trace))


class TestReport:
    def test_report_renders_tree_phases_and_files(self, traced_run):
        trace_path, _ = traced_run
        text = render_report(load_trace(trace_path))
        assert "trace schema v1" in text
        assert "tree-construction" in text
        assert "tree-search: 1 sequential edge scan," in text
        assert "files:" in text
        assert "fig1.bin" in text

    def test_max_depth_prunes_tree(self, traced_run):
        trace_path, _ = traced_run
        shallow = render_report(load_trace(trace_path), max_depth=0)
        assert "pushdown-scan" not in shallow.split("phases:")[0]


class TestTracingIsTransparent:
    """Enabled-vs-disabled runs must agree on labels and I/O exactly."""

    @settings(max_examples=20, deadline=None)
    @given(graph=random_digraphs(max_nodes=24))
    def test_traced_run_matches_untraced(self, tmp_path_factory, graph):
        tmp_path = tmp_path_factory.mktemp("prop")
        algo = TwoPhaseSCC()
        results = []
        for suffix, tracer in (("off", None), ("on", Tracer())):
            disk = DiskGraph.from_digraph(
                graph, str(tmp_path / f"g-{suffix}.bin"),
                block_size=SMALL_BLOCK,
            )
            try:
                results.append(algo.run(disk, tracer=tracer))
            finally:
                disk.unlink()
        untraced, traced = results
        assert np.array_equal(untraced.labels, traced.labels)
        assert untraced.num_sccs == traced.num_sccs
        assert untraced.stats.io == traced.stats.io
        assert untraced.stats.iterations == traced.stats.iterations

    @pytest.mark.parametrize(
        "algorithm, scan, node_bytes",
        [("1PB-SCC", "batch-scan", 10), ("EM-SCC", "partition-scan", 4)],
    )
    def test_in_memory_scc_work_counters(
        self, tmp_path, algorithm, scan, node_bytes
    ):
        """``scc-nodes``/``scc-edges`` count the first scan's graphs, exactly."""
        from repro.core import ALGORITHMS
        from repro.graph.digraph import Digraph
        from repro.io.memory import MemoryModel

        # 2-cycles inside partitions: larger than M, so both need batches.
        n = 100
        pairs = [[2 * i + a, 2 * i + 1 - a] for i in range(n // 2) for a in (0, 1)]
        graph = Digraph(n, np.array(pairs))
        runs = []
        for attempt in range(2):
            disk = DiskGraph.from_digraph(
                graph, str(tmp_path / f"g{attempt}.bin"), block_size=SMALL_BLOCK
            )
            memory = MemoryModel(
                num_nodes=n,
                capacity=SMALL_BLOCK + node_bytes * n,
                block_size=SMALL_BLOCK,
            )
            tracer = Tracer()
            try:
                ALGORITHMS[algorithm]().run(disk, memory=memory, tracer=tracer)
            finally:
                disk.unlink()
            runs.append([
                {k: v for k, v in span.counters.items() if k.startswith("scc-")}
                for span in tracer.spans
                if span.name == scan
            ])
        # The first scan hands every edge to Kosaraju; a later scan over
        # an emptied edge file runs none and so carries no counters.
        first = runs[0][0]
        assert first["scc-edges"] == n and first["scc-nodes"] >= n
        assert runs[0] == runs[1]

    def test_default_run_uses_null_tracer(self, tmp_path, figure1_graph):
        disk = DiskGraph.from_digraph(
            figure1_graph, str(tmp_path / "fig1.bin"), block_size=SMALL_BLOCK
        )
        try:
            result = TwoPhaseSCC().run(disk)
        finally:
            disk.unlink()
        assert NULL_TRACER.spans == []
        assert all(e.io is None for e in result.stats.per_iteration)
