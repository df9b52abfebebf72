"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import time

import numpy as np
import pytest

from perfbench import checks, contract, gauge, layers, loadgen, stats


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------

def test_tail_is_p99_when_ten_samples_lie_beyond_it():
    samples = [float(i) for i in range(1, 1001)]
    label, value, count = stats.tail(samples)
    assert (label, value, count) == ("p99", 990.0, 1000)


def test_tail_steps_down_when_p99_has_too_few_samples_beyond():
    samples = [float(i) for i in range(1, 201)]
    label, value, count = stats.tail(samples)
    # p99 and p98 leave 2 and 4 samples beyond; p95 leaves exactly 10.
    assert (label, value, count) == ("p95", 190.0, 200)


def test_tail_falls_back_to_median_with_few_samples():
    assert stats.tail([3.0, 1.0, 2.0]) == ("median", 2.0, 3)


def test_tail_rejects_empty_sample():
    with pytest.raises(ValueError):
        stats.tail([])


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------

def test_self_time_subtracts_merged_child_coverage():
    # 0: parent [0, 10]; 1 and 2 overlap inside it; 3 is a grandchild
    # inside 1; 4 is a later child; 5 is a separate root.
    parents = [-1, 0, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 1.5, 6.0, 20.0]
    ends = [10.0, 3.0, 4.0, 2.0, 7.0, 21.0]
    selfs = layers.self_times(parents, starts, ends)
    assert selfs == pytest.approx([10 - (3 + 1), 2 - 0.5, 2, 0.5, 1, 1])


def test_summarize_counts_nested_same_name_spans_once():
    recorder = layers.Recorder()
    outer = recorder.begin("io.scan")
    inner = recorder.begin("io.scan")
    recorder.end(inner)
    child = recorder.begin("io.write")
    recorder.end(child)
    recorder.end(outer)
    summary = layers.summarize(recorder)
    assert summary["count"]["io.scan"] == 2
    log = next(recorder.spans())
    assert summary["time"]["io.scan"] == pytest.approx(log[4][0] - log[3][0])
    assert summary["root_time"] == pytest.approx(summary["time"]["io.scan"])


# ----------------------------------------------------------------------
# correctness checker
# ----------------------------------------------------------------------

def _two_cycles_and_a_tail():
    # SCCs {0,1,2} and {3,4}; 2 -> 3 links them; 5 hangs off 4.
    edges = np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 3], [2, 3], [4, 5]])
    from repro.graph.digraph import Digraph
    from repro.inmemory import tarjan_scc

    labels, _ = tarjan_scc(Digraph(6, edges))
    return edges, labels


def test_partition_fingerprint_ignores_the_labelling():
    _, labels = _two_cycles_and_a_tail()
    relabelled = (labels.max() - labels) * 3 + 7
    assert checks.partition_fingerprint(relabelled) == checks.partition_fingerprint(labels)


def test_partition_fingerprint_rejects_planted_wrong_partition():
    _, labels = _two_cycles_and_a_tail()
    wrong = labels.copy()
    wrong[wrong == wrong[3]] = wrong[0]  # merge the two SCCs
    assert checks.partition_fingerprint(wrong) != checks.partition_fingerprint(labels)


def test_condensation_edge_count_dedups_inter_scc_edges():
    edges, labels = _two_cycles_and_a_tail()
    extra = np.vstack([edges, [[1, 4]]])  # a second {0,1,2} -> {3,4} edge
    assert checks.condensation_edge_count(extra, labels) == 2


def test_answer_checker_accepts_truth_and_rejects_planted_wrong_reach():
    edges, labels = _two_cycles_and_a_tail()
    truth = checks.Truth(edges, labels)
    checker = checks.AnswerChecker(truth)
    assert checker.check({"op": "reach", "u": 0, "v": 5}, {"reachable": True})
    assert checker.check({"op": "reach", "u": 5, "v": 0}, {"reachable": False})
    assert not checker.check({"op": "reach", "u": 3, "v": 1}, {"reachable": True})
    assert len(checker.wrong) == 1


def test_answer_checker_binds_scc_ids_consistently():
    edges, labels = _two_cycles_and_a_tail()
    truth = checks.Truth(edges, labels)
    checker = checks.AnswerChecker(truth)
    assert checker.check({"op": "scc", "node": 0}, {"scc": 9, "size": 3, "layer": 0})
    assert checker.check({"op": "members", "scc": 9, "limit": 2},
                         {"size": 3, "members": [1, 2], "truncated": True})
    # The same daemon id may not name a different component.
    assert not checker.check({"op": "scc", "node": 3}, {"scc": 9, "size": 2, "layer": 1})
    assert checker.check({"op": "scc", "node": 3}, {"scc": 4, "size": 2, "layer": 1})


# ----------------------------------------------------------------------
# host-speed gauge
# ----------------------------------------------------------------------

def test_at_nominal_speed_divides_total_time_by_total_gauge():
    nominal = gauge.NOMINAL_S
    assert gauge.at_nominal_speed([(3.0, nominal)]) == pytest.approx(3.0)
    assert gauge.at_nominal_speed([(3.0, 2 * nominal)]) == pytest.approx(1.5)
    # A region timed at half speed counts its gauge as much as its time.
    assert gauge.at_nominal_speed([(2.0, nominal), (4.0, 2 * nominal)]) == pytest.approx(2.0)


def test_gauge_during_reads_the_passes_inside_the_region():
    # (began, ended, gauge_s); midpoints 0.5, 1.5, ..., 9.5.
    passes = [(float(i), i + 1.0, float(i)) for i in range(10)]
    assert gauge.gauge_during(passes, 2.0, 7.0) == pytest.approx(4.0)   # passes 2..6
    # Too short to hold MIN_PASSES passes: the nearest ones gauge it.
    assert gauge.gauge_during(passes, 4.9, 5.1) == pytest.approx(4.5)   # passes 3..6
    assert gauge.gauge_during(passes[:3], 0.0, 3.0) is None


def test_restate_pools_regions_and_fails_without_passes():
    passes = [(float(i), i + 1.0, 2 * gauge.NOMINAL_S) for i in range(10)]
    assert gauge.restate([(0.0, 4.0), (5.0, 9.0)], passes) == pytest.approx(2.0)
    with pytest.raises(RuntimeError):
        gauge.restate([(0.0, 4.0)], [])


def test_gauge_once_times_on_either_clock():
    assert gauge.gauge_once(1000) > 0.0
    assert gauge.gauge_once(1000, time.thread_time) > 0.0


# ----------------------------------------------------------------------
# load plan
# ----------------------------------------------------------------------

def test_plan_is_a_function_of_the_seed():
    edges = np.array([[0, 1], [1, 2], [2, 0], [2, 3]])
    a = loadgen.make_plan(7, edges, 4, 2, seconds=2.0, rate=50.0, cycles=2, batch_edges=2)
    b = loadgen.make_plan(7, edges, 4, 2, seconds=2.0, rate=50.0, cycles=2, batch_edges=2)
    c = loadgen.make_plan(8, edges, 4, 2, seconds=2.0, rate=50.0, cycles=2, batch_edges=2)
    assert np.array_equal(a.due, b.due) and a.requests == b.requests and a.batches == b.batches
    assert not np.array_equal(a.due, c.due)
    assert (np.diff(a.due) >= 0).all() and a.due[0] == 0.0 and a.due[-1] < 2.0
    # Ingested edges already exist, so no answer changes across rebuilds.
    known = {tuple(e) for e in edges.tolist()}
    assert all(tuple(e) in known for batch in a.batches for e in batch)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------

def test_probe_restores_every_patched_attribute():
    targets = layers.layer_targets()
    before = [owner.__dict__[attribute] for owner, attribute, *_ in targets]
    recorder = layers.Recorder()
    with layers.Probe(recorder):
        patched = [owner.__dict__[attribute] for owner, attribute, *_ in targets]
    after = [owner.__dict__[attribute] for owner, attribute, *_ in targets]
    assert all(a is b for a, b in zip(after, before))
    assert not any(p is b for p, b in zip(patched, before))


def test_probe_restores_even_when_the_region_raises():
    from repro.spanning.unionfind import DisjointSet

    original = DisjointSet.__dict__["find_many"]
    with pytest.raises(RuntimeError):
        with layers.Probe(layers.Recorder()):
            raise RuntimeError("boom")
    assert DisjointSet.__dict__["find_many"] is original


def test_probe_times_calls_and_generator_steps(tmp_path):
    from repro.io.edgefile import EdgeFile
    from repro.spanning.unionfind import DisjointSet

    recorder = layers.Recorder()
    with layers.Probe(recorder):
        ds = DisjointSet(4)
        ds.find_many(np.arange(4))
        edge_file = EdgeFile.create(str(tmp_path / "e.bin"))
        edge_file.append(np.array([[0, 1], [1, 2]], dtype=np.uint32))
        batches = list(edge_file.scan())
        edge_file.close()
    summary = layers.summarize(recorder)
    assert summary["count"]["spanning.find"] == 1
    assert summary["count"]["io.scan"] == len(batches) + 1  # the final, empty step
    assert summary["count"]["io.write"] >= 2


# ----------------------------------------------------------------------
# metric contract
# ----------------------------------------------------------------------

def test_every_span_metric_is_in_the_contract():
    per_layer = {name for name, _ in contract.metrics("per_layer")}
    for time_metric, count_metric in layers.SPAN_METRICS.values():
        assert time_metric in per_layer
        assert count_metric is None or count_metric in per_layer
    assert set(layers.layer_metrics(layers.summarize(layers.Recorder()))) == per_layer


def test_with_units_rejects_missing_and_unknown_metrics():
    values = {name: 1.0 for name, _ in contract.metrics("end_to_end")}
    reported = contract.with_units("end_to_end", values)
    assert reported["setup_s"] == (1.0, "s")
    with pytest.raises(KeyError, match="setup_s"):
        contract.with_units("end_to_end", {k: v for k, v in values.items() if k != "setup_s"})
    with pytest.raises(ValueError, match="rebuild_s"):
        contract.with_units("end_to_end", dict(values, rebuild_s=1.0))
