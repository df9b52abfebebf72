"""The benchmark-regression gate: golden I/O counts and SCC partitions.

This runner executes small-scale, fully deterministic variants of the
two headline benchmarks (``bench_table1_reduction.py`` — 1PB-SCC's
reduction on the webspam stand-in — and ``bench_fig12_webspam_size.py``
— the induced-subgraph size sweep) and compares what the I/O model
*counted* against golden JSON checked into ``benchmarks/golden/``:

* the six counted :class:`~repro.io.counter.IOStats` fields per case
  (block reads are the paper's ``# of I/Os`` — any drift is a
  regression, and an *improvement* must be acknowledged by regenerating
  the golden with ``--write-golden``);
* the SCC partition, fingerprinted as a SHA-256 over the canonicalised
  label array (wrong answers can't hide behind matching I/O);
* iteration counts and SCC totals.

The same cases are then re-run with prefetching enabled (cache off) and
must count *identical* I/O — the transparency contract of
``repro.io.prefetch`` enforced in CI on every push.  Each case is also
re-run with the *other* scan-kernel backend (``--kernels`` picks the
primary; default vector) and must produce identical counted I/O,
iteration counts and partition fingerprints — the decision-equivalence
contract of ``repro.kernels``.  The goldens were generated with the
scalar (paper-literal) semantics, so a passing gate proves both
backends still reproduce the seed trajectories exactly.

Finally each case is re-run under a fixed fault plan of transient read
errors (``FAULT_PLAN``) and must count the *same* I/O as the clean run
— failed attempts are retried, never charged — with ``io_retries``
equal to exactly the plan's :meth:`FaultPlan.planned_retries` and an
unchanged partition fingerprint.  That is the retry-transparency
contract of ``repro.io.faults``: a disk that misbehaves transiently
costs retries, not correctness and not counted I/O.

Each case also gets a *metrics-transparency* re-run with a live
:class:`~repro.obs.metrics.MetricsRegistry` attached and the background
:class:`~repro.obs.sampler.MetricsSampler` running at its default
cadence.  The sampler only observes — so counted I/O, iteration counts
and the partition fingerprint must be byte-identical to the primary
run.  That is the accounting-transparency contract of the live metrics
plane: turning telemetry on never changes what the model counts.

Wall-clock is deliberately NOT gated here (CI machines are noisy); the
counted block transfers are exact and machine-independent, which is the
point of measuring I/O in-model.

Usage::

    python -m benchmarks.regression --write-golden       # refresh goldens
    python -m benchmarks.regression --check              # CI gate
    python -m benchmarks.regression --check --out results.json \
        --trace-dir traces/                              # keep artifacts
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.artifact.manifest import partition_fingerprint
from repro.bench.harness import run_one
from repro.io.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import MetricsSampler, MetricsWriter
from repro.graph.builders import induced_subgraph
from repro.graph.digraph import Digraph
from repro.workloads.realworld import webspam_like

#: Reproduction scale for the gate, relative to the paper's webspam
#: graph.  Small enough for CI, big enough that every algorithm touches
#: multiple blocks per scan.  Overridable for local experimentation —
#: but goldens record the scale they were generated at, and --check
#: refuses to compare across scales.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "2.5e-4"))

#: Per-run wall-clock limit (a hang should fail the gate, not stall CI).
TIME_LIMIT = float(os.environ.get("REPRO_BENCH_TIME_LIMIT", "300"))

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "regression.json")

#: The six counted transfer fields every case is pinned on.
IO_FIELDS = (
    "seq_reads", "seq_writes", "rand_reads", "rand_writes",
    "bytes_read", "bytes_written",
)

#: Lookahead depth used for the prefetch-transparency re-runs.
PREFETCH_DEPTH = 8

#: Fault plan for the retry-transparency re-runs: the first three block
#: reads fail transiently (the first one twice).  The smallest gated
#: case performs exactly 3 block reads, so ordinals 0-2 are the largest
#: set guaranteed to fire everywhere — which keeps ``io_retries`` equal
#: to ``planned_retries()`` for every case.
FAULT_PLAN = "seed=1;read-error@0x2;read-error@1;read-error@2"

#: Fig. 12 sweep, mirroring bench_fig12_webspam_size.py (including its
#: skip rule: 2P-SCC and DFS-SCC only survive the small subgraphs).
FIG12_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)
FIG12_ALGORITHMS = ("1PB-SCC", "1P-SCC", "2P-SCC", "DFS-SCC")


def _webspam() -> Digraph:
    """The deterministic webspam stand-in at gate scale (Table 1's graph)."""
    return webspam_like(scale=0.4 * SCALE, seed=0, avg_degree=12.0).graph


def _subgraph_at(fraction: float) -> Digraph:
    """Fig. 12's induced subgraph at ``fraction`` of the node set."""
    graph = _webspam()
    if fraction >= 1.0:
        return graph
    rng = np.random.default_rng(int(fraction * 100))
    nodes = rng.choice(
        graph.num_nodes,
        size=int(round(graph.num_nodes * fraction)),
        replace=False,
    )
    sub, _ = induced_subgraph(graph, nodes)
    return sub


def _cases() -> List[Tuple[str, str, Callable[[], Digraph]]]:
    """(case_id, algorithm, graph factory) for every gated run."""
    cases: List[Tuple[str, str, Callable[[], Digraph]]] = [
        ("table1/webspam/1PB-SCC", "1PB-SCC", _webspam),
    ]
    for fraction in FIG12_FRACTIONS:
        for algorithm in FIG12_ALGORITHMS:
            if algorithm == "2P-SCC" and fraction > 0.4:
                continue  # bench_fig12's skip rule
            if algorithm == "DFS-SCC" and fraction > 0.2:
                # Tighter than bench_fig12: at 40% DFS-SCC straddles the
                # time limit, and a timeout status is machine-dependent —
                # the gate pins only deterministic outcomes.
                continue
            cases.append(
                (
                    f"fig12/webspam-{int(fraction * 100)}pct/{algorithm}",
                    algorithm,
                    lambda fraction=fraction: _subgraph_at(fraction),
                )
            )
    return cases


def _run_case(
    case_id: str,
    algorithm: str,
    graph: Digraph,
    trace_dir: Optional[str],
    prefetch_depth: int = 0,
    kernels: str = "vector",
    trace_suffix: str = "",
    fault_plan: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    trace_path = None
    if trace_dir is not None:
        suffix = ("-prefetch" if prefetch_depth else "") + trace_suffix
        trace_path = os.path.join(
            trace_dir, case_id.replace("/", "_") + suffix + ".jsonl"
        )
    record = run_one(
        graph,
        algorithm,
        workload=case_id,
        time_limit=TIME_LIMIT,
        keep_result=True,
        trace_path=trace_path,
        prefetch_depth=prefetch_depth,
        kernels=kernels,
        fault_plan=fault_plan,
        metrics=metrics,
    )
    entry: Dict[str, object] = {
        "algorithm": algorithm,
        "status": record.status,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
    }
    if record.ok:
        assert record.result is not None
        io = record.result.stats.io
        entry["io"] = {fld: getattr(io, fld) for fld in IO_FIELDS}
        entry["iterations"] = record.iterations
        entry["num_sccs"] = record.num_sccs
        entry["partition_sha256"] = partition_fingerprint(record.result.labels)
        if fault_plan is not None:
            entry["io_retries"] = io.io_retries
            entry["faults_injected"] = io.faults_injected
    if trace_path is not None:
        entry["trace"] = os.path.basename(trace_path)
    return entry


def _compare_case(case_id: str, golden: Dict, current: Dict) -> List[str]:
    """Human-readable mismatches between one golden and current entry."""
    problems: List[str] = []
    if golden.get("status") != current.get("status"):
        problems.append(
            f"{case_id}: status {current.get('status')!r} != "
            f"golden {golden.get('status')!r}"
        )
        return problems
    golden_io = golden.get("io", {})
    current_io = current.get("io", {})
    for fld in IO_FIELDS:
        if golden_io.get(fld) != current_io.get(fld):
            problems.append(
                f"{case_id}: I/O-count regression in {fld}: "
                f"{current_io.get(fld)} != golden {golden_io.get(fld)}"
            )
    for key in ("iterations", "num_sccs", "partition_sha256", "nodes", "edges"):
        if golden.get(key) != current.get(key):
            problems.append(
                f"{case_id}: {key} {current.get(key)!r} != "
                f"golden {golden.get(key)!r}"
            )
    return problems


def run_gate(
    write_golden: bool,
    out_path: Optional[str],
    trace_dir: Optional[str],
    skip_prefetch_check: bool = False,
    skip_kernel_check: bool = False,
    skip_fault_check: bool = False,
    skip_metrics_check: bool = False,
    kernels: str = "vector",
) -> int:
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    results: Dict[str, Dict[str, object]] = {}
    problems: List[str] = []
    other_kernels = "scalar" if kernels == "vector" else "vector"

    for case_id, algorithm, factory in _cases():
        graph = factory()
        entry = _run_case(case_id, algorithm, graph, trace_dir, kernels=kernels)
        results[case_id] = entry
        io = entry.get("io", {})
        print(
            f"  {case_id}: status={entry['status']} "
            f"reads={io.get('seq_reads', 0) + io.get('rand_reads', 0)} "
            f"writes={io.get('seq_writes', 0) + io.get('rand_writes', 0)} "
            f"sccs={entry.get('num_sccs')}"
        )
        if not skip_prefetch_check and entry["status"] == "ok":
            pf_entry = _run_case(
                case_id, algorithm, graph, trace_dir,
                prefetch_depth=PREFETCH_DEPTH, kernels=kernels,
            )
            for fld in IO_FIELDS:
                base_value = entry.get("io", {}).get(fld)  # type: ignore[union-attr]
                pf_value = pf_entry.get("io", {}).get(fld)  # type: ignore[union-attr]
                if base_value != pf_value:
                    problems.append(
                        f"{case_id}: prefetching changed counted {fld}: "
                        f"{pf_value} != {base_value} (transparency broken)"
                    )
            if entry.get("partition_sha256") != pf_entry.get("partition_sha256"):
                problems.append(
                    f"{case_id}: prefetching changed the SCC partition"
                )
        if not skip_kernel_check and entry["status"] == "ok":
            # Kernel transparency: the other backend must retrace the
            # run exactly — same counted I/O, iterations and partition.
            ok_entry = _run_case(
                case_id, algorithm, graph, trace_dir,
                kernels=other_kernels, trace_suffix=f"-{other_kernels}",
            )
            for fld in IO_FIELDS:
                base_value = entry.get("io", {}).get(fld)  # type: ignore[union-attr]
                ok_value = ok_entry.get("io", {}).get(fld)  # type: ignore[union-attr]
                if base_value != ok_value:
                    problems.append(
                        f"{case_id}: {other_kernels} kernels changed counted "
                        f"{fld}: {ok_value} != {base_value} "
                        f"(decision equivalence broken)"
                    )
            for key in ("iterations", "partition_sha256"):
                if entry.get(key) != ok_entry.get(key):
                    problems.append(
                        f"{case_id}: {other_kernels} kernels changed {key}: "
                        f"{ok_entry.get(key)!r} != {entry.get(key)!r}"
                    )
        if not skip_fault_check and entry["status"] == "ok":
            # Retry transparency: transient read errors must cost
            # retries only — same counted I/O, same partition, and
            # io_retries equal to exactly the planned failure count.
            plan = FaultPlan.parse(FAULT_PLAN)
            fault_entry = _run_case(
                case_id, algorithm, graph, trace_dir,
                kernels=kernels, trace_suffix="-faulted",
                fault_plan=FAULT_PLAN,
            )
            if fault_entry["status"] != "ok":
                problems.append(
                    f"{case_id}: faulted re-run failed with status "
                    f"{fault_entry['status']!r} (retries should recover)"
                )
            else:
                for fld in IO_FIELDS:
                    base_value = entry.get("io", {}).get(fld)  # type: ignore[union-attr]
                    f_value = fault_entry.get("io", {}).get(fld)  # type: ignore[union-attr]
                    if base_value != f_value:
                        problems.append(
                            f"{case_id}: transient faults changed counted "
                            f"{fld}: {f_value} != {base_value} "
                            f"(retries must not be charged)"
                        )
                if fault_entry.get("io_retries") != plan.planned_retries():
                    problems.append(
                        f"{case_id}: io_retries "
                        f"{fault_entry.get('io_retries')} != planned "
                        f"{plan.planned_retries()}"
                    )
                if entry.get("partition_sha256") != fault_entry.get(
                    "partition_sha256"
                ):
                    problems.append(
                        f"{case_id}: transient faults changed the SCC "
                        f"partition"
                    )
        if not skip_metrics_check and entry["status"] == "ok":
            # Accounting transparency: a live metrics registry plus the
            # background sampler at default cadence must not change one
            # counted transfer or one partition label.
            registry = MetricsRegistry()
            writer = None
            if trace_dir is not None:
                writer = MetricsWriter(
                    os.path.join(
                        trace_dir,
                        case_id.replace("/", "_") + ".metrics.jsonl",
                    ),
                    metadata={"case": case_id},
                )
            sampler = MetricsSampler(registry, writer=writer)
            try:
                m_entry = _run_case(
                    case_id, algorithm, graph, trace_dir,
                    kernels=kernels, trace_suffix="-metrics",
                    metrics=registry,
                )
            finally:
                sampler.close()
            for fld in IO_FIELDS:
                base_value = entry.get("io", {}).get(fld)  # type: ignore[union-attr]
                m_value = m_entry.get("io", {}).get(fld)  # type: ignore[union-attr]
                if base_value != m_value:
                    problems.append(
                        f"{case_id}: metrics sampling changed counted "
                        f"{fld}: {m_value} != {base_value} "
                        f"(accounting transparency broken)"
                    )
            for key in ("iterations", "partition_sha256"):
                if entry.get(key) != m_entry.get(key):
                    problems.append(
                        f"{case_id}: metrics sampling changed {key}: "
                        f"{m_entry.get(key)!r} != {entry.get(key)!r}"
                    )

    payload = {
        "schema": 1,
        "scale": SCALE,
        "cases": results,
    }

    if write_golden:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {GOLDEN_PATH} ({len(results)} cases)")
    else:
        if not os.path.exists(GOLDEN_PATH):
            problems.append(
                f"no golden file at {GOLDEN_PATH}; run --write-golden first"
            )
        else:
            with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
                golden = json.load(handle)
            if golden.get("scale") != SCALE:
                problems.append(
                    f"golden was generated at scale {golden.get('scale')}, "
                    f"this run used {SCALE}; set REPRO_BENCH_SCALE to match"
                )
            else:
                golden_cases = golden.get("cases", {})
                for case_id in sorted(set(golden_cases) | set(results)):
                    if case_id not in results:
                        problems.append(f"{case_id}: in golden but not run")
                        continue
                    if case_id not in golden_cases:
                        problems.append(
                            f"{case_id}: not in golden; run --write-golden"
                        )
                        continue
                    problems.extend(
                        _compare_case(
                            case_id, golden_cases[case_id], results[case_id]
                        )
                    )

    if out_path is not None:
        report = dict(payload)
        report["problems"] = problems
        report["golden"] = os.path.relpath(GOLDEN_PATH)
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {out_path}")

    if problems:
        print(f"\n{len(problems)} regression(s):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print("\nbench-regression gate: all cases match golden" if not write_golden
          else "bench-regression goldens refreshed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.regression", description=__doc__.splitlines()[0]
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--check", action="store_true",
        help="compare against benchmarks/golden/regression.json (CI gate)",
    )
    mode.add_argument(
        "--write-golden", action="store_true",
        help="run all cases and (re)write the golden file",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the full result JSON here (CI artifact)",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write a JSONL run trace per case here (CI artifact)",
    )
    parser.add_argument(
        "--skip-prefetch-check", action="store_true",
        help="skip the prefetch-transparency re-runs (halves runtime)",
    )
    parser.add_argument(
        "--skip-kernel-check", action="store_true",
        help="skip the other-kernel transparency re-runs",
    )
    parser.add_argument(
        "--skip-fault-check", action="store_true",
        help="skip the retry-transparency (fault-injection) re-runs",
    )
    parser.add_argument(
        "--skip-metrics-check", action="store_true",
        help="skip the metrics accounting-transparency re-runs",
    )
    parser.add_argument(
        "--kernels", choices=["vector", "scalar"], default="vector",
        help="scan-kernel backend for the primary runs; the transparency "
             "re-run uses the other backend unless --skip-kernel-check",
    )
    args = parser.parse_args(argv)
    return run_gate(
        write_golden=args.write_golden,
        out_path=args.out,
        trace_dir=args.trace_dir,
        skip_prefetch_check=args.skip_prefetch_check,
        skip_kernel_check=args.skip_kernel_check,
        skip_fault_check=args.skip_fault_check,
        skip_metrics_check=args.skip_metrics_check,
        kernels=args.kernels,
    )


if __name__ == "__main__":
    raise SystemExit(main())
