"""Edge-scan CPU throughput of the vector kernels versus the scalar loops.

This is the headline measurement for the ``repro.kernels`` layer: the
vector backend answers every ancestor test from the spanning tree's
live Euler-tour labels (two compares per test) instead of walking
parent pointers, and gathers scan-frozen values per batch with numpy.  The claim gated here: **at least 2x edge-scan throughput
(edges classified per second) for 1P-SCC** on the fig12-style webspam
stand-in, with identical SCC partitions.  1PB/2P/DFS throughputs are
recorded alongside for the full picture.

Measurement regime: the *simulated disk is off* (the inverse of
``bench_prefetch``'s regime) — this benchmark isolates the CPU side of
the scan loops, so counted transfers must cost only their real
microseconds.  Throughput is computed from the run's own trace: every
scan span carries an ``edges-classified`` counter and its wall time, so

    throughput = sum(edges-classified) / sum(scan-span wall seconds)

over the algorithm's scan spans ("edge-scan" for 1P, "batch-scan" for
1PB, "pushdown-scan"/"search-scan" for 2P, "dfs-scan" for DFS).  That
numerator is identical across backends by the transparency contract
(checked per run below and byte-for-byte by ``benchmarks/regression.py``),
so the ratio compares pure classification CPU.  Methodology details:
``benchmarks/README.md``.

Run standalone (pytest-benchmark not required)::

    python -m benchmarks.bench_kernels                # default output
    python -m benchmarks.bench_kernels --out BENCH_kernels.json

Environment: ``REPRO_BENCH_SCALE`` scales the webspam stand-in (same
knob as the regression gate), ``REPRO_BENCH_ROUNDS`` the timing rounds
(median is reported).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

# CPU benchmark: the simulated disk must be OFF no matter what the
# shell exports — a per-block sleep would drown the scan-loop CPU this
# benchmark exists to measure.  Must happen before repro.io is used
# (devices read the env at construction).
os.environ["REPRO_SIM_SEEK_MS"] = "0"
os.environ["REPRO_SIM_TRANSFER_MS"] = "0"

from repro import compute_sccs  # noqa: E402
from repro.core.validate import partitions_equal  # noqa: E402
from repro.graph.digraph import Digraph  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.workloads.realworld import webspam_like  # noqa: E402

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "2.5e-4"))
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "3"))

#: The spans that cover each algorithm's edge-classification work; all
#: carry the ``edges-classified`` counter.
SCAN_SPANS: Dict[str, Tuple[str, ...]] = {
    "1P-SCC": ("edge-scan",),
    "1PB-SCC": ("batch-scan",),
    "2P-SCC": ("pushdown-scan", "search-scan"),
    "DFS-SCC": ("dfs-scan",),
}

#: Workload scale per algorithm, as a fraction of the gate scale: the
#: per-edge algorithms handle the full stand-in, the heavier trees get
#: proportionally smaller graphs.  DFS-SCC gets the smallest slice —
#: its per-move preorder renumbering is superlinear in |V| (the paper's
#: Cost-3), which is why the paper itself measures DFS-SCC only at the
#: cheapest points (see benchmarks/README.md's conventions).
WORKLOAD_FRACTION: Dict[str, float] = {
    "1P-SCC": 1.0,
    "1PB-SCC": 1.0,
    "2P-SCC": 0.4,
    "DFS-SCC": 0.05,
}

#: 8 KiB blocks, as in bench_prefetch: hundreds of blocks per scan at
#: gate scale, so per-batch kernel dispatch dominates per-call overhead.
BLOCK_SIZE = 8192

#: The acceptance bar: 1P-SCC must classify edges at least this many
#: times faster with the vector backend.
MIN_SPEEDUP = 2.0
GATED_ALGORITHM = "1P-SCC"

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_kernels.json",
)


def _workload(fraction: float) -> Digraph:
    return webspam_like(scale=fraction * SCALE, seed=0, avg_degree=12.0).graph


def _scan_metrics(tracer: Tracer, algorithm: str) -> Tuple[int, float]:
    """(edges classified, scan wall seconds) summed over the scan spans."""
    names = SCAN_SPANS[algorithm]
    edges = 0
    seconds = 0.0
    for span in tracer.spans:
        if span.name in names:
            edges += int(span.counters.get("edges-classified", 0))
            seconds += span.wall_seconds
    return edges, seconds


def _time_backend(
    graph: Digraph, algorithm: str, kernels: str, rounds: int
) -> Dict[str, object]:
    """Median-of-``rounds`` scan throughput for one (algorithm, backend)."""
    throughputs: List[float] = []
    edges = 0
    scan_seconds = 0.0
    rebuilds = 0
    relabels = 0
    fast_path = 0
    labels = None
    iterations = None
    for _ in range(rounds):
        tracer = Tracer()
        result = compute_sccs(
            graph,
            algorithm=algorithm,
            block_size=BLOCK_SIZE,
            tracer=tracer,
            kernels=kernels,
        )
        edges, scan_seconds = _scan_metrics(tracer, algorithm)
        if scan_seconds <= 0 or edges == 0:
            raise RuntimeError(
                f"{algorithm}: no scan-span signal (edges={edges}, "
                f"seconds={scan_seconds})"
            )
        throughputs.append(edges / scan_seconds)
        totals: Dict[str, int] = {}
        for span in tracer.spans:
            for key, value in span.counters.items():
                totals[key] = totals.get(key, 0) + int(value)
        rebuilds = totals.get("oracle-rebuilds", 0)
        relabels = totals.get("oracle-relabels", 0)
        fast_path = totals.get("kernel-fast-path", 0)
        labels = result.labels
        iterations = result.stats.iterations
    return {
        "kernels": kernels,
        "rounds": rounds,
        "edges_classified": edges,
        "scan_seconds_last": scan_seconds,
        "throughput_median": statistics.median(throughputs),
        "throughput_best": max(throughputs),
        "throughput_all": throughputs,
        "oracle_rebuilds": rebuilds,
        "oracle_relabels": relabels,
        "kernel_fast_path": fast_path,
        "iterations": iterations,
        "_labels": labels,  # stripped before serialization
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.bench_kernels",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT, metavar="PATH",
        help=f"result JSON path (default: {os.path.relpath(DEFAULT_OUT)})",
    )
    parser.add_argument(
        "--rounds", type=int, default=ROUNDS,
        help="timing rounds per cell (median reported)",
    )
    parser.add_argument(
        "--no-assert", action="store_true",
        help="record results without enforcing the 2x bar",
    )
    args = parser.parse_args(argv)

    results: Dict[str, Dict[str, object]] = {}
    failures: List[str] = []
    workloads: Dict[str, Dict[str, object]] = {}
    for algorithm, spans in SCAN_SPANS.items():
        fraction = WORKLOAD_FRACTION[algorithm]
        graph = _workload(fraction)
        workloads[algorithm] = {
            "generator": "webspam_like",
            "scale": fraction * SCALE,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
        }
        print(
            f"{algorithm}: webspam-like scale={fraction * SCALE:g} "
            f"({graph.num_nodes:,} nodes, {graph.num_edges:,} edges), "
            f"scan spans {'/'.join(spans)}"
        )
        scalar = _time_backend(graph, algorithm, "scalar", args.rounds)
        vector = _time_backend(graph, algorithm, "vector", args.rounds)
        if not partitions_equal(scalar.pop("_labels"), vector.pop("_labels")):
            raise RuntimeError(f"{algorithm}: kernels changed the SCC partition")
        if scalar["iterations"] != vector["iterations"]:
            raise RuntimeError(f"{algorithm}: kernels changed the iteration count")
        scalar_tp = float(scalar["throughput_median"])  # type: ignore[arg-type]
        vector_tp = float(vector["throughput_median"])  # type: ignore[arg-type]
        speedup = vector_tp / scalar_tp if scalar_tp > 0 else 0.0
        results[algorithm] = {
            "scalar": scalar,
            "vector": vector,
            "speedup": speedup,
        }
        print(
            f"  scalar {scalar_tp:,.0f} edges/s -> vector {vector_tp:,.0f} "
            f"edges/s ({vector['kernel_fast_path']:,} edges classified, "
            f"{vector['oracle_relabels']:,} tokens relabelled, "
            f"{vector['oracle_rebuilds']} full renumbers): {speedup:.2f}x"
        )
        if algorithm == GATED_ALGORITHM and speedup < MIN_SPEEDUP:
            failures.append(
                f"{algorithm}: {speedup:.2f}x < {MIN_SPEEDUP:.1f}x bar"
            )

    payload = {
        "schema": 1,
        "workloads": workloads,
        "block_size": BLOCK_SIZE,
        "simulated_disk": {
            "seek_ms": 0,
            "transfer_ms": 0,
            "note": (
                "forced off: this benchmark isolates scan-loop CPU; the "
                "I/O-side regime is bench_prefetch's job"
            ),
        },
        "metric": (
            "edges classified per second of scan-span wall time "
            "(sum of edges-classified counters / sum of scan-span seconds)"
        ),
        "gate": {"algorithm": GATED_ALGORITHM, "min_speedup": MIN_SPEEDUP},
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")

    if failures and not args.no_assert:
        print("\nbelow the speedup bar:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
