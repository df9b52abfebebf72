"""Compute worker: opens a stored graph semi-externally and computes SCCs.

Run as a child process by the benchmark, the way ``repro-scc compute``
runs: the graph stays on disk, so the process's peak RSS covers only
what the algorithm keeps resident.  Writes one JSON record to ``--out``.

    python3 -m perfbench.worker --graph G --algorithm 1P-SCC \\
        --out result.json [--condense] [--trace]

It makes one untraced sample.  With ``--trace`` it then makes one
traced sample, for the per-layer split and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Any, Dict, Optional

#: Wall-clock limit of one computation; hitting it is an INF sample.
TIME_LIMIT_S = 150.0


def _sample(graph_path: str, algorithm: str, condense: bool,
            tracer: Optional[Any] = None) -> Dict[str, Any]:
    import repro.apps.condense_external as condense_external
    from repro.core import ALGORITHMS
    from repro.exceptions import AlgorithmTimeout, NonTermination
    from repro.graph.storage import open_disk_graph

    from perfbench.checks import partition_fingerprint

    disk = open_disk_graph(graph_path)
    condensed = None
    try:
        started = time.perf_counter()
        try:
            result = ALGORITHMS[algorithm]().run(
                disk, time_limit=TIME_LIMIT_S, tracer=tracer
            )
            io = result.stats.io
            if condense:
                before = disk.counter.snapshot()
                # Looked up on the module so a traced run's wrapper sees it.
                condensed = condense_external.condense_to_disk(
                    disk, result.labels, out_path=graph_path + ".condensed"
                )
                io = io + disk.counter.since(before)
        except (AlgorithmTimeout, NonTermination) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        compute_s = time.perf_counter() - started
        sample: Dict[str, Any] = {
            "ok": True,
            "began": started,
            "compute_s": compute_s,
            "io_blocks": io.total,
            "read_blocks": io.seq_reads + io.rand_reads,
            "write_blocks": io.seq_writes + io.rand_writes,
            "iterations": result.stats.iterations,
            "fingerprint": partition_fingerprint(result.labels),
        }
        if condensed is not None:
            sample["condensed_nodes"] = condensed.num_nodes
            sample["condensed_edges"] = condensed.num_edges
        return sample
    finally:
        if condensed is not None:
            condensed.unlink()
        disk.close()


def _traced_sample(graph_path: str, algorithm: str, condense: bool) -> Dict[str, Any]:
    from repro.obs import Tracer

    from perfbench.layers import Probe, Recorder, layer_metrics, summarize

    recorder = Recorder()
    tracer = Tracer()
    with Probe(recorder):
        sample = _sample(graph_path, algorithm, condense, tracer=tracer)
    if not sample["ok"]:
        return sample
    summary = summarize(recorder)
    metrics = layer_metrics(summary)
    program_counters: Dict[str, int] = {}
    for span in tracer.spans:
        for key, value in span.counters.items():
            program_counters[key] = program_counters.get(key, 0) + value
    fast = program_counters.get("kernel-fast-path", 0)
    attempts = fast + program_counters.get("kernel-fallbacks", 0)
    metrics.update({
        "io.read_blocks": float(sample["read_blocks"]),
        "io.write_blocks": float(sample["write_blocks"]),
        "kernels.edges_classified": float(attempts),
        "kernels.fast_path_ratio": fast / attempts if attempts else 0.0,
        "core.iterations": float(sample["iterations"]),
        "core.reduce_s": sum(s.wall_seconds for s in tracer.spans
                             if s.name == "reduce-scan"),
        "core.self_s": max(0.0, sample["compute_s"] - summary["root_time"]),
    })
    sample["layers"] = metrics
    return sample


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graph", required=True)
    parser.add_argument("--algorithm", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--condense", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sample = _sample(args.graph, args.algorithm, args.condense)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = None
    if args.trace and sample["ok"]:
        traced = _traced_sample(args.graph, args.algorithm, args.condense)
    record = {"sample": sample, "traced": traced, "peak_rss_mb": peak_rss_mb}
    tmp = args.out + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(record, handle)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
