"""Command-line interface: generate, inspect, and decompose graphs.

Installed as the ``repro-scc`` console script::

    repro-scc generate --kind webspam --scale 1e-4 --out web.rgr
    repro-scc info web.rgr
    repro-scc compute web.rgr --algorithm 1PB-SCC --labels-out labels.npy
    repro-scc compute web.rgr --algorithm 2P-SCC --trace run.jsonl
    repro-scc compute web.rgr --metrics run.metrics.jsonl --heartbeat 5
    repro-scc report run.jsonl
    repro-scc trace diff baseline.jsonl candidate.jsonl
    repro-scc metrics check run.metrics.jsonl --prom run.metrics.jsonl.prom
    repro-scc compare web.rgr --time-limit 60
    repro-scc lint src/

Graphs are stored in the :mod:`repro.graph.storage` layout (binary
edges + ``.meta`` sidecar); ``compute`` runs semi-externally on the
stored file itself, so the reported block I/Os are real.

Diagnostics: ``-v`` enables INFO logging, ``-vv`` DEBUG; the
``REPRO_LOG`` environment variable (e.g. ``REPRO_LOG=debug``) sets the
same levels without touching the command line.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional

import numpy as np

from repro.bench.harness import run_one
from repro.bench.reporting import format_table
from repro.core import ALGORITHMS
from repro.exceptions import AlgorithmTimeout, NonTermination, ReproError
from repro.io.faults import SimulatedCrash
from repro.graph.io_text import read_edge_list
from repro.graph.storage import (
    load_graph,
    open_disk_graph,
    read_metadata,
    save_graph,
    write_metadata,
)
from repro.io.memory import MemoryModel
from repro.workloads.params import params_for_class
from repro.workloads.realworld import (
    cit_patents_like,
    citeseerx_like,
    go_uniprot_like,
    webspam_like,
)

GENERATORS = {
    "cit-patents": lambda scale, seed: cit_patents_like(scale, seed),
    "go-uniprot": lambda scale, seed: go_uniprot_like(scale, seed),
    "citeseerx": lambda scale, seed: citeseerx_like(scale, seed),
    "webspam": lambda scale, seed: webspam_like(scale, seed).graph,
    "massive": lambda scale, seed: params_for_class(
        "massive", scale=scale, seed=seed
    ).build().graph,
    "large": lambda scale, seed: params_for_class(
        "large", scale=scale, seed=seed
    ).build().graph,
    "small": lambda scale, seed: params_for_class(
        "small", scale=scale, seed=seed
    ).build().graph,
}


def _configure_logging(verbosity: int) -> None:
    """Set up stderr logging from ``-v`` flags and ``REPRO_LOG``.

    ``-v`` means INFO, ``-vv`` (or more) DEBUG; the ``REPRO_LOG``
    environment variable (``debug``/``info``/``warning``/...) provides a
    floor, so ``REPRO_LOG=debug repro-scc ...`` is equivalent to
    ``-vv`` without editing the command line.
    """
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    env = os.environ.get("REPRO_LOG", "").strip().upper()
    if env:
        env_level = logging.getLevelName(env)
        if isinstance(env_level, int):
            level = min(level, env_level)
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    logging.getLogger("repro").setLevel(level)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scc",
        description="Semi-external SCC computation (SIGMOD'13 reproduction)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="-v for INFO logging, -vv for DEBUG (see also REPRO_LOG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a workload graph")
    gen.add_argument("--kind", choices=sorted(GENERATORS), required=True)
    gen.add_argument("--scale", type=float, default=1e-4,
                     help="fraction of the paper's dataset size")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output graph path")

    imp = sub.add_parser("import", help="import a SNAP-style text edge list")
    imp.add_argument("edge_list", help="text file with 'u v' lines")
    imp.add_argument("--out", required=True)
    imp.add_argument("--num-nodes", type=int, default=None)

    info = sub.add_parser("info", help="show stored-graph statistics")
    info.add_argument("graph", help="stored graph path")
    info.add_argument("--full", action="store_true",
                      help="load the graph and compute degree statistics")

    compute = sub.add_parser("compute", help="compute all SCCs")
    compute.add_argument("graph")
    compute.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                         default="1PB-SCC")
    compute.add_argument("--time-limit", type=float, default=None)
    compute.add_argument("--memory-factor", type=float, default=1.0,
                         help="multiple of the paper's default M")
    compute.add_argument("--block-size", type=int, default=64 * 1024)
    compute.add_argument("--labels-out", default=None,
                         help="write per-node SCC labels as .npy")
    compute.add_argument("--trace", default=None, metavar="PATH",
                         help="write a JSONL run trace (see 'report')")
    compute.add_argument("--metrics", default=None, metavar="PATH",
                         help="sample live metrics to a JSONL snapshot "
                              "file (plus PATH.prom in Prometheus text "
                              "format); counted I/O is unchanged")
    compute.add_argument("--metrics-interval", type=float, default=1.0,
                         metavar="SECS",
                         help="sampler cadence in seconds (default 1.0)")
    compute.add_argument("--metrics-port", type=int, default=None,
                         metavar="PORT",
                         help="serve GET /metrics (Prometheus text "
                              "format) on 127.0.0.1:PORT for the "
                              "duration of the run (0 picks a free port)")
    compute.add_argument("--heartbeat", type=float, default=0.0,
                         metavar="SECS",
                         help="print a live progress/ETA line to stderr "
                              "every SECS seconds, projecting completion "
                              "against the paper's per-iteration scan "
                              "budget (0 disables)")
    compute.add_argument("--prefetch-depth", type=int, default=0, metavar="N",
                         help="pipeline edge scans through a background "
                              "prefetcher N blocks deep (0 disables; "
                              "counted I/O is unchanged)")
    compute.add_argument("--cache-blocks", type=int, default=0, metavar="N",
                         help="LRU page cache over N decoded blocks; hits "
                              "skip disk and are tallied as cache_hits, "
                              "never as block reads (0 disables)")
    compute.add_argument("--kernels", choices=["vector", "scalar"],
                         default="vector",
                         help="scan-kernel backend: 'vector' answers "
                              "ancestor tests from live Euler-tour tree "
                              "labels, 'scalar' runs the paper-literal "
                              "per-edge loops; results and counted I/O "
                              "are identical either way")
    compute.add_argument("--profile", default=None, metavar="PATH",
                         help="profile the run with cProfile and dump "
                              "pstats data to PATH (inspect with "
                              "'python -m pstats PATH')")
    compute.add_argument("--fault-plan", default=None, metavar="SPEC",
                         help="inject deterministic I/O faults, e.g. "
                              "'seed=7;read-error@3x2;crash@scan:1' "
                              "(falls back to REPRO_FAULT_PLAN; a "
                              "simulated crash exits with code 4)")
    compute.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                         help="save an O(|V|) resume snapshot to "
                              "DIR/checkpoint.npz at every edge-scan "
                              "boundary (removed on success)")
    compute.add_argument("--resume", action="store_true",
                         help="resume from an existing checkpoint in "
                              "--checkpoint-dir instead of starting over")

    compare = sub.add_parser("compare", help="run several algorithms")
    compare.add_argument("graph")
    compare.add_argument("--algorithms", nargs="+",
                         default=["1PB-SCC", "1P-SCC", "2P-SCC"])
    compare.add_argument("--time-limit", type=float, default=60.0)

    condense = sub.add_parser(
        "condense", help="build the SCC condensation on disk"
    )
    condense.add_argument("graph")
    condense.add_argument("--out", required=True,
                          help="output path for the condensed graph")
    condense.add_argument("--labels", default=None,
                          help=".npy labels (computed with 1PB-SCC if omitted)")
    condense.add_argument("--keep-multiplicities", action="store_true")

    topo = sub.add_parser(
        "toposort", help="topologically sort the condensation"
    )
    topo.add_argument("graph")
    topo.add_argument("--labels", default=None,
                      help=".npy labels (computed with 1PB-SCC if omitted)")
    topo.add_argument("--out", default=None,
                      help="write per-node layers as .npy")

    serve = sub.add_parser(
        "serve",
        help="run the SCC query daemon (see docs/service.md)",
    )
    serve.add_argument("graph", help="stored graph to serve")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks an ephemeral one, "
                            "printed on stdout)")
    serve.add_argument("--algorithm", default="1PB-SCC",
                       choices=sorted(ALGORITHMS))
    serve.add_argument("--block-size", type=int, default=None)
    serve.add_argument("--query-workers", type=int, default=4,
                       help="size of the bounded query worker pool")
    serve.add_argument("--queue-max", type=int, default=64,
                       help="hard bound on the request queue")
    serve.add_argument("--high-water", type=int, default=48,
                       help="queue depth at which requests are shed")
    serve.add_argument("--default-deadline-ms", type=int, default=1000)
    serve.add_argument("--max-deadline-ms", type=int, default=60_000)
    serve.add_argument("--admission-window-blocks", type=int,
                       default=1_000_000,
                       help="rebuild I/O budget per admission window")
    serve.add_argument("--admission-window-seconds", type=float,
                       default=60.0)
    serve.add_argument("--service-root", default=None,
                       help="durable state directory "
                            "(default: <graph>.service)")
    serve.add_argument("--fault-plan", default=None,
                       help="deterministic fault spec applied to "
                            "(re)build I/O")
    serve.add_argument("--rebuild-time-limit", type=float, default=None)
    serve.add_argument("--seed", type=int, default=0,
                       help="GRAIL traversal seed")
    serve.add_argument("--no-auto-rebuild", action="store_true",
                       help="do not schedule a rebuild on ingest")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="also serve GET /metrics, /healthz and "
                            "/readyz on this port")

    bench = sub.add_parser(
        "bench", help="run the paper's evaluation suite"
    )
    bench.add_argument("--experiments", nargs="+", default=None,
                       help="subset (table1 table3 fig12 ... fig17)")
    bench.add_argument("--scale", type=float, default=2.5e-4)
    bench.add_argument("--time-limit", type=float, default=30.0)
    bench.add_argument("--outdir", default=None,
                       help="write per-experiment CSVs and report.txt here")

    repro = sub.add_parser(
        "reproduce",
        help="run the full reproduction sweep and emit a verified artifact",
        description="Execute every table/figure benchmark as a resumable, "
                    "checkpointed sweep; emit artifact/summary.json, "
                    "report.md and a SHA-256 MANIFEST.json over the "
                    "I/O-model-deterministic outputs.",
    )
    repro.add_argument("--scale", choices=["smoke", "paper"], default="smoke",
                       help="sweep tier: 'smoke' (CI subset, every cell "
                            "deterministically completes) or 'paper' (the "
                            "EXPERIMENTS.md sweeps, INF reported)")
    repro.add_argument("--out", default=None, metavar="DIR",
                       help="sweep state + artifact directory (default: "
                            "bench_results/artifact-<tier>)")
    repro.add_argument("--resume", action="store_true",
                       help="continue an interrupted sweep: completed cells "
                            "are skipped, the in-flight cell resumes from "
                            "its scan-boundary checkpoint")
    repro.add_argument("--fresh", action="store_true",
                       help="discard any previous state in --out first")
    repro.add_argument("--cells", nargs="+", default=None, metavar="GLOB",
                       help="restrict the sweep to cells matching these "
                            "globs (e.g. 'fig12/*' '*/1PB-SCC')")
    repro.add_argument("--verify", default=None, metavar="MANIFEST",
                       help="after the sweep, diff the computed manifest "
                            "against this golden; exit 1 on drift")
    repro.add_argument("--verify-only", action="store_true",
                       help="recompute artifacts from completed cells "
                            "without running anything (requires a "
                            "finished sweep in --out)")
    repro.add_argument("--heartbeat", type=float, default=0.0, metavar="SECS",
                       help="background progress/ETA line to stderr every "
                            "SECS seconds, in addition to per-cell lines "
                            "(0 disables)")
    repro.add_argument("--scale-factor", type=float, default=None,
                       metavar="F",
                       help="override the tier's graph scale (the manifest "
                            "then no longer matches the tier's golden)")
    repro.add_argument("--time-limit", type=float, default=None,
                       metavar="SECS",
                       help="override the tier's base per-cell budget")
    repro.add_argument("--block-size", type=int, default=64 * 1024)
    repro.add_argument("--fault-cell", action="append", default=None,
                       metavar="CELL=SPEC",
                       help="plant a deterministic fault plan in one cell, "
                            "e.g. 'fig12/webspam-100pct/1P-SCC=seed=1;"
                            "crash@scan:1' (repeatable; a simulated crash "
                            "exits 4 and the sweep is then resumable)")
    repro.add_argument("--keep-work", action="store_true",
                       help="keep per-cell work/checkpoint dirs after "
                            "success (debugging)")

    report = sub.add_parser(
        "report", help="render a run trace written by 'compute --trace'"
    )
    report.add_argument("trace", help="JSONL trace path")
    report.add_argument("--max-depth", type=int, default=None,
                        help="prune the span tree below this depth")
    report.add_argument("--check", action="store_true",
                        help="validate trace invariants and exit non-zero "
                             "on any problem")

    trace = sub.add_parser(
        "trace", help="operate on JSONL run traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    tdiff = trace_sub.add_parser(
        "diff",
        help="align two traces span-by-span and attribute wall-clock, "
             "counted-I/O and cache-behaviour deltas",
    )
    tdiff.add_argument("trace_a", help="baseline trace (A)")
    tdiff.add_argument("trace_b", help="candidate trace (B)")
    tdiff.add_argument("--limit", type=int, default=10,
                       help="rows per ranking (default 10)")

    metrics = sub.add_parser(
        "metrics", help="operate on JSONL metrics snapshots"
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    mcheck = metrics_sub.add_parser(
        "check",
        help="validate a metrics snapshot file written by "
             "'compute --metrics' (schema, seq density, counter "
             "monotonicity)",
    )
    mcheck.add_argument("metrics", help="JSONL metrics path")
    mcheck.add_argument("--prom", default=None, metavar="PATH",
                        help="also parse a Prometheus text exposition "
                             "file and report its series count")

    lint = sub.add_parser(
        "lint", help="statically check the I/O and memory contracts"
    )
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to check (default: src)")
    lint.add_argument("--list-rules", action="store_true",
                      help="describe every rule and exit")
    lint.add_argument("--no-default-allowlist", action="store_true",
                      help="drop the built-in module-level exceptions")
    lint.add_argument("--sarif", metavar="PATH", default=None,
                      help="also write findings as a SARIF 2.1.0 log")
    lint.add_argument("--baseline", metavar="PATH", default=None,
                      help="baseline file of accepted findings "
                           "(default: lint-baseline.json when present)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline file")
    lint.add_argument("--write-baseline", action="store_true",
                      help="write current findings to the baseline file "
                           "and exit 0")
    lint.add_argument("--cost-report", action="store_true",
                      help="print the inferred counted-I/O cost class of "
                           "every scanning algorithm function and exit")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = GENERATORS[args.kind](args.scale, args.seed)
    save_graph(
        graph,
        args.out,
        attributes={"kind": args.kind, "scale": args.scale, "seed": args.seed},
    )
    print(f"wrote {args.out}: {graph.num_nodes:,} nodes, "
          f"{graph.num_edges:,} edges")
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.edge_list, num_nodes=args.num_nodes)
    save_graph(graph, args.out, attributes={"source": args.edge_list})
    print(f"wrote {args.out}: {graph.num_nodes:,} nodes, "
          f"{graph.num_edges:,} edges")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    meta = read_metadata(args.graph)
    print(f"format:     {meta['format']}")
    print(f"nodes:      {meta['num_nodes']:,}")
    print(f"edges:      {meta['num_edges']:,}")
    for key, value in meta.get("attributes", {}).items():
        print(f"{key + ':':<11} {value}")
    if args.full:
        from repro.graph.properties import degree_stats

        stats = degree_stats(load_graph(args.graph))
        print(f"avg degree: {stats.average_degree:.2f}")
        print(f"max out:    {stats.max_out_degree}")
        print(f"max in:     {stats.max_in_degree}")
        print(f"isolated:   {stats.isolated_nodes:,}")
    return 0


def _cmd_compute(args: argparse.Namespace) -> int:
    disk = open_disk_graph(args.graph, block_size=args.block_size)
    base = MemoryModel.default_capacity(disk.num_nodes, args.block_size)
    memory = MemoryModel(
        num_nodes=disk.num_nodes,
        capacity=int(base * args.memory_factor),
        block_size=args.block_size,
    )
    algorithm = ALGORITHMS[args.algorithm]()
    tracer = None
    writer = None
    if args.trace:
        from repro.obs import Tracer, TraceWriter

        writer = TraceWriter(
            args.trace,
            metadata={"algorithm": args.algorithm, "graph": args.graph},
        )
        tracer = Tracer(sink=writer)
    registry = None
    sampler = None
    endpoint = None
    heartbeat = None
    if args.metrics or args.metrics_port is not None or args.heartbeat:
        from repro.obs import (
            Heartbeat,
            MetricsRegistry,
            MetricsSampler,
            MetricsWriter,
            PrometheusEndpoint,
        )

        registry = MetricsRegistry()
        if args.metrics:
            sampler = MetricsSampler(
                registry,
                writer=MetricsWriter(
                    args.metrics,
                    metadata={
                        "algorithm": args.algorithm, "graph": args.graph,
                    },
                ),
                interval_s=args.metrics_interval,
                prom_path=args.metrics + ".prom",
            )
        if args.metrics_port is not None:
            endpoint = PrometheusEndpoint(registry, port=args.metrics_port)
            print(
                f"metrics: serving http://{endpoint.host}:{endpoint.port}"
                "/metrics", file=sys.stderr,
            )
        if args.heartbeat:
            heartbeat = Heartbeat(
                registry, interval_s=args.heartbeat,
                algorithm=args.algorithm,
            )
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            result = algorithm.run(
                disk,
                memory=memory,
                time_limit=args.time_limit,
                tracer=tracer,
                prefetch_depth=args.prefetch_depth,
                cache_blocks=args.cache_blocks,
                kernels=args.kernels,
                fault_plan=args.fault_plan,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                metrics=registry,
            )
        finally:
            if profiler is not None:
                profiler.disable()
                profiler.dump_stats(args.profile)
    except AlgorithmTimeout:
        print("INF: time limit exceeded", file=sys.stderr)
        return 2
    except NonTermination as exc:
        print(f"DNF: {exc}", file=sys.stderr)
        return 3
    except SimulatedCrash as exc:
        print(f"CRASH: {exc}", file=sys.stderr)
        if args.checkpoint_dir:
            print(f"resume with: --checkpoint-dir {args.checkpoint_dir} "
                  f"--resume", file=sys.stderr)
        return 4
    finally:
        if heartbeat is not None:
            heartbeat.close()
        if sampler is not None:
            sampler.close()
        if endpoint is not None:
            endpoint.close()
        if writer is not None:
            writer.close()
        disk.close()
    sizes = result.scc_sizes
    print(f"algorithm:   {args.algorithm}")
    print(f"SCCs:        {result.num_sccs:,} "
          f"({result.nontrivial_count():,} non-trivial)")
    print(f"largest SCC: {int(sizes.max()):,} nodes")
    print(f"iterations:  {result.stats.iterations}")
    print(f"block I/Os:  {result.stats.io.total:,}")
    if result.stats.io.cache_hits or result.stats.io.cache_misses:
        print(f"page cache:  {result.stats.io.cache_hits:,} hits / "
              f"{result.stats.io.cache_misses:,} misses "
              f"(hits not charged as block I/O)")
    if result.stats.io.prefetched:
        print(f"prefetch:    {result.stats.io.prefetched:,} blocks pipelined, "
              f"{result.stats.io.prefetch_stalls:,} stalls")
    if result.stats.io.io_retries or result.stats.io.faults_injected:
        print(f"faults:      {result.stats.io.faults_injected:,} injected, "
              f"{result.stats.io.io_retries:,} blocks retried "
              f"(retries not charged as block I/O)")
    if "resumed_from_boundary" in result.stats.extras:
        print(f"resumed:     from scan boundary "
              f"{result.stats.extras['resumed_from_boundary']}")
    if "checkpoint_boundaries" in result.stats.extras:
        print(f"checkpoints: {result.stats.extras['checkpoint_boundaries']} "
              f"boundary snapshot(s) saved")
    print(f"time:        {result.stats.wall_seconds:.2f}s")
    if args.labels_out:
        np.save(args.labels_out, result.labels)
        print(f"labels:      {args.labels_out}")
    if writer is not None:
        print(f"trace:       {args.trace}")
    if sampler is not None:
        print(f"metrics:     {args.metrics} "
              f"({sampler.writer.samples_written if sampler.writer else 0} "
              f"sample(s), exposition at {args.metrics}.prom)")
    if args.profile:
        print(f"profile:     {args.profile}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    records = [
        run_one(graph, name, workload=args.graph, time_limit=args.time_limit)
        for name in args.algorithms
    ]
    print(format_table(records, metric="seconds", title="Time"))
    print()
    print(format_table(records, metric="ios", title="# of block I/Os"))
    return 0


def _cmd_condense(args: argparse.Namespace) -> int:
    from repro.apps.condense_external import condense_to_disk

    disk = open_disk_graph(args.graph)
    try:
        if args.labels:
            labels = np.load(args.labels)
        else:
            labels = ALGORITHMS["1PB-SCC"]().run(disk).labels
        condensed = condense_to_disk(
            disk,
            labels,
            out_path=args.out,
            deduplicate=not args.keep_multiplicities,
        )
    finally:
        disk.close()
    num_nodes, num_edges = condensed.num_nodes, condensed.num_edges
    condensed.close()
    write_metadata(args.out, num_nodes, num_edges,
                   attributes={"condensation_of": args.graph})
    print(f"wrote {args.out}: {num_nodes:,} SCC nodes, "
          f"{num_edges:,} inter-SCC edges")
    return 0


def _cmd_toposort(args: argparse.Namespace) -> int:
    from repro.apps.toposort import semi_external_toposort

    disk = open_disk_graph(args.graph)
    try:
        labels = np.load(args.labels) if args.labels else None
        result = semi_external_toposort(disk, labels=labels)
    finally:
        disk.close()
    layers = int(result.scc_layers.max()) + 1 if result.scc_layers.size else 0
    print(f"layers:      {layers}")
    print(f"scans:       {result.scans}")
    print(f"block I/Os:  {result.io.total:,}")
    if args.out:
        np.save(args.out, result.node_layers)
        print(f"node layers: {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the SCC query daemon until shutdown or Ctrl-C."""
    from repro.constants import DEFAULT_BLOCK_SIZE
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.sampler import PrometheusEndpoint
    from repro.service import SCCServer, ServiceConfig

    config = ServiceConfig(
        graph_path=args.graph,
        algorithm=args.algorithm,
        host=args.host,
        port=args.port,
        block_size=args.block_size or DEFAULT_BLOCK_SIZE,
        query_workers=args.query_workers,
        queue_max=args.queue_max,
        high_water=args.high_water,
        default_deadline_ms=args.default_deadline_ms,
        max_deadline_ms=args.max_deadline_ms,
        admission_window_blocks=args.admission_window_blocks,
        admission_window_seconds=args.admission_window_seconds,
        rebuild_time_limit=args.rebuild_time_limit,
        service_root=args.service_root,
        fault_plan=args.fault_plan,
        seed=args.seed,
        auto_rebuild=not args.no_auto_rebuild,
    )
    registry = MetricsRegistry()
    server = SCCServer(config, registry=registry)
    server.start()
    endpoint = None
    if args.metrics_port is not None:
        endpoint = PrometheusEndpoint(
            registry,
            port=args.metrics_port,
            health=server.health_payload,
        )
        print(
            f"metrics: http://{endpoint.host}:{endpoint.port}/metrics "
            f"(+/healthz, /readyz)",
            file=sys.stderr,
        )
    # The scripts and drills parse this line; keep its shape stable.
    print(f"serving {args.graph} on {config.host}:{server.port}", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        server.stop()
    finally:
        if endpoint is not None:
            endpoint.close()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.suite import SuiteConfig, run_paper_suite

    config = SuiteConfig(scale=args.scale, time_limit=args.time_limit)
    suite = run_paper_suite(
        config=config, experiments=args.experiments, outdir=args.outdir
    )
    print(suite.report())
    if args.outdir:
        print(f"\nwrote CSVs and report.txt to {args.outdir}/")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render (or, with ``--check``, validate) a JSONL run trace."""
    from repro.obs import load_trace, render_report, validate_trace

    try:
        trace = load_trace(args.trace)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.check:
        problems = validate_trace(trace)
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        if problems:
            print(f"{len(problems)} trace invariant violation(s)",
                  file=sys.stderr)
            return 1
        print(f"OK: {len(trace.spans)} span(s), schema "
              f"v{trace.schema_version}")
        return 0
    print(render_report(trace, max_depth=args.max_depth))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace tooling; currently the span-by-span ``diff`` subcommand."""
    from repro.obs import diff_traces, load_trace, render_diff

    if args.trace_command == "diff":
        try:
            trace_a = load_trace(args.trace_a)
            trace_b = load_trace(args.trace_b)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        diff = diff_traces(trace_a, trace_b)
        print(render_diff(
            diff,
            label_a=os.path.basename(args.trace_a),
            label_b=os.path.basename(args.trace_b),
            limit=args.limit,
        ))
        return 0
    return 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Metrics tooling; currently the schema ``check`` subcommand."""
    from repro.obs import load_metrics, parse_prometheus_text, validate_metrics

    if args.metrics_command == "check":
        try:
            data = load_metrics(args.metrics)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        problems = validate_metrics(data)
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        if problems:
            print(f"{len(problems)} metrics invariant violation(s)",
                  file=sys.stderr)
            return 1
        print(f"OK: {len(data.samples)} sample(s), schema "
              f"v{data.schema_version}")
        if args.prom:
            try:
                with open(args.prom, "r", encoding="utf-8") as handle:  # repro: allow[IO001]
                    series = parse_prometheus_text(handle.read())
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(f"OK: {len(series)} Prometheus series in {args.prom}")
        return 0
    return 1


#: Baseline file consulted by ``lint`` when none is named explicitly.
_DEFAULT_BASELINE = "lint-baseline.json"


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the contract analyzer.

    Exit codes: 0 clean (or only baselined findings), 1 when any new
    finding survives filtering, 2 when the analyzer itself fails
    (unreadable input, syntax error, or an internal crash).
    """
    from repro.analysis_static import ALL_RULES, Analyzer
    from repro.analysis_static.baseline import (
        apply_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.analysis_static.iocost import cost_report
    from repro.analysis_static.sarif import to_sarif_json

    if args.list_rules:
        for rule_cls in ALL_RULES:
            print(f"{rule_cls.rule_id}  {rule_cls.title}")
            print(f"       {rule_cls.rationale}")
        return 0
    analyzer = Analyzer(allowlist={} if args.no_default_allowlist else None)
    try:
        modules = analyzer.load_paths(args.paths or ["src"])
        if args.cost_report:
            print(cost_report(modules))
            return 0
        violations = analyzer.analyze_modules(modules)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"error: cannot parse {exc.filename}:{exc.lineno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except Exception as exc:  # analyzer crash, not a finding
        print(f"error: analyzer failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2

    baseline_path = args.baseline or _DEFAULT_BASELINE
    if args.write_baseline:
        write_baseline(baseline_path, violations)
        print(f"wrote {len(violations)} finding(s) to {baseline_path}")
        return 0
    baselined: List = []
    if not args.no_baseline and os.path.exists(baseline_path):
        try:
            violations, baselined = apply_baseline(
                violations, load_baseline(baseline_path)
            )
        except (ValueError, KeyError) as exc:
            print(f"error: malformed baseline {baseline_path}: {exc}",
                  file=sys.stderr)
            return 2

    if args.sarif:
        sarif_json = to_sarif_json(violations, rules=analyzer.rules)
        with open(args.sarif, "w", encoding="utf-8") as handle:  # repro: allow[IO001]
            handle.write(sarif_json + "\n")

    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} contract violation(s)", file=sys.stderr)
        return 1
    suffix = f" ({len(baselined)} baselined)" if baselined else ""
    print(f"OK: {analyzer.files_checked} file(s) contract-clean{suffix}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.artifact.runner import ReproduceConfig, reproduce

    fault_cells = {}
    for entry in args.fault_cell or []:
        cell_id, sep, spec = entry.partition("=")
        if not sep or not cell_id or not spec:
            print(f"error: --fault-cell needs CELL=SPEC, got {entry!r}",
                  file=sys.stderr)
            return 2
        fault_cells[cell_id] = spec
    return reproduce(ReproduceConfig(
        tier=args.scale,
        out_dir=args.out,
        resume=args.resume,
        fresh=args.fresh,
        only=tuple(args.cells or ()),
        verify=args.verify,
        verify_only=args.verify_only,
        fault_cells=fault_cells,
        heartbeat=args.heartbeat,
        scale=args.scale_factor,
        time_limit=args.time_limit,
        block_size=args.block_size,
        keep_work=args.keep_work,
    ))


_COMMANDS = {
    "generate": _cmd_generate,
    "import": _cmd_import,
    "info": _cmd_info,
    "compute": _cmd_compute,
    "compare": _cmd_compare,
    "condense": _cmd_condense,
    "toposort": _cmd_toposort,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
    "reproduce": _cmd_reproduce,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
