"""Shared interface and result types for the SCC algorithms.

Every algorithm consumes a :class:`~repro.graph.diskgraph.DiskGraph`
under a :class:`~repro.io.memory.MemoryModel` and produces an
:class:`SCCResult`: per-node labels plus a :class:`RunStats` record with
the two quantities the paper's evaluation reports — wall-clock time and
the number of block I/Os — alongside per-iteration reduction stats
(Table 1's rows).
"""

from __future__ import annotations

import logging
import os
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import AlgorithmTimeout, CheckpointError
from repro.graph.diskgraph import DiskGraph
from repro.io.checkpoint import CheckpointSession, LoadedCheckpoint
from repro.io.counter import IOCounter, IOStats
from repro.io.edgefile import EdgeFile
from repro.io.faults import FaultInjector, FaultPlan, SimulatedCrash
from repro.io.memory import MemoryModel
from repro.io.prefetch import PageCache, live_prefetch_queue_depth
from repro.kernels import ScanKernels, resolve_kernels
from repro.obs.heartbeat import SCAN_BUDGETS, predicted_blocks_per_scan
from repro.obs.metrics import MetricsRegistry, install_io_metrics
from repro.obs.tracer import NULL_TRACER, Tracer, iteration_io

logger = logging.getLogger("repro.core")


class Deadline:
    """A wall-clock budget that raises :class:`AlgorithmTimeout` when hit."""

    def __init__(self, algorithm: str, limit_seconds: Optional[float]) -> None:
        self.algorithm = algorithm
        self.limit_seconds = limit_seconds
        self._start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        """Seconds since the deadline was armed."""
        return time.perf_counter() - self._start

    def check(self) -> None:
        """Raise :class:`AlgorithmTimeout` when the budget is exhausted."""
        if self.limit_seconds is not None and self.elapsed > self.limit_seconds:
            raise AlgorithmTimeout(self.algorithm, self.limit_seconds)


@dataclass
class IterationStats:
    """Per-iteration graph reduction record (the paper's Table 1).

    ``io`` is this iteration's block-transfer delta, populated from the
    tracer's iteration spans when a run is traced (``None`` on untraced
    runs — measuring it for free requires the span snapshots).
    """

    iteration: int
    nodes_reduced: int
    edges_reduced: int
    live_nodes: int
    live_edges: int
    io: Optional[IOStats] = None

    def to_dict(self) -> Dict[str, object]:
        """Serialize for reports, CSV export and trace summaries."""
        payload: Dict[str, object] = {
            "iteration": self.iteration,
            "nodes_reduced": self.nodes_reduced,
            "edges_reduced": self.edges_reduced,
            "live_nodes": self.live_nodes,
            "live_edges": self.live_edges,
        }
        if self.io is not None:
            payload["io"] = self.io.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "IterationStats":
        """Rebuild a row from :meth:`to_dict` output (checkpoint resume)."""
        io_payload = payload.get("io")
        return cls(
            iteration=int(payload["iteration"]),  # type: ignore[arg-type]
            nodes_reduced=int(payload["nodes_reduced"]),  # type: ignore[arg-type]
            edges_reduced=int(payload["edges_reduced"]),  # type: ignore[arg-type]
            live_nodes=int(payload["live_nodes"]),  # type: ignore[arg-type]
            live_edges=int(payload["live_edges"]),  # type: ignore[arg-type]
            io=IOStats.from_dict(io_payload) if isinstance(io_payload, dict) else None,
        )


@dataclass
class RunStats:
    """Everything measured about one algorithm run."""

    algorithm: str
    iterations: int
    io: IOStats
    wall_seconds: float
    per_iteration: List[IterationStats] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Serialize the full run record (per-iteration rows included)."""
        return {
            "algorithm": self.algorithm,
            "iterations": self.iterations,
            "io": self.io.to_dict(),
            "wall_seconds": self.wall_seconds,
            "per_iteration": [entry.to_dict() for entry in self.per_iteration],
            "extras": dict(self.extras),
        }


@dataclass
class SCCResult:
    """SCC labels for every node plus the run's measurements."""

    labels: np.ndarray
    num_sccs: int
    stats: RunStats

    @property
    def scc_sizes(self) -> np.ndarray:
        """Member count of every SCC."""
        return np.bincount(self.labels, minlength=self.num_sccs)

    def members(self, scc: int) -> np.ndarray:
        """Original node ids in SCC ``scc``."""
        return np.flatnonzero(self.labels == scc)

    def nontrivial_count(self) -> int:
        """SCCs with at least two members (what the paper counts)."""
        return int(np.count_nonzero(self.scc_sizes >= 2))


def canonicalize_labels(labels: np.ndarray) -> Tuple[np.ndarray, int]:
    """Relabel to contiguous ``0 .. k - 1`` by sorted label value.

    Label ``x`` becomes its rank among the distinct labels
    (``np.unique`` order), so ``[5, 2, 5]`` becomes ``[1, 0, 1]`` —
    not the first-appearance ``[0, 1, 0]``.  Every golden partition
    fingerprint depends on exactly this mapping.
    """
    labels = np.asarray(labels, dtype=np.int64)
    unique, inverse = np.unique(labels, return_inverse=True)
    return inverse.astype(np.int64), int(unique.size)


class SCCAlgorithm(ABC):
    """Base class: timing, I/O diffing, and label canonicalisation."""

    #: Short name used in reports (e.g. ``"1PB-SCC"``).
    name: str = "abstract"

    # Per-run robustness context, installed by :meth:`run` before
    # :meth:`_run` and cleared afterwards.  Class-level defaults keep
    # direct ``_run`` calls (tests) working without any setup.
    _checkpoint: Optional[CheckpointSession] = None
    _injector: Optional[FaultInjector] = None
    _resume_payload: Optional[LoadedCheckpoint] = None
    _run_counter: Optional[IOCounter] = None
    _metrics: Optional[MetricsRegistry] = None
    _metrics_block_size: int = 0

    def run(
        self,
        graph: DiskGraph,
        memory: Optional[MemoryModel] = None,
        time_limit: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        prefetch_depth: int = 0,
        cache_blocks: int = 0,
        kernels: Union[str, ScanKernels, None] = None,
        fault_plan: Union[str, FaultPlan, None] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> SCCResult:
        """Compute all SCCs of ``graph``.

        Parameters
        ----------
        graph:
            The semi-external input; its edge file's I/O counter is
            diffed around the run, so only this run's I/Os are reported.
        memory:
            Budget ``M``; the paper's default (``4·(3|V|) + B``) when
            omitted.
        time_limit:
            Wall-clock limit in seconds; :class:`AlgorithmTimeout` is
            raised when exceeded (the paper's ``INF`` entries).
        tracer:
            Optional :class:`~repro.obs.tracer.Tracer`; when given, the
            run is wrapped in a root ``run`` span, the tracer is
            attached to the graph's I/O counter for per-file
            attribution, and each :class:`IterationStats` entry gains
            its I/O delta from the iteration spans.  The default no-op
            tracer leaves behavior byte-identical to an untraced run.
        prefetch_depth:
            When positive, edge scans pipeline their block reads
            through a background prefetcher of this depth.  Counted
            block reads are identical to a synchronous run; only wall
            time (and the ``prefetched``/``prefetch_stalls`` tallies)
            change.
        cache_blocks:
            When positive, install a :class:`~repro.io.prefetch.PageCache`
            of this many blocks shared by the graph's edge file and
            every scratch file derived from it.  Cache hits skip disk
            and are tallied as ``cache_hits``, never as block reads, so
            a cached run's read tally is the cacheless tally minus the
            avoided transfers.

        kernels:
            Scan-kernel backend for the per-batch edge classification:
            ``"vector"`` (default; O(1) ancestor tests against live
            Euler-tour labels) or ``"scalar"`` (the
            paper-literal per-edge loops).  Both backends make
            identical decisions, so labels, iteration counts and
            counted I/O do not depend on the choice — only CPU time
            does.  A :class:`~repro.kernels.ScanKernels` instance is
            also accepted (tests use this to inspect counters).

        fault_plan:
            Optional deterministic fault schedule (a
            :class:`~repro.io.faults.FaultPlan` or its spec string, e.g.
            ``"seed=7;read-error@12x2;crash@scan:1"``).  When omitted,
            the ``REPRO_FAULT_PLAN`` environment variable is consulted,
            so whole test suites can run under injected faults without
            touching call sites.  The injector is installed on the
            graph's I/O counter for the duration of the run only.
        checkpoint_dir:
            When given, the algorithm snapshots its O(|V|) state to
            ``<dir>/checkpoint.npz`` after every completed edge scan;
            a crashed run can then restart from that boundary.  The
            checkpoint is removed on successful completion.
        resume:
            With ``checkpoint_dir``, restore the saved state and
            continue from the last completed scan instead of starting
            over.  The saved I/O tally is added to the resumed run's
            stats so the totals cover the whole logical run.  Missing
            checkpoint → fresh start; mismatched checkpoint →
            :class:`~repro.exceptions.CheckpointError`.
        metrics:
            Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When
            given, an observer on the graph's I/O counter feeds live
            block/cache/retry counters, progress gauges track the run's
            position in the paper's per-iteration scan budget, polled
            gauges expose cache occupancy and prefetch queue depth, and
            checkpoint save latency lands in a histogram.  The hooks
            only *read* event arguments — counted I/O and the computed
            partition are byte-identical with metrics on or off (the
            bench-regression gate enforces this).

        Both policies are installed on the graph's edge file for the
        duration of the run and restored afterwards, so sequential runs
        on a shared graph don't leak policy into each other.
        """
        if memory is None:
            memory = MemoryModel(graph.num_nodes, block_size=graph.block_size)
        if tracer is None:
            tracer = NULL_TRACER
        if prefetch_depth < 0 or cache_blocks < 0:
            raise ValueError("prefetch_depth and cache_blocks must be non-negative")
        kernel = resolve_kernels(kernels)
        deadline = Deadline(self.name, time_limit)
        plan = FaultPlan.parse(fault_plan) if isinstance(fault_plan, str) else fault_plan
        if plan is None:
            plan = FaultPlan.from_env()
        injector = FaultInjector(plan) if plan is not None else None
        session: Optional[CheckpointSession] = None
        loaded: Optional[LoadedCheckpoint] = None
        if checkpoint_dir is not None:
            session = CheckpointSession.for_graph(
                checkpoint_dir,
                self.name,
                graph.num_nodes,
                graph.num_edges,
                graph.block_size,
                graph.edge_file.path,
            )
            if resume:
                loaded = session.load()
                if loaded is not None:
                    logger.debug(
                        "%s: resuming from scan boundary %d",
                        self.name, loaded.boundary,
                    )
        logger.debug(
            "%s: starting on %d nodes / %d edges (M=%d, B=%d)",
            self.name, graph.num_nodes, graph.num_edges,
            memory.capacity, memory.block_size,
        )
        io_before = graph.counter.snapshot()
        restored_io = loaded.io if loaded is not None else None
        if session is not None:
            session.bind_io(
                lambda: graph.counter.since(io_before) + restored_io
                if restored_io is not None
                else graph.counter.since(io_before)
            )
        spans_before = len(tracer.spans)
        previous_cache = graph.edge_file.cache
        previous_depth = graph.edge_file.prefetch_depth
        if cache_blocks > 0:
            graph.edge_file.cache = PageCache(
                cache_blocks, block_size=graph.block_size
            )
        graph.edge_file.prefetch_depth = prefetch_depth
        run_attributes: Dict[str, object] = {
            "algorithm": self.name,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "kernels": kernel.name,
        }
        # Additive schema: policy attributes appear only when a policy is
        # active, so policy-off traces match pre-prefetch goldens exactly.
        if prefetch_depth:
            run_attributes["prefetch_depth"] = prefetch_depth
        if cache_blocks:
            run_attributes["cache_blocks"] = cache_blocks
        if plan is not None:
            run_attributes["fault_plan"] = plan.to_spec()
        if loaded is not None:
            run_attributes["resumed_from_boundary"] = loaded.boundary
        previous_injector = graph.counter.fault_injector
        self._checkpoint = session
        self._injector = injector
        self._resume_payload = loaded
        self._run_counter = graph.counter
        self._metrics = metrics
        self._metrics_block_size = graph.block_size
        # The metrics observer goes on *before* the tracer attaches so
        # the tracer chains events through to it (Tracer.attach forwards
        # to the prior observer) — installed here, removed in `finally`.
        uninstall_metrics: Optional[Callable[[], None]] = None
        if metrics is not None:
            uninstall_metrics = install_io_metrics(metrics, graph.counter)
            metrics.gauge(
                "repro_run_info", "active run identity (1 while running)",
                algorithm=self.name,
            ).set(1.0)
            metrics.gauge(
                "repro_run_initial_edges", "edges in the input graph"
            ).set(float(graph.num_edges))
            metrics.gauge(
                "repro_run_scan_budget",
                "predicted full edge scans per iteration (paper budget)",
            ).set(float(SCAN_BUDGETS.get(self.name, 0)))
            self._note_progress(0, graph.num_nodes, graph.num_edges)
            metrics.register_callback(
                "repro_prefetch_queue_depth", live_prefetch_queue_depth,
                "blocks buffered in live prefetcher queues",
            )
            run_cache = graph.edge_file.cache
            if run_cache is not None:
                metrics.register_callback(
                    "repro_cache_resident_blocks",
                    lambda: float(len(run_cache)),
                    "decoded blocks resident in the page cache",
                )
                metrics.register_callback(
                    "repro_cache_capacity_blocks",
                    lambda: float(run_cache.capacity_blocks),
                    "configured page-cache capacity",
                )
            if session is not None:
                save_latency = metrics.histogram(
                    "repro_checkpoint_save_seconds",
                    "durable checkpoint save latency",
                )
                session.on_save = (
                    lambda boundary, seconds: save_latency.observe(seconds)
                )
        try:
            if injector is not None:
                graph.counter.fault_injector = injector
            with tracer.attach(graph.counter):
                with tracer.span("run", **run_attributes):
                    labels, iterations, per_iteration, extras = self._run(
                        graph, memory, deadline, tracer, kernel
                    )
        finally:
            graph.counter.fault_injector = previous_injector
            graph.edge_file.cache = previous_cache
            graph.edge_file.prefetch_depth = previous_depth
            if metrics is not None:
                metrics.unregister_callback("repro_prefetch_queue_depth")
                metrics.unregister_callback("repro_cache_resident_blocks")
                metrics.unregister_callback("repro_cache_capacity_blocks")
                metrics.gauge(
                    "repro_run_info", algorithm=self.name
                ).set(0.0)
            if session is not None:
                session.on_save = None
            if uninstall_metrics is not None:
                uninstall_metrics()
            self._checkpoint = None
            self._injector = None
            self._resume_payload = None
            self._run_counter = None
            self._metrics = None
            self._metrics_block_size = 0
        labels, num_sccs = canonicalize_labels(labels)
        if tracer.enabled:
            per_iteration_io = iteration_io(tracer.spans[spans_before:])
            for entry in per_iteration:
                if entry.io is None:
                    entry.io = per_iteration_io.get(entry.iteration)
        run_io = graph.counter.since(io_before)
        if loaded is not None:
            run_io = run_io + loaded.io
            extras.setdefault("resumed_from_boundary", loaded.boundary)
        if session is not None:
            extras.setdefault("checkpoint_boundaries", session.boundaries_saved)
            session.complete()
        stats = RunStats(
            algorithm=self.name,
            iterations=iterations,
            io=run_io,
            wall_seconds=deadline.elapsed,
            per_iteration=per_iteration,
            extras=extras,
        )
        logger.debug(
            "%s: finished — %d SCCs, %d iterations, %d block I/Os, %.3fs",
            self.name, num_sccs, iterations, stats.io.total, stats.wall_seconds,
        )
        return SCCResult(labels=labels, num_sccs=num_sccs, stats=stats)

    @abstractmethod
    def _run(
        self,
        graph: DiskGraph,
        memory: MemoryModel,
        deadline: Deadline,
        tracer: Tracer,
        kernel: ScanKernels,
    ) -> Tuple[np.ndarray, int, List[IterationStats], Dict[str, object]]:
        """Algorithm body: return ``(labels, iterations, per_iter, extras)``."""

    # ------------------------------------------------------------------
    # observability hooks for subclasses
    # ------------------------------------------------------------------
    def _note_progress(
        self, iteration: int, live_nodes: int, live_edges: int
    ) -> None:
        """Publish the run's position in the paper's cost model.

        Called by subclasses at every iteration boundary; the heartbeat
        and sampler read these gauges to project ETA against the
        per-iteration scan budget.  A no-op without a metrics registry,
        so untraced/unmetered runs pay one attribute check.
        """
        registry = self._metrics
        if registry is None:
            return
        registry.gauge(
            "repro_run_iteration", "completed iterations"
        ).set(float(iteration))
        registry.gauge(
            "repro_run_live_nodes", "nodes still unassigned to an SCC"
        ).set(float(live_nodes))
        registry.gauge(
            "repro_run_live_edges", "edges in the live working graph"
        ).set(float(live_edges))
        registry.gauge(
            "repro_run_blocks_per_scan",
            "blocks one full pass over the live edges moves",
        ).set(float(predicted_blocks_per_scan(
            live_edges, self._metrics_block_size
        )))

    # ------------------------------------------------------------------
    # robustness hooks for subclasses
    # ------------------------------------------------------------------
    @property
    def _boundary_active(self) -> bool:
        """Whether scan boundaries need any work (cheap hot-loop guard).

        Subclasses test this before materialising their state dicts, so
        runs without a checkpoint directory or fault plan pay nothing.
        """
        return self._checkpoint is not None or self._injector is not None

    def _scan_boundary(
        self,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        """Mark one completed edge scan: checkpoint, then maybe crash.

        Called by subclasses after every completed scan.  Ordering is
        the crash-consistency contract: the checkpoint is made durable
        *first*, so a :class:`~repro.io.faults.SimulatedCrash` planned
        at this boundary is survivable — resume restarts from this very
        snapshot.  A no-op when neither a checkpoint directory nor a
        fault plan is active.
        """
        if self._checkpoint is not None and arrays is not None:
            self._checkpoint.save(arrays, meta or {})
        if self._injector is not None:
            try:
                self._injector.maybe_crash()
            except SimulatedCrash:
                if self._run_counter is not None:
                    self._run_counter.record_fault(1)
                raise

    def _take_resume(self) -> Optional[LoadedCheckpoint]:
        """Claim the resume payload (once); ``None`` on a fresh run."""
        payload = self._resume_payload
        self._resume_payload = None
        return payload

    def _resume_edge_file(
        self, graph: DiskGraph, meta: Dict[str, object]
    ) -> Tuple[EdgeFile, bool]:
        """Reopen the working edge file a checkpoint references.

        Returns ``(edge_file, owns_current)``.  When the checkpointed
        run had already replaced the input with a reduced scratch file,
        that file must still exist — a missing scratch means the
        checkpoint outlived its working set and resuming is impossible.
        """
        owns = bool(meta.get("owns_current", False))
        if not owns:
            return graph.edge_file, False
        path = str(meta["current_path"])
        if not os.path.exists(path):
            raise CheckpointError(
                f"checkpoint references missing working file {path}"
            )
        edge_file = EdgeFile(
            path,
            counter=graph.counter,
            block_size=graph.block_size,
            cache=graph.edge_file.cache,
            prefetch_depth=graph.edge_file.prefetch_depth,
        )
        return edge_file, True

    def _retire_scratch(self, edge_file: EdgeFile) -> None:
        """Dispose of a replaced working file, checkpoint-safely.

        Without a checkpoint session this is a plain unlink.  With one,
        the most recent durable checkpoint may still reference the
        file, so deletion is deferred until the next checkpoint save
        (see :meth:`~repro.io.checkpoint.CheckpointSession.retire`).
        """
        if self._checkpoint is None:
            edge_file.unlink()
            return
        if edge_file.cache is not None:
            edge_file.cache.invalidate(edge_file.path)
        edge_file.close()
        self._checkpoint.retire(edge_file.path)
