"""Run algorithms over workloads and collect comparable records.

A :class:`BenchRecord` captures exactly what the paper's evaluation
reports per (algorithm, dataset) cell: wall-clock time, number of block
I/Os, iteration count — or the failure mode (``INF`` for a timeout,
``DNF`` for non-termination), which the paper's figures are full of.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from repro.constants import DEFAULT_BLOCK_SIZE
from repro.core import ALGORITHMS, SCCAlgorithm, SCCResult
from repro.exceptions import AlgorithmTimeout, NonTermination
from repro.graph.digraph import Digraph
from repro.graph.diskgraph import DiskGraph
from repro.io.memory import MemoryModel
from repro.obs import Tracer, TraceWriter
from repro.obs.metrics import MetricsRegistry


@dataclass
class BenchRecord:
    """One (algorithm, workload) measurement."""

    algorithm: str
    workload: str
    status: str  # "ok", "INF" (timeout) or "DNF" (non-termination)
    seconds: Optional[float] = None
    ios: Optional[int] = None
    iterations: Optional[int] = None
    num_sccs: Optional[int] = None
    params: Dict[str, object] = field(default_factory=dict)
    result: Optional[SCCResult] = None
    #: Where this run's JSONL trace was written, when tracing was on.
    trace_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the run completed."""
        return self.status == "ok"

    def display_seconds(self) -> str:
        """Time cell as the paper prints it (``INF`` on timeout)."""
        if not self.ok:
            return self.status
        return f"{self.seconds:.2f}s"

    def display_ios(self) -> str:
        """I/O cell as the paper prints it."""
        if not self.ok:
            return self.status
        return f"{self.ios:,}"


def _resolve(algorithm: Union[str, SCCAlgorithm]) -> SCCAlgorithm:
    if isinstance(algorithm, str):
        return ALGORITHMS[algorithm]()
    return algorithm


def run_one(
    graph: Digraph,
    algorithm: Union[str, SCCAlgorithm],
    workload: str = "graph",
    memory: Optional[MemoryModel] = None,
    time_limit: Optional[float] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workdir: Optional[str] = None,
    keep_result: bool = False,
    params: Optional[Dict[str, object]] = None,
    trace_path: Optional[str] = None,
    prefetch_depth: int = 0,
    cache_blocks: int = 0,
    kernels: str = "vector",
    fault_plan: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> BenchRecord:
    """Run one algorithm on one in-memory workload graph.

    The graph is materialised to disk inside ``workdir`` (a temporary
    directory when omitted) so the run's I/O pattern is real.  When
    ``trace_path`` is given the run is traced to that JSONL file (kept
    even on INF/DNF runs — partial traces are how timeouts are
    diagnosed) and recorded on the returned record.
    ``prefetch_depth``/``cache_blocks`` install the corresponding I/O
    policy on the run (see :meth:`SCCAlgorithm.run`) and are echoed into
    the record's ``params`` when nonzero, so result JSON rows are
    self-describing.  ``kernels`` picks the scan-kernel backend
    (``"vector"``/``"scalar"``) and is echoed the same way when it is
    not the default.  ``fault_plan`` injects deterministic I/O faults
    from a spec string (see :class:`repro.io.faults.FaultPlan`); the
    retried blocks are never charged as block I/O, so a faulted record's
    ``ios`` is comparable to a clean run's.  ``metrics`` attaches a live
    :class:`~repro.obs.metrics.MetricsRegistry` to the run (the
    regression gate uses this to prove the sampler is
    accounting-transparent).  ``checkpoint_dir``/``resume`` forward to
    :meth:`SCCAlgorithm.run`: with both set, a run that died
    mid-algorithm continues from its last scan-boundary checkpoint —
    this requires a *persistent* ``workdir``, since checkpoints
    reference the materialised edge file and reduction scratch living
    there (the reproduce runner keeps one workdir per sweep cell for
    exactly this reason).
    """
    algo = _resolve(algorithm)
    run_params = dict(params or {})
    if prefetch_depth:
        run_params.setdefault("prefetch_depth", prefetch_depth)
    if cache_blocks:
        run_params.setdefault("cache_blocks", cache_blocks)
    if kernels != "vector":
        run_params.setdefault("kernels", kernels)
    if fault_plan:
        run_params.setdefault("fault_plan", fault_plan)
    record = BenchRecord(
        algorithm=algo.name, workload=workload, status="ok", params=run_params
    )
    cleanup: Optional[tempfile.TemporaryDirectory] = None
    if workdir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-bench-")
        workdir = cleanup.name
    try:
        disk = DiskGraph.from_digraph(
            graph,
            os.path.join(workdir, f"{workload}-{algo.name}.bin".replace("/", "_")),
            block_size=block_size,
        )
        tracer = None
        writer = None
        if trace_path is not None:
            writer = TraceWriter(
                trace_path,
                metadata={"algorithm": algo.name, "workload": workload},
            )
            tracer = Tracer(sink=writer)
            record.trace_path = trace_path
        try:
            result = algo.run(
                disk,
                memory=memory,
                time_limit=time_limit,
                tracer=tracer,
                prefetch_depth=prefetch_depth,
                cache_blocks=cache_blocks,
                kernels=kernels,
                fault_plan=fault_plan,
                metrics=metrics,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
            )
            record.seconds = result.stats.wall_seconds
            record.ios = result.stats.io.total
            record.iterations = result.stats.iterations
            record.num_sccs = result.num_sccs
            if keep_result:
                record.result = result
        except AlgorithmTimeout:
            record.status = "INF"
        except NonTermination:
            record.status = "DNF"
        finally:
            if writer is not None:
                writer.close()
            disk.unlink()
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    return record


def run_matrix(
    graphs: Dict[str, Digraph],
    algorithms: Iterable[Union[str, SCCAlgorithm]],
    memory: Optional[MemoryModel] = None,
    time_limit: Optional[float] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    params: Optional[Dict[str, object]] = None,
) -> List[BenchRecord]:
    """Run every algorithm on every workload; return all records."""
    records: List[BenchRecord] = []
    for workload, graph in graphs.items():
        for algorithm in algorithms:
            records.append(
                run_one(
                    graph,
                    algorithm,
                    workload=workload,
                    memory=memory,
                    time_limit=time_limit,
                    block_size=block_size,
                    params=params,
                )
            )
    return records
