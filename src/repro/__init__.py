"""repro — I/O-efficient semi-external SCC computation for massive graphs.

A production-style reproduction of *"I/O Efficient: Computing SCCs in
Massive Graphs"* (Zhang, Yu, Qin, Chang, Lin — SIGMOD 2013).

Quickstart::

    import numpy as np
    from repro import Digraph, compute_sccs

    edges = np.array([[0, 1], [1, 2], [2, 0], [2, 3]])
    graph = Digraph(4, edges)
    result = compute_sccs(graph, algorithm="1PB-SCC")
    print(result.num_sccs, result.stats.io.total)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional, Union

import numpy as np

from repro.constants import DEFAULT_BLOCK_SIZE
from repro.core import (
    ALGORITHMS,
    certify_scc_partition,
    DFSSCC,
    EMSCC,
    OnePhaseBatchSCC,
    OnePhaseSCC,
    SCCAlgorithm,
    SCCResult,
    TwoPhaseSCC,
)
from repro.exceptions import (
    AlgorithmTimeout,
    ContractViolation,
    GraphFormatError,
    MemoryBudgetError,
    NonTermination,
    ReproError,
    ValidationError,
)
from repro.graph import Digraph, DiskGraph
from repro.inmemory import kosaraju_scc, tarjan_scc
from repro.io import EdgeFile, IOCounter, IOStats, MemoryModel
from repro.obs import NullTracer, Tracer, TraceWriter

__version__ = "1.0.0"

__all__ = [
    "Digraph",
    "DiskGraph",
    "EdgeFile",
    "IOCounter",
    "IOStats",
    "MemoryModel",
    "SCCAlgorithm",
    "SCCResult",
    "DFSSCC",
    "EMSCC",
    "TwoPhaseSCC",
    "OnePhaseSCC",
    "OnePhaseBatchSCC",
    "ALGORITHMS",
    "Tracer",
    "NullTracer",
    "TraceWriter",
    "compute_sccs",
    "certify_scc_partition",
    "tarjan_scc",
    "kosaraju_scc",
    "ReproError",
    "GraphFormatError",
    "MemoryBudgetError",
    "AlgorithmTimeout",
    "NonTermination",
    "ValidationError",
    "ContractViolation",
    "__version__",
]


def compute_sccs(
    graph: Union[Digraph, DiskGraph, np.ndarray],
    algorithm: Union[str, SCCAlgorithm] = "1PB-SCC",
    num_nodes: Optional[int] = None,
    memory: Optional[MemoryModel] = None,
    time_limit: Optional[float] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workdir: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    prefetch_depth: int = 0,
    cache_blocks: int = 0,
    kernels: Optional[str] = None,
) -> SCCResult:
    """Compute all SCCs with one of the paper's algorithms.

    Parameters
    ----------
    graph:
        A :class:`Digraph`, a :class:`DiskGraph`, or a raw ``(m, 2)``
        edge array (``num_nodes`` required in that case).  In-memory
        inputs are materialised into a temporary on-disk edge file so
        the semi-external access pattern — and the I/O counting — is
        real.
    algorithm:
        Paper name (``"1PB-SCC"``, ``"1P-SCC"``, ``"2P-SCC"``,
        ``"DFS-SCC"``, ``"EM-SCC"``) or a configured
        :class:`SCCAlgorithm` instance.
    memory / time_limit / block_size / workdir:
        Run configuration; the paper's defaults when omitted.
    tracer:
        Optional :class:`Tracer` for structured run tracing (phase
        spans, per-scan I/O deltas); untraced runs are unaffected.
    prefetch_depth / cache_blocks:
        Optional I/O policy: background block prefetch lookahead and a
        counted LRU page cache over decoded blocks (see
        :meth:`SCCAlgorithm.run`).  Both default to off, preserving the
        paper-faithful direct-read path.
    kernels:
        Scan-kernel backend: ``"vector"`` (default) answers ancestor
        tests from the spanning tree's live Euler-tour labels;
        ``"scalar"`` runs the paper-literal per-edge loops.  The choice
        changes CPU time only — labels, iterations and counted I/O are
        identical either way (see :meth:`SCCAlgorithm.run`).
    """
    if isinstance(algorithm, str):
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
            )
        algorithm = ALGORITHMS[algorithm]()

    if isinstance(graph, DiskGraph):
        return algorithm.run(
            graph, memory=memory, time_limit=time_limit, tracer=tracer,
            prefetch_depth=prefetch_depth, cache_blocks=cache_blocks,
            kernels=kernels,
        )

    if isinstance(graph, np.ndarray):
        if num_nodes is None:
            raise ValueError("num_nodes is required for raw edge arrays")
        graph = Digraph(num_nodes, graph)

    cleanup_dir: Optional[tempfile.TemporaryDirectory] = None
    if workdir is None:
        cleanup_dir = tempfile.TemporaryDirectory(prefix="repro-scc-")
        workdir = cleanup_dir.name
    try:
        disk = DiskGraph.from_digraph(
            graph,
            os.path.join(workdir, "edges.bin"),
            block_size=block_size,
        )
        try:
            return algorithm.run(
                disk, memory=memory, time_limit=time_limit, tracer=tracer,
                prefetch_depth=prefetch_depth, cache_blocks=cache_blocks,
                kernels=kernels,
            )
        finally:
            disk.unlink()
    finally:
        if cleanup_dir is not None:
            cleanup_dir.cleanup()
