"""EM-SCC: the contraction-based external-memory baseline.

Cosgaya-Lozano and Zeh's heuristic (paper Section 4): repeatedly
partition the on-disk graph into memory-sized pieces, find the SCCs of
each piece with an in-memory algorithm, contract them, and rewrite the
graph smaller; once everything fits in memory, finish in-memory.

The paper's critique is that this loop need not terminate: an SCC that
straddles partitions may never be contracted (Case-1) and a DAG larger
than memory cannot shrink at all (Case-2).  This implementation
faithfully exhibits both failure modes by raising
:class:`~repro.exceptions.NonTermination` when a full pass makes no
progress while the graph still exceeds memory.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.constants import EDGE_BYTES, NODE_DTYPE
from repro.core.base import Deadline, IterationStats, SCCAlgorithm
from repro.exceptions import NonTermination
from repro.graph.digraph import Digraph
from repro.graph.diskgraph import DiskGraph
from repro.inmemory.kosaraju import kosaraju_scc
from repro.io.edgefile import EdgeFile
from repro.io.faults import SimulatedCrash
from repro.io.memory import MemoryModel
from repro.kernels import ScanKernels, resolve_kernels
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.spanning.unionfind import DisjointSet


class EMSCC(SCCAlgorithm):
    """The contraction heuristic of Cosgaya-Lozano & Zeh (EM-SCC).

    Parameters
    ----------
    max_iterations:
        Abort threshold standing in for "runs forever"; the paper's
        experiments simply report that EM-SCC "cannot stop in most
        cases".
    """

    name = "EM-SCC"

    def __init__(self, max_iterations: int = 64) -> None:
        if max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        self.max_iterations = max_iterations

    # ------------------------------------------------------------------
    def _run(
        self,
        graph: DiskGraph,
        memory: MemoryModel,
        deadline: Deadline,
        tracer: Tracer,
        kernel: Optional[ScanKernels] = None,
    ) -> Tuple[np.ndarray, int, List[IterationStats], Dict[str, object]]:
        kernel = kernel if kernel is not None else resolve_kernels()
        n = graph.num_nodes
        if n == 0:
            return np.empty(0, dtype=np.int64), 0, [], {}

        resume = self._take_resume()
        if resume is not None:
            ds = DisjointSet.from_arrays(
                resume.arrays["ds_parent"], resume.arrays["ds_size"]
            )
            live = resume.arrays["live"].astype(bool)
            iteration = int(resume.meta["iteration"])  # type: ignore[arg-type]
            current, owns_current = self._resume_edge_file(graph, resume.meta)
            per_iteration = [
                IterationStats.from_dict(row)
                for row in resume.meta.get("per_iteration", [])  # type: ignore[union-attr]
            ]
        else:
            ds = DisjointSet(n)
            live = np.ones(n, dtype=bool)
            current = graph.edge_file
            owns_current = False
            per_iteration = []
            iteration = 0

        # Edges a partition may hold: the memory left after one node
        # array (the contraction map).
        partition_blocks = memory.blocks_per_batch(1)

        try:
            while True:
                deadline.check()
                live_count = int(np.count_nonzero(live))
                in_memory_bytes = (
                    live_count * memory.node_bytes + current.num_edges * EDGE_BYTES
                )
                if in_memory_bytes <= memory.capacity:
                    with tracer.span("finish-in-memory"):
                        self._finish_in_memory(
                            current, ds, live, kernel, tracer
                        )
                    break
                if iteration >= self.max_iterations:
                    raise NonTermination(self.name, iteration)

                iteration += 1
                live_before = live_count
                edges_before = current.num_edges

                progress = False
                with tracer.span("iteration", iteration=iteration):
                    partitions = 0
                    contracted = 0
                    with tracer.span("partition-scan", iteration=iteration):
                        edges_classified = 0
                        for batch in current.scan(
                            batch_blocks=partition_blocks
                        ):
                            deadline.check()
                            partitions += 1
                            edges_classified += batch.shape[0]
                            if self._contract_partition(
                                batch, ds, live, kernel, tracer
                            ):
                                progress = True
                                contracted += 1
                        tracer.add("partitions", partitions)
                        tracer.add("partitions-contracted", contracted)
                        tracer.add("edges-classified", edges_classified)
                        for key, value in kernel.drain_counters().items():
                            tracer.add(key, value)

                    current, owns_current = self._rewrite(
                        graph, ds, live, current, owns_current, iteration,
                        deadline, tracer,
                    )
                    tracer.add(
                        "edges-eliminated", edges_before - current.num_edges
                    )
                live_after = int(np.count_nonzero(live))
                per_iteration.append(
                    IterationStats(
                        iteration=iteration,
                        nodes_reduced=live_before - live_after,
                        edges_reduced=edges_before - current.num_edges,
                        live_nodes=live_after,
                        live_edges=current.num_edges,
                    )
                )
                self._note_progress(iteration, live_after, current.num_edges)
                if not progress:
                    # Case-1/Case-2 of Section 4: stuck while too large.
                    raise NonTermination(self.name, iteration)
                if self._boundary_active:
                    self._scan_boundary(
                        arrays={
                            "ds_parent": ds.parent,
                            "ds_size": ds.size,
                            "live": live,
                        },
                        meta={
                            "iteration": iteration,
                            "current_path": current.path,
                            "owns_current": owns_current,
                            "per_iteration": [
                                row.to_dict() for row in per_iteration
                            ],
                        },
                    )
        except SimulatedCrash:
            # A simulated power loss: the working file stays on disk —
            # the last durable checkpoint references it for resume.
            raise
        except BaseException:
            if owns_current:
                current.unlink()
            raise
        if owns_current:
            current.unlink()

        labels, _ = ds.labels()
        return labels, iteration, per_iteration, {}

    # ------------------------------------------------------------------
    @staticmethod
    def _contract_partition(
        batch: np.ndarray,
        ds: DisjointSet,
        live: np.ndarray,
        kernel: Optional[ScanKernels] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> bool:
        """Contract the SCCs of one memory-sized partition.

        Emits ``scc-nodes`` and ``scc-edges`` (the size of the partition
        graph) on the enclosing span.
        """
        kernel = kernel if kernel is not None else resolve_kernels()
        us = ds.find_many(batch[:, 0].astype(np.int64))
        vs = ds.find_many(batch[:, 1].astype(np.int64))
        keep = us != vs
        us = us[keep]
        vs = vs[keep]
        if us.size == 0:
            return False
        nodes, comp_edges = kernel.compact_pairs(us, vs)
        local = Digraph(int(nodes.size), comp_edges)
        labels, count = kosaraju_scc(local)
        tracer.add("scc-nodes", local.num_nodes)
        tracer.add("scc-edges", local.num_edges)
        if count == nodes.size:
            return False
        order = np.argsort(labels, kind="stable")
        boundaries = np.searchsorted(labels[order], np.arange(count + 1))
        progress = False
        for label in range(count):
            members = nodes[order[boundaries[label] : boundaries[label + 1]]]
            if members.size < 2:
                continue
            rep = int(members[0])
            kernel.absorb_members(ds, live, members[1:], rep)
            progress = True
        return progress

    @staticmethod
    def _finish_in_memory(
        current: EdgeFile,
        ds: DisjointSet,
        live: np.ndarray,
        kernel: Optional[ScanKernels] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        """Load the remaining graph and finish with in-memory Kosaraju."""
        kernel = kernel if kernel is not None else resolve_kernels()
        # Sound here only: the caller's budget check proved the remaining
        # graph fits in M before finishing in-memory.
        edges = current.read_all()  # repro: allow[MEM001]
        if edges.shape[0] == 0:
            return
        us = ds.find_many(edges[:, 0].astype(np.int64))
        vs = ds.find_many(edges[:, 1].astype(np.int64))
        keep = us != vs
        us, vs = us[keep], vs[keep]
        if us.size == 0:
            return
        nodes, comp_edges = kernel.compact_pairs(us, vs)
        local = Digraph(int(nodes.size), comp_edges)
        labels, count = kosaraju_scc(local)
        tracer.add("scc-nodes", local.num_nodes)
        tracer.add("scc-edges", local.num_edges)
        order = np.argsort(labels, kind="stable")
        boundaries = np.searchsorted(labels[order], np.arange(count + 1))
        for label in range(count):
            members = nodes[order[boundaries[label] : boundaries[label + 1]]]
            if members.size < 2:
                continue
            rep = int(members[0])
            kernel.absorb_members(ds, live, members[1:], rep)

    def _rewrite(
        self,
        graph: DiskGraph,
        ds: DisjointSet,
        live: np.ndarray,
        current: EdgeFile,
        owns_current: bool,
        iteration: int,
        deadline: Optional[Deadline] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> Tuple[EdgeFile, bool]:
        """Compress the on-disk graph after a contraction pass."""

        def batches() -> Iterator[np.ndarray]:
            for batch in current.scan():
                if deadline is not None:
                    deadline.check()
                us = ds.find_many(batch[:, 0].astype(np.int64))
                vs = ds.find_many(batch[:, 1].astype(np.int64))
                keep = us != vs
                if keep.any():
                    yield np.column_stack((us[keep], vs[keep])).astype(NODE_DTYPE)

        reduced = graph.derive_edge_file(f"em{iteration}")
        with tracer.span("rewrite-scan", iteration=iteration):
            for batch in batches():
                reduced.append(batch)
            reduced.flush()
        if owns_current:
            # Checkpoint-safe disposal: the last durable checkpoint may
            # still reference this file (see _retire_scratch).
            self._retire_scratch(current)
        return reduced, True
