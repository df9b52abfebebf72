"""1PB-SCC: 1P-SCC plus batch edge reduction (paper Algorithm 8).

Instead of testing edges one at a time against the tree (whose
ancestor walks dominate 1P-SCC's CPU cost), 1PB-SCC:

1. loads as many edges as fit in the leftover memory ``M_B`` as a batch
   ``B_i``;
2. forms the in-memory graph ``G'' = T ∪ B_i`` (only tree edges that
   correspond to real graph edges participate — the initial star and
   virtual-root adoptions are scaffolding, not connectivity);
3. finds all SCCs of ``G''`` with the in-memory Kosaraju-Sharir
   algorithm and contracts each into one supernode (early acceptance en
   masse);
4. rebuilds the BR-Tree over the condensation by dynamic programming in
   topological order: ``drank(v) = max over incoming (u, v) of
   drank(u) + 1``, with the maximising ``u`` as the new parent — the
   batch equivalent of eliminating every up-edge with ``pushdown``
   without ever walking a subtree.

Early acceptance (graph rewriting past ``tau``) and early rejection
(the ``drank`` window) work exactly as in 1P-SCC.  As nodes are merged
or rejected, ``M_B`` grows, so batches get larger every iteration —
the Section 7.4 feedback loop.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.constants import (
    DEFAULT_REJECTION_PERIOD,
    DEFAULT_TAU_FRACTION,
    NODE_DTYPE,
    VIRTUAL_ROOT,
)
from repro.core.base import Deadline, IterationStats, SCCAlgorithm, logger
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


class OnePhaseBatchSCC(SCCAlgorithm):
    """Paper Algorithm 8: the single-phase algorithm with batching.

    Parameters mirror :class:`~repro.core.one_phase.OnePhaseSCC`, plus
    ``batch_blocks`` to pin the batch size explicitly (otherwise it is
    derived from the memory model and grows as the graph shrinks).
    """

    name = "1PB-SCC"

    def __init__(
        self,
        tau_fraction: float = DEFAULT_TAU_FRACTION,
        rejection_period: int = DEFAULT_REJECTION_PERIOD,
        enable_acceptance: bool = True,
        enable_rejection: bool = True,
        batch_blocks: Optional[int] = None,
    ) -> None:
        if tau_fraction <= 0:
            raise ValueError("tau_fraction must be positive")
        if rejection_period <= 0:
            raise ValueError("rejection_period must be positive")
        self.tau_fraction = tau_fraction
        self.rejection_period = rejection_period
        self.enable_acceptance = enable_acceptance
        self.enable_rejection = enable_rejection
        self.batch_blocks = batch_blocks

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
        memory.require_node_arrays(2)  # BR-Tree: parent + depth
        if n == 0:
            return np.empty(0, dtype=np.int64), 0, [], {}

        tau = max(2, int(math.ceil(self.tau_fraction * n)))
        max_iterations = 4 * n + 16
        resume = self._take_resume()
        if resume is not None:
            parent = resume.arrays["parent"].astype(np.int64)
            depth = resume.arrays["depth"].astype(np.int64)
            parent_real = resume.arrays["parent_real"].astype(bool)
            live = resume.arrays["live"].astype(bool)
            ds = DisjointSet.from_arrays(
                resume.arrays["ds_parent"], resume.arrays["ds_size"]
            )
            rejected = [int(v) for v in resume.arrays["rejected"]]
            iteration = int(resume.meta["iteration"])  # type: ignore[arg-type]
            updated = bool(resume.meta["updated"])
            total_batches = int(resume.meta["total_batches"])  # type: ignore[arg-type]
            current, owns_current = self._resume_edge_file(graph, resume.meta)
            per_iteration = [
                IterationStats.from_dict(row)
                for row in resume.meta.get("per_iteration", [])  # type: ignore[union-attr]
            ]
        else:
            parent = np.full(n, VIRTUAL_ROOT, dtype=np.int64)
            depth = np.ones(n, dtype=np.int64)
            parent_real = np.zeros(n, dtype=bool)
            live = np.ones(n, dtype=bool)
            ds = DisjointSet(n)
            rejected = []
            current = graph.edge_file
            owns_current = False
            per_iteration = []
            iteration = 0
            updated = True
            total_batches = 0

        try:
            while updated:
                deadline.check()
                if iteration >= max_iterations:
                    raise NonTermination(self.name, iteration)
                iteration += 1
                updated = False
                live_count = int(np.count_nonzero(live))
                live_before = live_count
                edges_before = current.num_edges
                largest_supernode = 0

                batch_blocks = self.batch_blocks or memory.blocks_per_batch(
                    2, live_count
                )
                with tracer.span("iteration", iteration=iteration):
                    with tracer.span(
                        "batch-scan", iteration=iteration,
                        batch_blocks=batch_blocks,
                    ):
                        edges_classified = 0
                        for batch in current.scan(batch_blocks=batch_blocks):
                            deadline.check()
                            total_batches += 1
                            tracer.add("batches", 1)
                            edges_classified += batch.shape[0]
                            changed, biggest = self._process_batch(
                                batch, parent, depth, parent_real, live, ds,
                                tracer, kernel,
                            )
                            updated = updated or changed
                            if biggest > largest_supernode:
                                largest_supernode = biggest
                        tracer.add("edges-classified", edges_classified)
                        for key, value in kernel.drain_counters().items():
                            tracer.add(key, value)

                    # The Section 7.2 drank window is only sound when
                    # candidacy and depths are read against one consistent
                    # tree; the rewrite scan below is that frozen snapshot
                    # (same reasoning as in 1P-SCC), so rejection happens
                    # right after it.
                    rejecting = (
                        self.enable_rejection
                        and iteration % self.rejection_period == 0
                    )
                    rejected_now = 0
                    if rejecting or (
                        self.enable_acceptance and largest_supernode >= tau
                    ):
                        current, owns_current, window = self._reduce_graph(
                            graph, ds, live, depth, current, owns_current,
                            iteration, deadline, tracer,
                        )
                        drank_min, drank_max = window
                        if rejecting:
                            live_ids = np.flatnonzero(live)
                            if drank_min > drank_max:
                                # No cycle-candidate edges: no cycles remain,
                                # every live supernode is final.
                                outside = live_ids
                            else:
                                outside = live_ids[
                                    (depth[live_ids] < drank_min)
                                    | (depth[live_ids] > drank_max)
                                ]
                            for node in outside.tolist():
                                live[node] = False
                                rejected.append(node)
                            rejected_now = int(outside.size)
                    tracer.add("early-rejects", rejected_now)
                    tracer.add(
                        "edges-eliminated", edges_before - current.num_edges
                    )

                live_after = int(np.count_nonzero(live))
                logger.debug(
                    "1PB-SCC iter %d: live=%d edges=%d batch_blocks=%d",
                    iteration, live_after, current.num_edges, batch_blocks,
                )
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
                if self._boundary_active:
                    self._scan_boundary(
                        arrays={
                            "parent": parent,
                            "depth": depth,
                            "parent_real": parent_real,
                            "live": live,
                            "ds_parent": ds.parent,
                            "ds_size": ds.size,
                            "rejected": np.asarray(rejected, dtype=np.int64),
                        },
                        meta={
                            "iteration": iteration,
                            "updated": updated,
                            "total_batches": total_batches,
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
        extras = {
            "tau": tau,
            "rejected_nodes": len(rejected),
            "batches": total_batches,
        }
        return labels, iteration, per_iteration, extras

    # ------------------------------------------------------------------
    def _process_batch(
        self,
        batch: np.ndarray,
        parent: np.ndarray,
        depth: np.ndarray,
        parent_real: np.ndarray,
        live: np.ndarray,
        ds: DisjointSet,
        tracer: Tracer = NULL_TRACER,
        kernel: Optional[ScanKernels] = None,
    ) -> Tuple[bool, int]:
        """Lines 6-12 of Algorithm 8 for one batch.

        Returns ``(changed, largest_supernode)``.  Emits ``scc-nodes`` and
        ``scc-edges`` (the size of ``G''``), ``merges`` (nodes absorbed
        into supernodes) and ``batch-rebuilds`` (tree rebuild passes that
        moved anything) counters on the enclosing span.
        """
        kernel = kernel if kernel is not None else resolve_kernels()
        n = parent.shape[0]
        changed = False
        largest = 0

        # --- map batch edges onto live supernodes.
        us = ds.find_many(batch[:, 0].astype(np.int64))
        vs = ds.find_many(batch[:, 1].astype(np.int64))
        keep = (us != vs) & live[us] & live[vs]
        us = us[keep]
        vs = vs[keep]

        # --- tree edges of T that correspond to real graph edges.
        live_ids = np.flatnonzero(live)
        raw_parents = parent[live_ids]
        has_parent = (raw_parents != VIRTUAL_ROOT) & parent_real[live_ids]
        children = live_ids[has_parent]
        parents = ds.find_many(raw_parents[has_parent])
        # Parents absorbed elsewhere are remapped; dead parents orphan
        # the child (it re-roots at the virtual root).
        orphaned = ~live[parents] | (parents == children)
        if orphaned.any():
            bad = children[orphaned]
            parent[bad] = VIRTUAL_ROOT
            parent_real[bad] = False
            depth[bad] = 1
            children = children[~orphaned]
            parents = parents[~orphaned]

        # --- G'' = T ∪ B_i on a compacted id space.
        comp = np.full(n, -1, dtype=np.int64)
        comp[live_ids] = np.arange(live_ids.size, dtype=np.int64)
        g2_edges = np.concatenate(
            [
                np.column_stack((comp[parents], comp[children])),
                np.column_stack((comp[us], comp[vs])),
            ]
        )
        g2 = Digraph(int(live_ids.size), g2_edges)

        # --- lines 7-8: in-memory SCCs, contraction, condensation.
        labels2, count2 = kosaraju_scc(g2)
        tracer.add("scc-nodes", g2.num_nodes)
        tracer.add("scc-edges", g2.num_edges)
        sizes2 = np.bincount(labels2, minlength=count2)
        # Sort members by (label, depth): each group's first member is
        # its shallowest node, which keeps the topmost tree position and
        # becomes the supernode representative.
        order = np.lexsort((depth[live_ids], labels2))
        sorted_members = live_ids[order]
        boundaries = np.searchsorted(labels2[order], np.arange(count2 + 1))
        group_reps = sorted_members[boundaries[:-1]]
        merges = 0
        for label in np.flatnonzero(sizes2 >= 2).tolist():
            members = sorted_members[boundaries[label] : boundaries[label + 1]]
            rep = int(members[0])
            merges += kernel.absorb_members(ds, live, members[1:], rep)
            changed = True
            size = ds.set_size(rep)
            if size > largest:
                largest = size
        tracer.add("merges", merges)

        # --- lines 9-12: rebuild T over the condensation by DP.
        # Kosaraju assigns SCC labels in topological order of the
        # condensation, so label order *is* the topological order —
        # the "without extra cost" sort of Section 7.3.
        dag_pairs = labels2[g2_edges]
        nontrivial = dag_pairs[:, 0] != dag_pairs[:, 1]
        dag = Digraph(count2, dag_pairs[nontrivial])
        dag_depth = depth[group_reps].tolist()
        dag_parent = np.full(count2, -1, dtype=np.int64)

        rebuilt = 0
        rev = dag.reverse()
        rev_indptr = rev.indptr.tolist()
        rev_indices = rev.indices.tolist()
        for v in range(count2):
            start = rev_indptr[v]
            end = rev_indptr[v + 1]
            if start == end:
                continue
            best = -1
            best_u = -1
            for index in range(start, end):
                u = rev_indices[index]
                du = dag_depth[u]
                if du > best:
                    best = du
                    best_u = u
            if best >= dag_depth[v]:
                dag_depth[v] = best + 1
                dag_parent[v] = best_u
                changed = True
                rebuilt += 1

        # Write the rebuilt tree back onto the representatives.
        reps = group_reps
        depth[reps] = dag_depth
        has_new_parent = dag_parent != -1
        target = reps[has_new_parent]
        parent[target] = reps[dag_parent[has_new_parent]]
        parent_real[target] = True
        tracer.add("batch-rebuilds", rebuilt)

        return changed, largest

    # ------------------------------------------------------------------
    def _reduce_graph(
        self,
        graph: DiskGraph,
        ds: DisjointSet,
        live: np.ndarray,
        depth: np.ndarray,
        current: EdgeFile,
        owns_current: bool,
        iteration: int,
        deadline: Optional[Deadline] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> Tuple[EdgeFile, bool, Tuple[int, int]]:
        """Early-acceptance graph rewrite (shared semantics with 1P-SCC).

        The tree arrays are frozen during this scan, so the Section 7.2
        drank window is measured here over a consistent snapshot and
        returned for early rejection.
        """
        drank_min = np.iinfo(np.int64).max
        drank_max = np.iinfo(np.int64).min

        reduced = graph.derive_edge_file(f"bwork{iteration}")
        with tracer.span("reduce-scan", iteration=iteration):
            for batch in current.scan():
                if deadline is not None:
                    deadline.check()
                us = ds.find_many(batch[:, 0].astype(np.int64))
                vs = ds.find_many(batch[:, 1].astype(np.int64))
                keep = (us != vs) & live[us] & live[vs]
                if not keep.any():
                    continue
                us = us[keep]
                vs = vs[keep]
                candidate = depth[us] >= depth[vs]
                if candidate.any():
                    # Per-batch (not per-edge) reductions of the window.
                    lo = int(depth[vs[candidate]].min())  # repro: allow[CPU001]
                    hi = int(depth[us[candidate]].max())  # repro: allow[CPU001]
                    if lo < drank_min:
                        drank_min = lo
                    if hi > drank_max:
                        drank_max = hi
                reduced.append(np.column_stack((us, vs)).astype(NODE_DTYPE))
            reduced.flush()
        if owns_current:
            # Checkpoint-safe disposal: the last durable checkpoint may
            # still reference this file (see _retire_scratch).
            self._retire_scratch(current)
        return reduced, True, (drank_min, drank_max)
