"""1P-SCC: the single-phase single-tree algorithm (paper Section 7).

One BR-Tree (parent + depth, ``2|V|`` memory) and repeated sequential
scans of a shrinking on-disk graph ``G'``.  Within a scan, every mapped
edge ``(u, v)`` between live supernodes is handled immediately:

* **backward edge** (``v`` an ancestor of ``u``) — contract the tree
  path it closes right away: *early acceptance* of a partial SCC
  (Algorithm 6, lines 5-8).
* **up-edge** (no ancestor relationship, ``depth(u) >= depth(v)``;
  because contraction is immediate, ``drank = depth``) — eliminate it
  with ``pushdown`` (lines 9-11).

Between scans the graph is reduced: if a supernode has grown past the
threshold ``tau`` the edge file is rewritten with endpoints mapped to
supernodes and internal edges dropped (*early acceptance* of the
graph, line 12), and every ``rejection_period`` iterations nodes whose
depth falls outside the ``[drank_min, drank_max]`` window of
cycle-candidate edges are finalised and removed (*early rejection*,
Algorithm 7).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.constants import (
    DEFAULT_REJECTION_PERIOD,
    DEFAULT_TAU_FRACTION,
    NODE_DTYPE,
)
from repro.core.base import Deadline, IterationStats, SCCAlgorithm, logger
from repro.exceptions import NonTermination
from repro.graph.diskgraph import DiskGraph
from repro.io.edgefile import EdgeFile
from repro.io.faults import SimulatedCrash
from repro.io.memory import MemoryModel
from repro.kernels import ScanKernels, resolve_kernels
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.spanning.tree import ContractibleTree


def naive_single_tree() -> "OnePhaseSCC":
    """Section 5's naive single-tree approach, for comparison.

    The paper sketches (and dismisses as infeasible at scale) a loop
    that contracts partial SCCs against a single BR-Tree with no graph
    reduction at all.  That is exactly 1P-SCC with both optimizations
    disabled; this factory names it so ablations read naturally.
    """
    algorithm = OnePhaseSCC(enable_acceptance=False, enable_rejection=False)
    algorithm.name = "Naive-1T"
    return algorithm


class OnePhaseSCC(SCCAlgorithm):
    """Paper Algorithm 6 (+7): 1P-SCC with the two graph reductions.

    Parameters
    ----------
    tau_fraction:
        Early-acceptance threshold as a fraction of ``|V|``; the graph
        is rewritten once some supernode holds at least this many nodes
        (paper default 0.5 %).
    rejection_period:
        Run early rejection every this many iterations (paper: 5).
    enable_acceptance / enable_rejection:
        Ablation switches; both on reproduces the paper's 1P-SCC, both
        off reproduces the naive single-tree loop of Section 5.
    """

    name = "1P-SCC"

    def __init__(
        self,
        tau_fraction: float = DEFAULT_TAU_FRACTION,
        rejection_period: int = DEFAULT_REJECTION_PERIOD,
        enable_acceptance: bool = True,
        enable_rejection: bool = True,
    ) -> None:
        if tau_fraction <= 0:
            raise ValueError("tau_fraction must be positive")
        if rejection_period <= 0:
            raise ValueError("rejection_period must be positive")
        self.tau_fraction = tau_fraction
        self.rejection_period = rejection_period
        self.enable_acceptance = enable_acceptance
        self.enable_rejection = enable_rejection

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
            tree = ContractibleTree.from_state(resume.arrays)
            iteration = int(resume.meta["iteration"])  # type: ignore[arg-type]
            updated = bool(resume.meta["updated"])
            current, owns_current = self._resume_edge_file(graph, resume.meta)
            per_iteration = [
                IterationStats.from_dict(row)
                for row in resume.meta.get("per_iteration", [])  # type: ignore[union-attr]
            ]
        else:
            tree = ContractibleTree(n)
            current = graph.edge_file
            owns_current = False  # never rewrite the caller's input file
            per_iteration = []
            iteration = 0
            updated = True

        try:
            while updated:
                deadline.check()
                if iteration >= max_iterations:
                    raise NonTermination(self.name, iteration)
                iteration += 1
                updated = False
                live_before = tree.num_live()
                edges_before = current.num_edges
                largest_supernode = 0
                with tracer.span("iteration", iteration=iteration):
                    early_accepts = 0
                    pushdowns = 0
                    with tracer.span("edge-scan", iteration=iteration):
                        edges_classified = 0
                        for batch in current.scan():
                            deadline.check()
                            pairs = self._candidates(tree, batch)
                            if pairs.shape[0] == 0:
                                continue
                            edges_classified += pairs.shape[0]
                            accepts, pushed, biggest = kernel.one_phase_scan(
                                tree, pairs
                            )
                            early_accepts += accepts
                            pushdowns += pushed
                            if accepts or pushed:
                                updated = True
                            if biggest > largest_supernode:
                                largest_supernode = biggest
                        tracer.add("early-accepts", early_accepts)
                        tracer.add("pushdowns", pushdowns)
                        tracer.add("edges-classified", edges_classified)
                        for key, value in kernel.drain_counters().items():
                            tracer.add(key, value)

                    # The drank window of Section 7.2 is only sound when
                    # candidacy and depths are read against one consistent
                    # tree, so it is measured during the rewrite scan below
                    # (the tree is frozen there); rejection then applies it.
                    rejecting = (
                        self.enable_rejection
                        and iteration % self.rejection_period == 0
                    )
                    rejected_now = 0
                    if rejecting or (
                        self.enable_acceptance and largest_supernode >= tau
                    ):
                        current, owns_current, window = self._reduce_graph(
                            graph, tree, current, owns_current, iteration,
                            deadline, tracer,
                        )
                        if rejecting:
                            rejected_now = self._early_rejection(tree, window)
                    tracer.add("early-rejects", rejected_now)
                    tracer.add(
                        "edges-eliminated", edges_before - current.num_edges
                    )

                live_after = tree.num_live()
                logger.debug(
                    "1P-SCC iter %d: live=%d edges=%d rejected=%d",
                    iteration, live_after, current.num_edges, rejected_now,
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
                        arrays=tree.state_arrays(),
                        meta={
                            "iteration": iteration,
                            "updated": updated,
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

        labels, _ = tree.scc_labels()
        extras = {
            "tau": tau,
            "rejected_nodes": len(tree.rejected),
        }
        return labels, iteration, per_iteration, extras

    # ------------------------------------------------------------------
    @staticmethod
    def _candidates(tree: ContractibleTree, batch: np.ndarray) -> np.ndarray:
        """Map a raw edge batch to live cycle-candidate supernode pairs.

        Returns a ``(k, 2)`` int64 array of the ``(u, v)`` pairs with
        ``depth(u) >= depth(v)`` — the only edges that can be backward
        or up-edges.  Staying an array (no per-edge tuple boxing) keeps
        the pairs consumable by the vectorised kernels as-is.
        """
        us = tree.find_many(batch[:, 0].astype(np.int64))
        vs = tree.find_many(batch[:, 1].astype(np.int64))
        keep = (us != vs) & tree.live[us] & tree.live[vs]
        keep &= tree.depth[us] >= tree.depth[vs]
        if not keep.any():
            return np.empty((0, 2), dtype=np.int64)
        return np.column_stack((us[keep], vs[keep]))

    @staticmethod
    def _early_rejection(
        tree: ContractibleTree, window: Tuple[int, int]
    ) -> int:
        """Paper Algorithm 7: finalise nodes outside the drank window.

        Soundness rests on the window having been measured against a
        frozen tree (here: during the rewrite scan): every cycle
        contains an edge into its shallowest node and an edge out of its
        deepest node, both of which are cycle-candidate edges
        (``depth(u) >= depth(v)``), so any node of any cycle has
        ``drank_min <= depth <= drank_max``.
        """
        drank_min, drank_max = window
        live = tree.live_nodes()
        if drank_min > drank_max:
            # No cycle-candidate edges anywhere: every cycle must enter
            # its shallowest node via one, so no cycles remain and every
            # live supernode is final.
            outside = live
        else:
            outside = live[
                (tree.depth[live] < drank_min) | (tree.depth[live] > drank_max)
            ]
        for node in outside.tolist():
            tree.reject(node)
        return int(outside.size)

    def _reduce_graph(
        self,
        graph: DiskGraph,
        tree: ContractibleTree,
        current: EdgeFile,
        owns_current: bool,
        iteration: int,
        deadline: Optional[Deadline] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> Tuple[EdgeFile, bool, Tuple[int, int]]:
        """Rewrite ``G'``: map endpoints to supernodes, drop dead edges.

        The reduced file replaces the working file (never the caller's
        input); reads and writes are charged like any other pass.  The
        tree is not modified here, so this scan doubles as the
        consistent snapshot over which the Section 7.2 drank window
        (``drank_min``, ``drank_max``) is measured; it is returned for
        :meth:`_early_rejection`.
        """
        drank_min = np.iinfo(np.int64).max
        drank_max = np.iinfo(np.int64).min

        reduced = graph.derive_edge_file(f"work{iteration}")
        depth = tree.depth
        with tracer.span("reduce-scan", iteration=iteration):
            for batch in current.scan():
                if deadline is not None:
                    deadline.check()
                us = tree.find_many(batch[:, 0].astype(np.int64))
                vs = tree.find_many(batch[:, 1].astype(np.int64))
                keep = (us != vs) & tree.live[us] & tree.live[vs]
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
