"""DFS-SCC: the semi-external baseline of Sibeyn, Abello and Meyer.

Two semi-external DFS trees computed Kosaraju-Sharir style (paper
Algorithms 1 and 2).  Each DFS tree is obtained by starting from the
star rooted at the virtual node ``v0`` (children in a prescribed order)
and repeatedly scanning ``E(G)``, re-hanging the target of every
*forward-cross-edge* under its source until none remain — at which
point the spanning tree is a genuine DFS forest whose root order
respects the prescribed node order.

The second pass runs on the transposed graph with nodes ordered by
decreasing postorder of the first tree; the subtrees of ``v0`` are then
exactly the SCCs.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.constants import VIRTUAL_ROOT
from repro.core.base import Deadline, IterationStats, SCCAlgorithm
from repro.exceptions import NonTermination
from repro.graph.diskgraph import DiskGraph
from repro.io.edgefile import EdgeFile
from repro.io.extsort import reverse_edges
from repro.io.faults import SimulatedCrash
from repro.io.memory import MemoryModel
from repro.kernels import ScanKernels, resolve_kernels
from repro.obs.tracer import NULL_TRACER, Tracer


class _DFSTree:
    """A spanning forest with ordered children and preorder ranks."""

    def __init__(self, order: np.ndarray) -> None:
        n = order.shape[0]
        self.n = n
        self.parent = np.full(n, VIRTUAL_ROOT, dtype=np.int64)
        self.depth = np.ones(n, dtype=np.int64)
        self.pre = np.empty(n, dtype=np.int64)
        #: Subtree sizes, maintained on reparent so renumbering can skip
        #: whole subtrees positioned before the affected rank.
        self.size = np.ones(n, dtype=np.int64)
        # Ordered children: dicts preserve insertion order with O(1)
        # deletion, which matters under heavy re-hanging.
        self.children: List[Dict[int, None]] = [dict() for _ in range(n)]
        self.roots: Dict[int, None] = {int(v): None for v in order}
        self.pre[order] = np.arange(n, dtype=np.int64)

    # ------------------------------------------------------------------
    def is_ancestor(self, a: int, d: int) -> bool:
        """Whether ``a`` is an ancestor of ``d`` (depth-bounded walk)."""
        target = self.depth[a]
        node = d
        parent = self.parent
        depth = self.depth
        while node != VIRTUAL_ROOT and depth[node] > target:
            node = int(parent[node])
        return node == a

    def reparent(self, v: int, u: int) -> None:
        """Re-hang ``v`` (and its subtree) as the last child of ``u``."""
        moved = int(self.size[v])
        old = int(self.parent[v])
        if old == VIRTUAL_ROOT:
            self.roots.pop(v, None)
        else:
            self.children[old].pop(v, None)
            node = old
            while node != VIRTUAL_ROOT:
                self.size[node] -= moved
                node = int(self.parent[node])
        self.children[u][v] = None
        self.parent[v] = u
        node = u
        while node != VIRTUAL_ROOT:
            self.size[node] += moved
            node = int(self.parent[node])
        delta = int(self.depth[u]) + 1 - int(self.depth[v])
        if delta:
            stack = [v]
            while stack:
                node = stack.pop()
                self.depth[node] += delta
                stack.extend(self.children[node])

    def assign_preorder(self, pivot: int = 0) -> None:
        """Recompute preorder ranks by DFS honouring children order.

        Ranks strictly below ``pivot`` are known to be unchanged, so
        whole subtrees lying entirely before it are skipped using the
        maintained subtree sizes — the locality the paper's Fig. 3
        discussion ascribes to per-update renumbering.
        """
        rank = 0
        pre = self.pre
        size = self.size
        children = self.children
        for root in self.roots:
            stack = [root]
            while stack:
                node = stack.pop()
                node_size = int(size[node])
                if pre[node] == rank and rank + node_size <= pivot:
                    rank += node_size
                    continue
                pre[node] = rank
                rank += 1
                stack.extend(reversed(children[node]))

    def postorder(self) -> np.ndarray:
        """Nodes in DFS postorder (finish-time order)."""
        out = np.empty(self.n, dtype=np.int64)
        filled = 0
        for root in self.roots:
            stack: List[Tuple[int, bool]] = [(root, False)]
            while stack:
                node, processed = stack.pop()
                if processed:
                    out[filled] = node
                    filled += 1
                    continue
                stack.append((node, True))
                for child in reversed(self.children[node]):
                    stack.append((child, False))
        return out

    # ------------------------------------------------------------------
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The tree's checkpoint state, children/roots order included.

        Unlike :class:`~repro.spanning.tree.ContractibleTree`, children
        *order* is semantic here (preorder and postorder depend on it),
        so the ordered adjacency is flattened into a
        ``children_flat``/``children_offsets`` pair and the root dict
        into an ordered ``roots`` array.
        """
        flat: List[int] = []
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        for v in range(self.n):
            flat.extend(self.children[v])
            offsets[v + 1] = len(flat)
        return {
            "parent": self.parent,
            "depth": self.depth,
            "pre": self.pre,
            "size": self.size,
            "children_flat": np.asarray(flat, dtype=np.int64),
            "children_offsets": offsets,
            "roots": np.fromiter(
                self.roots, dtype=np.int64, count=len(self.roots)
            ),
        }

    @classmethod
    def from_state(cls, arrays: Dict[str, np.ndarray]) -> "_DFSTree":
        """Rebuild a tree from :meth:`state_arrays` output."""
        n = int(arrays["parent"].shape[0])
        tree = cls(np.arange(n, dtype=np.int64))
        tree.parent[:] = arrays["parent"]
        tree.depth[:] = arrays["depth"]
        tree.pre[:] = arrays["pre"]
        tree.size[:] = arrays["size"]
        offsets = arrays["children_offsets"]
        flat = arrays["children_flat"]
        tree.children = [
            {int(c): None for c in flat[int(offsets[v]) : int(offsets[v + 1])]}
            for v in range(n)
        ]
        tree.roots = {int(v): None for v in arrays["roots"]}
        return tree

    def root_subtree_labels(self) -> np.ndarray:
        """Label every node by the root of its tree (Algorithm 2, line 5)."""
        labels = np.empty(self.n, dtype=np.int64)
        for index, root in enumerate(self.roots):
            stack = [root]
            while stack:
                node = stack.pop()
                labels[node] = index
                stack.extend(self.children[node])
        return labels


def build_dfs_tree(
    graph: DiskGraph,
    order: np.ndarray,
    deadline: Deadline,
    max_iterations: int | None = None,
    tracer: Tracer = NULL_TRACER,
    iteration_offset: int = 0,
    kernel: Optional[ScanKernels] = None,
    boundary: Optional[Callable[[_DFSTree, int, bool], None]] = None,
    resume: Optional[Tuple[_DFSTree, int, bool]] = None,
) -> Tuple[_DFSTree, int]:
    """Paper Algorithm 1: DFS tree by forward-cross-edge elimination.

    Returns the tree and the number of full edge scans used.  Each scan
    is traced as a ``dfs-scan`` span (numbered from ``iteration_offset``
    so the two passes of DFS-SCC do not collide) carrying a
    ``reparents`` counter.

    ``boundary``, when given, is invoked after every completed scan
    with ``(tree, iterations, updated)`` — the checkpoint/crash hook.
    ``resume`` restarts the loop from a restored
    ``(tree, iterations, updated)`` snapshot (``order`` is then ignored:
    the snapshot embeds the root and children order).
    """
    kernel = kernel if kernel is not None else resolve_kernels()
    if resume is not None:
        tree, iterations, updated = resume
    else:
        tree = _DFSTree(order)
        iterations = 0
        updated = True
    if max_iterations is None:
        max_iterations = 2 * graph.num_nodes + 4
    while updated:
        deadline.check()
        if iterations >= max_iterations:
            raise NonTermination("DFS-Tree", iterations)
        updated = False
        iterations += 1
        reparents = 0
        with tracer.span(
            "dfs-scan", iteration=iterations + iteration_offset
        ):
            edges_classified = 0
            for batch in graph.scan_edges():
                deadline.check()
                edges_classified += batch.shape[0]
                moved = kernel.dfs_scan(tree, batch, deadline)
                if moved:
                    updated = True
                    reparents += moved
            tracer.add("reparents", reparents)
            tracer.add("edges-classified", edges_classified)
            for key, value in kernel.drain_counters().items():
                tracer.add(key, value)
        if boundary is not None:
            boundary(tree, iterations, updated)
    return tree, iterations


class DFSSCC(SCCAlgorithm):
    """Paper Algorithm 2: two semi-external DFS passes (Kosaraju style)."""

    name = "DFS-SCC"

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
        memory.require_node_arrays(3)
        if n == 0:
            return np.empty(0, dtype=np.int64), 0, [], {}

        natural = np.arange(n, dtype=np.int64)
        resume = self._take_resume()
        phase = "first"
        pass_resume: Optional[Tuple[_DFSTree, int, bool]] = None
        first_scans = 0
        if resume is not None:
            phase = str(resume.meta["phase"])
            pass_resume = (
                _DFSTree.from_state(resume.arrays),
                int(resume.meta["scans"]),  # type: ignore[arg-type]
                bool(resume.meta["updated"]),
            )
            if phase == "second":
                first_scans = int(resume.meta["first_scans"])  # type: ignore[arg-type]

        def pass_boundary(
            phase_name: str, extra: Dict[str, object]
        ) -> Callable[[_DFSTree, int, bool], None]:
            def callback(t: _DFSTree, scans: int, updated: bool) -> None:
                meta: Dict[str, object] = {
                    "phase": phase_name, "scans": scans, "updated": updated,
                }
                meta.update(extra)
                self._scan_boundary(arrays=t.state_arrays(), meta=meta)

            return callback

        if phase == "first":
            with tracer.span("first-pass"):
                first_tree, first_scans = build_dfs_tree(
                    graph, natural, deadline, tracer=tracer, kernel=kernel,
                    boundary=(
                        pass_boundary("first", {})
                        if self._boundary_active else None
                    ),
                    resume=pass_resume,
                )
            decreasing_post = first_tree.postorder()[::-1]
            second_resume: Optional[Tuple[_DFSTree, int, bool]] = None
            self._note_progress(first_scans, n, graph.num_edges)
        else:
            # The restored second tree embeds its own root/children
            # order, so the first pass (and its postorder) is not redone.
            decreasing_post = natural
            second_resume = pass_resume

        rev_path = graph.scratch_path("rev")
        if second_resume is not None and os.path.exists(rev_path):
            # The transpose survived the crash; reuse it instead of
            # paying the reversal scan again.
            reversed_file = EdgeFile(
                rev_path,
                counter=graph.counter,
                block_size=graph.block_size,
                cache=graph.edge_file.cache,
                prefetch_depth=graph.edge_file.prefetch_depth,
            )
        else:
            with tracer.span("transpose"):
                deadline.check()
                reversed_file = reverse_edges(
                    graph.edge_file, out_path=rev_path
                )
        try:
            reversed_graph = DiskGraph(n, reversed_file)
            with tracer.span("second-pass"):
                second_tree, second_scans = build_dfs_tree(
                    reversed_graph, decreasing_post, deadline,
                    tracer=tracer, iteration_offset=first_scans,
                    kernel=kernel,
                    boundary=(
                        pass_boundary("second", {"first_scans": first_scans})
                        if self._boundary_active else None
                    ),
                    resume=second_resume,
                )
            labels = second_tree.root_subtree_labels()
        except SimulatedCrash:
            # A simulated power loss: keep the transposed file on disk —
            # the resumed second pass reuses it.
            raise
        except BaseException:
            reversed_file.unlink()
            raise
        reversed_file.unlink()

        iterations = first_scans + second_scans
        self._note_progress(iterations, n, graph.num_edges)
        per_iteration = [
            IterationStats(
                iteration=i + 1,
                nodes_reduced=0,
                edges_reduced=0,
                live_nodes=n,
                live_edges=graph.num_edges,
            )
            for i in range(iterations)
        ]
        extras = {"first_pass_scans": first_scans, "second_pass_scans": second_scans}
        return labels, iterations, per_iteration, extras
