"""The vectorised scan-kernel backend.

The spanning trees keep live Euler-tour labels
(:class:`~repro.kernels.oracle.AncestorOracle`), exact after every
pushdown, contraction and rejection, so each ancestor question is one
interval compare ``tin[a] <= tin[d] < tout[a]`` instead of a
parent-pointer walk.  Each batch is still applied edge by edge, in batch
order, reading the live tree — earlier edges of a batch reshape what
later ones see — so every decision is the one the scalar loop makes,
only without its O(depth) walks.  Values frozen for a whole scan (the
2P ``drank``/``dlink`` arrays) are gathered for the batch with numpy.

Equivalence with :class:`~repro.kernels.scalar.ScalarKernels` is pinned
by ``tests/test_kernels_classify.py`` and the golden regression gate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import Deadline
    from repro.spanning.brtree import BRPlusTree
    from repro.spanning.tree import ContractibleTree
    from repro.spanning.unionfind import DisjointSet

from repro.kernels.base import ScanKernels


class VectorKernels(ScanKernels):
    """Per-edge decisions with O(1) live-label ancestor tests."""

    name = "vector"

    def _count(self, tree: Any, edges: int, rebuilds: int, relabels: int) -> None:
        """Bump the scan's edge count and its label-maintenance work."""
        oracle = tree.oracle
        self.bump("kernel-fast-path", edges)
        self.bump("oracle-rebuilds", oracle.rebuilds - rebuilds)
        self.bump("oracle-relabels", oracle.relabels - relabels)

    # ------------------------------------------------------------------
    def one_phase_scan(
        self, tree: "ContractibleTree", pairs: np.ndarray
    ) -> Tuple[int, int, int]:
        oracle = tree.oracle
        rebuilds, relabels = oracle.rebuilds, oracle.relabels
        tin = oracle.tin
        tout = oracle.tout
        live = tree.live
        depth = tree.depth
        ds = tree.ds
        early_accepts = 0
        pushdowns = 0
        largest = 0
        for u, v in pairs.tolist():
            if not (live[u] and live[v]):
                # Absorbed or rejected since the prefilter: re-resolve.
                u = ds.find(u)
                v = ds.find(v)
                if u == v or not (live[u] and live[v]):
                    continue
            if depth[u] < depth[v]:
                continue  # reshaped since the prefilter
            if tin[v] <= tin[u] < tout[v]:
                rep = tree.contract_path(u, v)
                size = ds.set_size(rep)
                if size > largest:
                    largest = size
                early_accepts += 1
            else:
                tree.pushdown(u, v)
                pushdowns += 1
        self._count(tree, pairs.shape[0], rebuilds, relabels)
        return early_accepts, pushdowns, largest

    # ------------------------------------------------------------------
    def construction_scan(
        self, tree: "BRPlusTree", us: np.ndarray, vs: np.ndarray
    ) -> Tuple[bool, int, int]:
        oracle = tree.oracle
        rebuilds, relabels = oracle.rebuilds, oracle.relabels
        tin = oracle.tin
        tout = oracle.tout
        depth = tree.depth
        # drank/dlink are frozen for the whole scan (update-drank runs
        # between scans), so they are gathered once per batch.
        ws = tree.dlink[vs]
        drank_ok = (tree.drank[us] >= tree.drank[vs]).tolist()
        updated = False
        pushdowns = 0
        backward_links = 0
        for i, (u, v, w) in enumerate(zip(us.tolist(), vs.tolist(), ws.tolist())):
            if depth[u] < depth[v]:
                if tin[u] <= tin[v] < tout[u]:
                    continue  # forward edge
            elif tin[v] <= tin[u] < tout[v]:
                if tree.offer_blink(u, v):
                    backward_links += 1
                continue
            if drank_ok[i]:
                if tin[w] <= tin[u] < tout[w]:
                    if tree.offer_blink(u, w):
                        updated = True
                        backward_links += 1
                elif depth[u] >= depth[w]:
                    tree.pushdown(u, w)
                    updated = True
                    pushdowns += 1
        self._count(tree, us.shape[0], rebuilds, relabels)
        return updated, pushdowns, backward_links

    # ------------------------------------------------------------------
    def search_scan(self, tree: "BRPlusTree", pairs: np.ndarray) -> int:
        oracle = tree.oracle
        rebuilds, relabels = oracle.rebuilds, oracle.relabels
        tin = oracle.tin
        tout = oracle.tout
        live = tree.live
        ds = tree.ds
        contractions = 0
        for u, v in pairs.tolist():
            if not (live[u] and live[v]):
                u = ds.find(u)
                v = ds.find(v)
            if u != v and tin[v] <= tin[u] < tout[v]:
                tree.contract_path(u, v)
                contractions += 1
        self._count(tree, pairs.shape[0], rebuilds, relabels)
        return contractions

    # ------------------------------------------------------------------
    def dfs_scan(
        self, tree: Any, batch: np.ndarray, deadline: "Deadline"
    ) -> int:
        # The DFS tree renumbers its preorder after every move, so its
        # own ``pre``/``size`` arrays are live interval labels already:
        # a is an ancestor-or-equal of d iff pre[a] <= pre[d] < pre[a] +
        # size[a].
        parent = tree.parent
        depth = tree.depth
        pre = tree.pre
        size = tree.size
        reparents = 0
        for u, v in batch.tolist():
            if u == v or parent[v] == u:
                continue
            if depth[u] < depth[v]:
                if pre[u] <= pre[v] < pre[u] + size[u]:
                    continue  # forward edge
            elif pre[v] <= pre[u] < pre[v] + size[v]:
                continue  # backward edge
            if pre[u] < pre[v]:
                # Forward-cross-edge: re-hang v under u and renumber
                # (ranks before pre(u) are unaffected).
                tree.reparent(v, u)
                tree.assign_preorder(pivot=int(pre[u]))
                reparents += 1
                # Each move renumbers up to O(n) ranks, so the
                # wall-clock budget is re-checked per move.
                deadline.check()
            # backward-cross-edges are ignored.
        self.bump("kernel-fast-path", batch.shape[0])
        return reparents

    # ------------------------------------------------------------------
    def absorb_members(
        self,
        ds: "DisjointSet",
        live: np.ndarray,
        members: np.ndarray,
        rep: int,
    ) -> int:
        if members.size == 0:
            return 0
        absorbed = members.astype(np.int64, copy=False)
        ds.union_many_into(absorbed, rep)
        live[absorbed] = False
        return int(absorbed.size)

    def compact_pairs(
        self, us: np.ndarray, vs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        # np.unique sorts, and the scalar kernel's dict enumerates the
        # same sorted array — identical node -> index mapping.
        nodes, inverse = np.unique(
            np.concatenate([us, vs]), return_inverse=True
        )
        k = us.shape[0]
        comp_edges = np.column_stack(
            (inverse[:k].astype(np.int64), inverse[k:].astype(np.int64))
        )
        return nodes, comp_edges
