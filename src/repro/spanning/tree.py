"""A contractible spanning forest hanging off a virtual root.

:class:`ContractibleTree` is the in-memory scaffolding shared by the
2P-SCC tree search and the 1P/1PB single-phase algorithms.  It stores,
per node: its parent (``-1`` meaning the virtual root ``v0``), its depth
(``depth(v0) = 0``, so real roots sit at depth 1), and its children.
Supernode membership after contraction lives in a
:class:`~repro.spanning.unionfind.DisjointSet`; only representatives are
"live" tree nodes.

Supported operations map one-to-one onto the paper:

* ``is_ancestor`` / ``path_up`` — the ancestor/descendant tests of
  Definition 5.1 (depth-bounded parent walks); :attr:`oracle` keeps
  live Euler-tour labels that answer the same test in O(1).
* ``pushdown`` — the reshaping operation of Section 6.1: cut the
  subtree rooted at ``v``, paste it under ``u``, update depths locally.
* ``contract_path`` — early acceptance (Section 7.1): collapse the tree
  path closed by a backward edge into one supernode.
* ``reject`` — early rejection (Section 7.2): emit a node's supernode
  as a final SCC and remove it from the tree.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

import numpy as np

from repro.constants import VIRTUAL_ROOT
from repro.kernels.oracle import AncestorOracle
from repro.spanning.unionfind import DisjointSet


class ContractibleTree:
    """A rooted spanning forest over ``n`` nodes supporting contraction.

    Parameters
    ----------
    n:
        Number of original graph nodes.  The initial tree is the star:
        every node is a child of the virtual root at depth 1 (the
        "initial spanning tree" the paper's algorithms start from).
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.parent = np.full(n, VIRTUAL_ROOT, dtype=np.int64)
        self.depth = np.ones(n, dtype=np.int64)
        #: Whether the node's parent edge corresponds to a real graph
        #: edge (the initial star edges and virtual-root adoptions after
        #: rejection do not).  1PB-SCC consults this when building its
        #: in-memory batch graph ``T ∪ B_i``.
        self.parent_is_real = np.zeros(n, dtype=bool)
        #: live[x] is True iff x is a representative still in the tree
        #: (neither absorbed by contraction nor rejected).
        self.live = np.ones(n, dtype=bool)
        self.ds = DisjointSet(n)
        self.children: List[set] = [set() for _ in range(n)]
        #: Nodes finalised by early rejection, in emission order.
        self.rejected: List[int] = []
        #: Live Euler-tour labels, exact after every edit: the O(1)
        #: ancestor test ``oracle.tin[a] <= oracle.tin[d] < oracle.tout[a]``.
        self.oracle = AncestorOracle(n)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def find(self, x: int) -> int:
        """Representative (live tree node) of original node ``x``."""
        return self.ds.find(x)

    def find_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`find`."""
        return self.ds.find_many(xs)

    def num_live(self) -> int:
        """Number of live tree nodes (current supernodes)."""
        return int(np.count_nonzero(self.live))

    def live_nodes(self) -> np.ndarray:
        """Ids of live tree nodes."""
        return np.flatnonzero(self.live)

    def is_ancestor(self, a: int, d: int) -> bool:
        """Whether live node ``a`` is a (strict or equal) ancestor of ``d``.

        Walks parent pointers from ``d`` upward, pruned by depth: the
        walk stops as soon as it climbs above ``depth(a)``.  This is the
        paper-literal test; :attr:`oracle` answers the same question in
        O(1).
        """
        target_depth = self.depth[a]
        node = d
        depth = self.depth
        parent = self.parent
        while node != VIRTUAL_ROOT and depth[node] > target_depth:
            node = int(parent[node])
        return node == a

    def path_up(self, d: int, a: int) -> List[int]:
        """Live nodes on the tree path from ``d`` up to ancestor ``a``.

        Returned bottom-up: ``[d, ..., a]``.  Raises ``ValueError`` when
        ``a`` is not an ancestor of ``d`` — callers must test first.
        """
        path = [d]
        node = d
        parent = self.parent
        while node != a:
            node = int(parent[node])
            if node == VIRTUAL_ROOT:
                raise ValueError(f"{a} is not an ancestor of {d}")
            path.append(node)
        return path

    def subtree(self, v: int) -> Iterator[int]:
        """Yield every live node in the subtree rooted at ``v`` (incl. v)."""
        stack = [v]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(self.children[node])

    def roots(self) -> Iterator[int]:
        """Live children of the virtual root."""
        for v in np.flatnonzero(self.live):
            if self.parent[v] == VIRTUAL_ROOT:
                yield int(v)

    # ------------------------------------------------------------------
    # structural edits
    # ------------------------------------------------------------------
    def _shift_subtree_depth(self, v: int, delta: int) -> None:
        if delta == 0:
            return
        for node in self.subtree(v):
            self.depth[node] += delta

    def _detach(self, v: int) -> None:
        p = int(self.parent[v])
        if p != VIRTUAL_ROOT:
            self.children[p].discard(v)

    def reparent(self, v: int, new_parent: int, real: bool = True) -> None:
        """Move live node ``v`` (and its subtree) under ``new_parent``.

        Depths of the whole moved subtree are updated — the "local"
        depth maintenance the paper contrasts with DFS-Tree's global
        preorder renumbering (Fig. 3) — in the same walk that splices
        the subtree's Euler-tour segment under ``new_parent``.
        """
        self._detach(v)
        if new_parent == VIRTUAL_ROOT:
            new_depth = 1
        else:
            self.children[new_parent].add(v)
            new_depth = int(self.depth[new_parent]) + 1
        self.parent[v] = new_parent
        self.parent_is_real[v] = real and new_parent != VIRTUAL_ROOT
        self.oracle.move(v, new_parent, self.depth, new_depth - int(self.depth[v]))

    def pushdown(self, u: int, v: int) -> None:
        """The paper's ``T ⇓ (u, v)`` operation for an up-edge ``(u, v)``.

        Cuts the subtree rooted at ``v`` and pastes it as a child of
        ``u``; valid only when ``u`` and ``v`` have no
        ancestor/descendant relationship (the up-edge definition
        guarantees the result is still a spanning tree).
        """
        self.reparent(v, u, real=True)

    def contract_path(self, u: int, v: int) -> int:
        """Contract the tree path from ``v`` down to ``u`` into one node.

        ``v`` must be an ancestor of ``u`` (or equal); this is the
        contraction a backward edge ``(u, v)`` triggers.  The merged
        supernode keeps ``v``'s identity, parent and depth.  Children
        hanging off the path are re-hung under the supernode with their
        subtree depths updated.  Returns the surviving representative.

        No label moves: every re-hung subtree already lies inside
        ``v``'s Euler-tour interval, so dropping the absorbed nodes'
        tokens leaves exactly the contracted tree's tour.
        """
        if u == v:
            return v
        path = self.path_up(u, v)
        on_path = set(path)
        rep = v
        rep_depth = int(self.depth[rep])
        for node in path[:-1]:  # everything except v itself
            self.ds.union_into(node, rep)
            self.live[node] = False
            self.oracle.remove(node)
            for child in list(self.children[node]):
                if child in on_path:
                    continue
                self.children[rep].add(child)
                self.parent[child] = rep
                self._shift_subtree_depth(child, rep_depth + 1 - int(self.depth[child]))
            self.children[node].clear()
        # Drop absorbed path members from the representative's children.
        self.children[rep] -= on_path
        return rep

    def reject(self, v: int) -> None:
        """Early-reject live node ``v``: finalise it and remove it from T.

        Its children are adopted by the virtual root (so the tree never
        gains a parent edge that does not exist in the graph), and its
        supernode is recorded in :attr:`rejected` for output.
        """
        for child in list(self.children[v]):
            self.reparent(child, VIRTUAL_ROOT)
        self._detach(v)
        self.parent[v] = VIRTUAL_ROOT
        self.live[v] = False
        self.oracle.remove(v)
        self.rejected.append(v)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The O(|V|) arrays that fully determine this tree.

        ``children`` is *not* serialised: for every live non-root node
        ``c``, ``c ∈ children[parent[c]]`` (the invariant
        :meth:`check_invariants` asserts), so the sets are rebuilt from
        ``parent`` and ``live`` on restore, and so are the Euler-tour
        labels.
        """
        return {
            "parent": self.parent,
            "depth": self.depth,
            "parent_is_real": self.parent_is_real,
            "live": self.live,
            "ds_parent": self.ds.parent,
            "ds_size": self.ds.size,
            "rejected": np.asarray(self.rejected, dtype=np.int64),
        }

    @classmethod
    def from_state(cls, arrays: Dict[str, np.ndarray]) -> "ContractibleTree":
        """Rebuild a tree from :meth:`state_arrays` output."""
        n = int(arrays["parent"].shape[0])
        tree = cls(n)
        tree._restore_state(arrays)
        return tree

    def _restore_state(self, arrays: Dict[str, np.ndarray]) -> None:
        self.parent[:] = arrays["parent"]
        self.depth[:] = arrays["depth"]
        self.parent_is_real[:] = arrays["parent_is_real"]
        self.live[:] = arrays["live"]
        self.ds.parent[:] = arrays["ds_parent"]
        self.ds.size[:] = arrays["ds_size"]
        self.rejected = [int(v) for v in arrays["rejected"]]
        self._rebuild_children()
        self.oracle.build(self.roots(), self.children)

    def _rebuild_children(self) -> None:
        """Derive the children sets from ``parent`` and ``live``."""
        self.children = [set() for _ in range(self.n)]
        for v in np.flatnonzero(self.live):
            p = int(self.parent[v])
            if p != VIRTUAL_ROOT:
                self.children[p].add(int(v))

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def scc_labels(self) -> tuple[np.ndarray, int]:
        """Contiguous SCC labels for the current partition.

        Every original node is labelled by its supernode (whether still
        live or already rejected).
        """
        return self.ds.labels()

    # ------------------------------------------------------------------
    # invariants (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert structural consistency; raises ``AssertionError``."""
        for v in range(self.n):
            if not self.live[v]:
                continue
            p = int(self.parent[v])
            if p == VIRTUAL_ROOT:
                assert self.depth[v] == 1, f"root {v} has depth {self.depth[v]}"
            else:
                assert self.live[p], f"parent of {v} is not live"
                assert v in self.children[p], f"{v} missing from children of {p}"
                assert self.depth[v] == self.depth[p] + 1, (
                    f"depth({v})={self.depth[v]} but depth({p})={self.depth[p]}"
                )
                tin, tout = self.oracle.tin, self.oracle.tout
                assert tin[p] < tin[v] < tout[v] < tout[p], (
                    f"labels of {v} do not nest inside those of {p}"
                )
        for v in range(self.n):
            for c in self.children[v]:
                assert self.live[v], f"dead node {v} has children"
                assert int(self.parent[c]) == v, f"child link {v}->{c} broken"
