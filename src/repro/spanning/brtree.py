"""BR+-Trees: spanning trees with stored backward links and ``drank``.

A BR+-Tree (paper Section 5/6) is a spanning tree in which every node
``u`` additionally remembers one backward edge ``(u, b)`` to an ancestor
``b`` — ``3|V|`` memory in total.  On top of it the paper defines:

* ``Rset(u, G, T)`` — the nodes reachable from ``u`` inside the
  BR+-Tree (down tree edges, up stored backward links, repeatedly);
* ``drank(u, T) = min { depth(v) : v in Rset(u) }`` and ``dlink(u, T)``
  the node attaining it;
* the refined **up-edge** of Definition 5.1: an edge ``(u, v)`` with no
  ancestor/descendant relationship and ``drank(u) >= drank(v)``.

:meth:`BRPlusTree.update_drank` computes the closure exactly in two
tree traversals, using the identity
``Rset(u) = subtree(u) ∪ Rset(a)`` where ``a`` is the shallowest
ancestor reachable by one backward jump out of ``u``'s subtree.

With ``REPRO_CHECK_INVARIANTS=1`` set when a tree is built (or
restored), its mutating entry points re-verify the structure contracts
after every call (see ``docs/contracts.md``):
parent/depth consistency, a single strictly-shallower backward link per
node, and — right after :meth:`~BRPlusTree.update_drank` — ancestor
validity of every link plus drank/dlink coherence and monotonicity.
"""

from __future__ import annotations

import numpy as np

from repro.analysis_static.contracts import invariant, invariants_enabled, require
from repro.constants import VIRTUAL_ROOT
from repro.exceptions import ContractViolation
from repro.spanning.tree import ContractibleTree


class BRPlusTree(ContractibleTree):
    """A spanning tree plus per-node backward links and drank/dlink.

    Memory: the parent, depth and backward-link arrays are exactly the
    ``3|V|`` node-sized footprint the paper budgets for 2P-SCC; the
    ``drank``/``dlink`` arrays are recomputed scratch of the same order.
    """

    def __init__(self, n: int) -> None:
        super().__init__(n)
        #: Whether the runtime contracts run, resolved once here (and so
        #: also by :meth:`from_state`) rather than per checked call.
        self.contracts_enabled = invariants_enabled()
        #: Stored backward link: the ancestor each node keeps, or -1.
        self.blink = np.full(n, VIRTUAL_ROOT, dtype=np.int64)
        #: drank/dlink of Definition 5.1, refreshed by update_drank().
        self.drank = self.depth.copy()
        self.dlink = np.arange(n, dtype=np.int64)

    # ------------------------------------------------------------------
    # backward links
    # ------------------------------------------------------------------
    @invariant("check_blink_shape")
    def offer_blink(self, u: int, target: int) -> bool:
        """Record backward link ``(u, target)`` if it beats the stored one.

        ``target`` must be an ancestor of ``u`` when offered (callers
        check); a shallower target wins.  Returns True when stored.
        """
        current = int(self.blink[u])
        if current != VIRTUAL_ROOT and self.depth[current] <= self.depth[target]:
            return False
        if self.contracts_enabled:
            # Precise check of the offered pair, valid exactly at offer
            # time (links may go stale later until update_drank drops
            # them, so the decorator only re-checks the weaker shape).
            require(
                target != u and self.is_ancestor(target, u),
                f"offered backward link ({u}, {target}) does not target "
                "a proper ancestor",
            )
        self.blink[u] = target
        return True

    # ------------------------------------------------------------------
    # drank / dlink closure
    # ------------------------------------------------------------------
    @invariant("check_structure", "check_blink_shape", "check_drank_contract")
    def update_drank(self) -> None:
        """Recompute ``drank``/``dlink`` for every node (two traversals).

        Pass 1 (DFS with the root path on a stack): drop backward links
        invalidated by pushdowns (target no longer an ancestor), set the
        one-jump value ``g(u) = min(depth(u), depth(blink(u)))``, and on
        post-visit fold children into the subtree minimum
        ``m(u) = min over subtree(u) of g``.

        Pass 2 (top-down): ``drank(u) = depth(u)`` if ``m(u) = depth(u)``,
        else ``drank(u) = drank(a)`` for the ancestor ``a`` at depth
        ``m(u)`` — the shallowest node one backward jump out of
        ``subtree(u)`` can reach.
        """
        n = self.n
        g = self.depth.copy()
        g_node = np.arange(n, dtype=np.int64)
        m = np.empty(n, dtype=np.int64)
        m_node = np.empty(n, dtype=np.int64)

        for root in self.roots():
            # --- pass 1: validate blinks, compute g and subtree-min m.
            path: list[int] = []
            stack: list[tuple[int, bool]] = [(root, False)]
            while stack:
                node, processed = stack.pop()
                if processed:
                    path.pop()
                    best = g[node]
                    best_node = int(g_node[node])
                    for child in self.children[node]:
                        if m[child] < best:
                            best = m[child]
                            best_node = int(m_node[child])
                    m[node] = best
                    m_node[node] = best_node
                    continue
                path.append(node)
                b = int(self.blink[node])
                if b != VIRTUAL_ROOT:
                    bd = int(self.depth[b])
                    if bd < len(path) and path[bd - 1] == b:
                        if bd < g[node]:
                            g[node] = bd
                            g_node[node] = b
                    else:
                        self.blink[node] = VIRTUAL_ROOT
                stack.append((node, True))
                for child in self.children[node]:
                    stack.append((child, False))

            # --- pass 2: close the jump chain top-down.
            path = []
            walk: list[tuple[int, bool]] = [(root, False)]
            while walk:
                node, processed = walk.pop()
                if processed:
                    path.pop()
                    continue
                if m[node] >= self.depth[node]:
                    self.drank[node] = self.depth[node]
                    self.dlink[node] = node
                else:
                    ancestor = path[m[node] - 1]
                    self.drank[node] = self.drank[ancestor]
                    self.dlink[node] = self.dlink[ancestor]
                path.append(node)
                walk.append((node, True))
                for child in self.children[node]:
                    walk.append((child, False))

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_arrays(self) -> "dict[str, np.ndarray]":
        """The base tree's arrays plus blink/drank/dlink."""
        arrays = super().state_arrays()
        arrays["blink"] = self.blink
        arrays["drank"] = self.drank
        arrays["dlink"] = self.dlink
        return arrays

    def _restore_state(self, arrays: "dict[str, np.ndarray]") -> None:
        super()._restore_state(arrays)
        self.blink[:] = arrays["blink"]
        self.drank[:] = arrays["drank"]
        self.dlink[:] = arrays["dlink"]

    # ------------------------------------------------------------------
    # Definition 5.1
    # ------------------------------------------------------------------
    def classify_edge(self, u: int, v: int) -> str:
        """Classify graph edge ``(u, v)`` against the current tree.

        Returns one of ``"tree-or-forward"`` (u is an ancestor of v),
        ``"backward"`` (v is an ancestor of u), ``"up"`` (Definition
        5.1: no ancestor relationship and ``drank(u) >= drank(v)``), or
        ``"down"`` (everything else — ignorable).
        """
        if u == v:
            return "tree-or-forward"
        if self.depth[u] < self.depth[v]:
            if self.is_ancestor(u, v):
                return "tree-or-forward"
        elif self.is_ancestor(v, u):
            return "backward"
        if self.drank[u] >= self.drank[v]:
            return "up"
        return "down"

    # ------------------------------------------------------------------
    # runtime contracts (REPRO_CHECK_INVARIANTS=1; see docs/contracts.md)
    # ------------------------------------------------------------------
    def check_structure(self) -> None:
        """Parent/depth/children consistency of the live tree.

        Re-raises the assert-based :meth:`ContractibleTree.check_invariants`
        as a :class:`~repro.exceptions.ContractViolation`.
        """
        try:
            self.check_invariants()
        except AssertionError as exc:
            raise ContractViolation(f"tree structure: {exc}") from exc

    def check_blink_shape(self) -> None:
        """Each node stores at most one backward link, never to itself.

        This is the time-invariant half of the backward-link contract;
        ancestor validity and strict shallowness can go stale between
        scans (pushdowns reshape the tree) and are re-established — and
        checked — by :meth:`update_drank`.
        """
        for u in np.flatnonzero(self.blink != VIRTUAL_ROOT).tolist():
            b = int(self.blink[u])
            require(
                0 <= b < self.n,
                f"backward link of {u} targets out-of-range node {b}",
            )
            require(b != u, f"node {u} stores a backward link to itself")

    def check_drank_contract(self) -> None:
        """Full drank/dlink/blink coherence, valid right after update_drank.

        For every live node reachable from a live root: the stored
        backward link targets a strictly shallower ancestor; ``drank``
        lies in ``[1, depth]``; ``dlink`` is the ancestor-or-self
        sitting exactly at depth ``drank``; and drank is monotonically
        non-decreasing down every tree path (``Rset(child) ⊆ Rset(u)``).
        """
        for root in self.roots():
            path: list[int] = []
            stack: list[tuple[int, bool]] = [(root, False)]
            while stack:
                node, processed = stack.pop()
                if processed:
                    path.pop()
                    continue
                path.append(node)
                depth_u = int(self.depth[node])
                require(
                    depth_u == len(path),
                    f"depth({node})={depth_u} disagrees with its tree path "
                    f"length {len(path)}",
                )
                b = int(self.blink[node])
                if b != VIRTUAL_ROOT:
                    bd = int(self.depth[b])
                    require(
                        b != node and bd < depth_u,
                        f"backward link ({node}, {b}) is not strictly "
                        "shallower after update_drank",
                    )
                    require(
                        1 <= bd and path[bd - 1] == b,
                        f"backward link ({node}, {b}) does not target an "
                        "ancestor after update_drank",
                    )
                dr = int(self.drank[node])
                dl = int(self.dlink[node])
                require(
                    1 <= dr <= depth_u,
                    f"drank({node})={dr} outside [1, depth={depth_u}]",
                )
                require(
                    path[dr - 1] == dl,
                    f"dlink({node})={dl} is not the ancestor at depth "
                    f"drank({node})={dr}",
                )
                parent = int(self.parent[node])
                if parent != VIRTUAL_ROOT:
                    require(
                        int(self.drank[parent]) <= dr,
                        f"drank not monotone: drank({parent})="
                        f"{int(self.drank[parent])} > drank({node})={dr}",
                    )
                stack.append((node, True))
                for child in self.children[node]:
                    stack.append((child, False))
