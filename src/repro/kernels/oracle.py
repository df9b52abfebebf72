"""Order-maintained Euler-tour labels: a live O(1) ancestor test.

Every node ``x`` of a host forest owns two *tokens* — ``open(x)`` and
``close(x)`` — kept in one linked list in Euler-tour order: a node's
open token, then its children's token runs, then its close token.  Each
token carries an int64 label that strictly increases along the list, so
the classical interval test

    ``is_ancestor(a, d)  ⇔  tin[a] <= tin[d] < tout[a]``

(``tin``/``tout`` being the open/close labels) answers ancestor-or-equal
queries with two compares.  Dead nodes have
both labels at ``-1``, which makes every test involving one False.

The labels are *live*: the host tree keeps them exact across each edit,
the order-maintenance problem of Dietz and Sleator (1987) solved the
way Bender et al. ("Two simplified algorithms for maintaining order in
a list", 2002) do:

* moving a subtree (:meth:`AncestorOracle.move`) unlinks its token
  segment and splices it right after the new parent's open token,
  labelling it evenly inside the gap it lands in;
* when that gap is too small, the smallest aligned label range around
  the insertion point whose token density is under the level's
  threshold is relabelled evenly (a *local relabel*);
* only when no range below the whole label universe qualifies are all
  tokens renumbered (:meth:`AncestorOracle.refresh`).

Removing a node (contraction, rejection) unlinks its two tokens; the
relative order of every other token is unchanged.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np


class AncestorOracle:
    """Live Euler-tour labels for a forest over nodes ``0 .. n - 1``.

    Token ids: ``x`` is ``open(x)``, ``n + x`` is ``close(x)``, and two
    sentinels ``2n``/``2n + 1`` bracket the list as the virtual root's
    open and close tokens (labels ``0`` and ``2**label_bits``).  A fresh
    oracle describes the star forest: every node a root, in id order.
    """

    #: Labels live in ``[0, 2**label_bits]``; 62 bits keep every label
    #: arithmetic step inside int64.
    label_bits: int = 62
    #: Overflow base ``T`` of Bender et al.: a range of ``2**i`` labels
    #: may hold at most ``(2 / T)**i`` tokens after a local relabel.
    density_base: float = 1.5

    def __init__(self, n: int) -> None:
        self.n = n
        self.head = 2 * n
        self.tail = 2 * n + 1
        self.label = np.full(2 * n + 2, -1, dtype=np.int64)
        #: Open-token and close-token labels (views into :attr:`label`).
        self.tin = self.label[:n]
        self.tout = self.label[n : 2 * n]
        self.nxt = np.empty(2 * n + 2, dtype=np.int64)
        self.prv = np.empty(2 * n + 2, dtype=np.int64)
        #: Full renumbers so far (the ``oracle-rebuilds`` counter).
        self.rebuilds = 0
        #: Tokens relabelled by local range relabels so far (the
        #: ``oracle-relabels`` counter).
        self.relabels = 0
        order = np.empty(2 * n + 2, dtype=np.int64)
        order[0] = self.head
        order[1:-1:2] = np.arange(n, dtype=np.int64)
        order[2:-1:2] = np.arange(n, 2 * n, dtype=np.int64)
        order[-1] = self.tail
        self.refresh(order)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_ancestor(self, a: int, d: int) -> bool:
        """Scalar ancestor-or-equal test (False if either node is dead)."""
        return bool(self.tin[a] <= self.tin[d] < self.tout[a])

    # ------------------------------------------------------------------
    # full renumber
    # ------------------------------------------------------------------
    def refresh(self, order: Optional[Sequence[int]] = None) -> bool:
        """Renumber every token evenly across the label universe.

        ``order`` is the complete token sequence from the head sentinel
        to the tail sentinel; without it the current list is walked.
        Tokens not in the sequence (dead nodes) get label ``-1``.
        Returns True: every call is one counted full renumber.
        """
        if order is None:
            order = self._run(self.head, self.tail)
        tokens = np.asarray(order, dtype=np.int64)
        self.nxt[tokens[:-1]] = tokens[1:]
        self.prv[tokens[1:]] = tokens[:-1]
        universe = 1 << self.label_bits
        self.label.fill(-1)
        self.label[tokens] = np.arange(tokens.size, dtype=np.int64) * (
            universe // (tokens.size - 1)
        )
        self.label[self.tail] = universe
        self.rebuilds += 1
        return True

    def build(self, roots: Iterable[int], children: Sequence[Iterable[int]]) -> None:
        """Renumber from a forest given by its roots and child lists."""
        n = self.n
        order = [self.head]
        for root in roots:
            stack = [root]
            while stack:
                node = stack.pop()
                if node < 0:
                    order.append(n + ~node)
                    continue
                order.append(node)
                stack.append(~node)
                stack.extend(children[node])
        order.append(self.tail)
        self.refresh(order)

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------
    def move(self, v: int, parent: int, depth: np.ndarray, delta: int) -> None:
        """Splice ``v``'s subtree right after ``parent``'s open token.

        ``parent < 0`` means the virtual root.  The same walk that
        collects the moved segment shifts its nodes' ``depth`` by
        ``delta``; the segment is then labelled inside its new gap,
        relabelling around it when the gap is too small.
        """
        n = self.n
        nxt = self.nxt
        prv = self.prv
        label = self.label
        last = n + v
        before = prv.item(v)
        after = nxt.item(last)
        nxt[before] = after
        prv[after] = before
        segment = self._run(v, last)
        tokens = np.asarray(segment, dtype=np.int64)
        if delta:
            depth[tokens[tokens < n]] += delta
        anchor = self.head if parent < 0 else parent
        succ = nxt.item(anchor)
        nxt[anchor] = v
        prv[v] = anchor
        nxt[last] = succ
        prv[succ] = last
        low = label.item(anchor)
        gap = label.item(succ) - low
        k = tokens.size
        if gap > k:
            label[tokens] = low + (gap // (k + 1)) * np.arange(
                1, k + 1, dtype=np.int64
            )
        else:
            self._relabel_around(anchor, v, last, k)

    def remove(self, x: int) -> None:
        """Unlink dead node ``x``'s two tokens; its labels become -1."""
        nxt = self.nxt
        prv = self.prv
        for token in (x, self.n + x):
            before = int(prv[token])
            after = int(nxt[token])
            nxt[before] = after
            prv[after] = before
            self.label[token] = -1

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run(self, first: int, last: int) -> List[int]:
        """Tokens from ``first`` to ``last`` inclusive, in list order."""
        nxt = self.nxt
        tokens = [first]
        token = first
        while token != last:
            token = nxt.item(token)
            tokens.append(token)
        return tokens

    def _relabel_around(self, anchor: int, first: int, last: int, k: int) -> None:
        """Relabel the smallest sparse-enough range around ``anchor``.

        The unlabelled ``k``-token segment ``first .. last`` sits right
        after ``anchor``.  Level by level, the aligned range of ``2**i``
        labels containing ``anchor``'s label grows until the tokens in
        it plus the segment fit under ``(2 / T)**i``; they are then
        spread evenly over it.  If no range below the whole universe
        fits, everything is renumbered (:meth:`refresh`).
        """
        label = self.label
        nxt = self.nxt
        prv = self.prv
        head = self.head
        tail = self.tail
        base = int(label[anchor])
        left = first if anchor == head else anchor
        right = last
        count = k if anchor == head else k + 1
        ratio = 2.0 / self.density_base
        for level in range(1, self.label_bits):
            low = (base >> level) << level
            high = low + (1 << level)
            before = prv.item(left)
            while before != head and label.item(before) >= low:
                left = before
                count += 1
                before = prv.item(left)
            after = nxt.item(right)
            while after != tail and label.item(after) < high:
                right = after
                count += 1
                after = nxt.item(right)
            if count <= ratio**level:
                tokens = np.asarray(self._run(left, right), dtype=np.int64)
                step = (high - low) // (count + 1)
                label[tokens] = low + step * np.arange(
                    1, count + 1, dtype=np.int64
                )
                self.relabels += count
                return
        self.refresh()
