"""Kosaraju-Sharir SCC algorithm (iterative, two DFS passes).

This is the in-memory algorithm the paper's DFS-SCC baseline
semi-externalizes, and the one Algorithm 8 (1PB-SCC) runs on each
in-memory batch.  Implemented from scratch with explicit stacks.

Both passes run over plain Python lists: each direction's CSR is built
once with a stable sort and converted with one ``tolist()``, so the
inner loops index lists and a ``bytearray`` instead of reading boxed
numpy scalars.  The visiting order is the one a numpy-indexed CSR walk
gives (successors in edge-array order, roots in id order), so the
labels do not depend on the representation.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.digraph import Digraph


def _csr_lists(
    sources: np.ndarray, targets: np.ndarray, n: int
) -> Tuple[List[int], List[int]]:
    """``(indptr, indices)`` as lists, successors in edge-array order."""
    # numpy's stable sort is a radix sort for 16-bit keys and a merge
    # sort otherwise; narrowing the ids when they fit is 5x faster on
    # 1PB-SCC's batch graphs and sorts identically.
    keys = sources.astype(np.uint16) if n <= 1 << 16 else sources
    order = np.argsort(keys, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:])
    return indptr.tolist(), targets[order].tolist()


def _finish_order(n: int, indptr: List[int], indices: List[int]) -> List[int]:
    """Nodes in increasing DFS finish time (the first pass)."""
    visited = bytearray(n)
    order: List[int] = []
    finish = order.append
    # DFS frames: node and next CSR position, as two parallel lists;
    # the top frame lives in ``v``/``i``/``end``.
    frame_node: List[int] = []
    frame_next: List[int] = []
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = 1
        v = root
        i = indptr[v]
        end = indptr[v + 1]
        while True:
            while i < end:
                w = indices[i]
                i += 1
                if not visited[w]:
                    visited[w] = 1
                    frame_node.append(v)
                    frame_next.append(i)
                    v = w
                    i = indptr[w]
                    end = indptr[w + 1]
            finish(v)
            if not frame_node:
                break
            v = frame_node.pop()
            i = frame_next.pop()
            end = indptr[v + 1]
    return order


def kosaraju_scc(graph: Digraph) -> Tuple[np.ndarray, int]:
    """Compute SCC labels via Kosaraju-Sharir.

    Returns ``(labels, num_sccs)`` with labels in ``0 .. num_sccs - 1``.
    Labels are assigned in decreasing finish order of the first DFS,
    which is a *topological* order of the condensation (the reverse of
    Tarjan's labelling convention).
    """
    n = graph.num_nodes
    edges = graph.edges
    heads = edges[:, 0]
    tails = edges[:, 1]

    indptr, indices = _csr_lists(heads, tails, n)
    order = _finish_order(n, indptr, indices)
    # Freed first, so peak memory holds one direction's lists, not two.
    del indptr, indices
    indptr, indices = _csr_lists(tails, heads, n)

    labels = [-1] * n
    stack: List[int] = []
    push = stack.append
    pop = stack.pop
    scc_count = 0
    for v in reversed(order):
        if labels[v] >= 0:
            continue
        labels[v] = scc_count
        push(v)
        while stack:
            u = pop()
            for w in indices[indptr[u] : indptr[u + 1]]:
                if labels[w] < 0:
                    labels[w] = scc_count
                    push(w)
        scc_count += 1
    return np.array(labels, dtype=np.int64), scc_count
