"""The scan-kernel interface shared by the scalar and vector backends.

A *scan kernel* is the per-batch inner engine of an edge scan: the
algorithms (1P, 1PB, 2P, DFS-SCC, EM-SCC) stream edge batches off disk,
prefilter them with numpy, and hand the surviving work to one of these
objects.  Two interchangeable backends exist:

* :class:`~repro.kernels.scalar.ScalarKernels` — the paper-literal
  per-edge loops with O(depth) parent-pointer ancestor walks.  This is
  the reference semantics and the one sanctioned home for per-edge
  ``int()``/``.tolist()`` boxing (static rule CPU001).
* :class:`~repro.kernels.vector.VectorKernels` — the same per-edge
  decisions, with every ancestor test answered in O(1) by the trees'
  live Euler-tour labels (:class:`~repro.kernels.oracle.AncestorOracle`)
  and scan-frozen values gathered per batch with numpy.

The contract between them is strict *decision equivalence*: for the
same tree state and the same candidate batch, both backends make the
same accept/pushdown/skip decision for every edge, in the same order.
Counted I/O, iteration counts and SCC partitions are therefore
byte-identical across backends (enforced by ``benchmarks/regression.py``
and the fuzz tests in ``tests/test_kernels_classify.py``).

Kernel instances are per-run (``SCCAlgorithm.run`` resolves the
``kernels=`` parameter to a fresh instance), and accumulate named event
counters which the algorithms drain into the active trace span after
every scan (``kernel-fast-path``, ``oracle-rebuilds``,
``oracle-relabels``, ``kernel-scalar-edges``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.base import Deadline
    from repro.spanning.brtree import BRPlusTree
    from repro.spanning.tree import ContractibleTree
    from repro.spanning.unionfind import DisjointSet


class ScanKernels:
    """Abstract scan-kernel backend; see the module docstring.

    Subclasses implement one method per scan-loop shape.  ``tree``
    parameters are duck-typed where noted: the DFS kernels accept the
    private ``_DFSTree`` of :mod:`repro.core.dfs_scc`.
    """

    #: Name used for ``--kernels`` resolution and run/trace attributes.
    name: str = "abstract"

    def __init__(self) -> None:
        #: Event tallies since the last :meth:`drain_counters` call.
        self.counters: Dict[str, int] = {}

    def bump(self, key: str, value: int = 1) -> None:
        """Add ``value`` to event counter ``key``."""
        if value:
            self.counters[key] = self.counters.get(key, 0) + value

    def drain_counters(self) -> Dict[str, int]:
        """Return and reset the accumulated counters.

        The algorithms call this once per scan and forward the result
        to ``tracer.add`` so traces carry per-scan kernel activity.
        """
        drained = self.counters
        self.counters = {}
        return drained

    # ------------------------------------------------------------------
    # the per-batch operations
    # ------------------------------------------------------------------
    def one_phase_scan(
        self, tree: "ContractibleTree", pairs: np.ndarray
    ) -> Tuple[int, int, int]:
        """1P-SCC inner loop over prefiltered ``(k, 2)`` supernode pairs.

        Contracts backward edges, pushes down up-edges.  Returns
        ``(early_accepts, pushdowns, largest_supernode)``.
        """
        raise NotImplementedError

    def construction_scan(
        self, tree: "BRPlusTree", us: np.ndarray, vs: np.ndarray
    ) -> Tuple[bool, int, int]:
        """2P Tree-Construction inner loop over prefiltered node arrays.

        Returns ``(updated, pushdowns, backward_links)``.
        """
        raise NotImplementedError

    def search_scan(self, tree: "BRPlusTree", pairs: np.ndarray) -> int:
        """2P Tree-Search inner loop; returns the contraction count."""
        raise NotImplementedError

    def dfs_scan(
        self, tree: Any, batch: np.ndarray, deadline: "Deadline"
    ) -> int:
        """DFS-Tree forward-cross-edge loop over one raw edge batch.

        ``tree`` is a ``_DFSTree``.  Unlike the other scans this takes
        the *unfiltered* batch: which edges are skippable depends on the
        mutating tree, so any prefilter would change the trajectory.
        Returns the number of reparents performed.
        """
        raise NotImplementedError

    def absorb_members(
        self,
        ds: "DisjointSet",
        live: np.ndarray,
        members: np.ndarray,
        rep: int,
    ) -> int:
        """Merge a group of live supernode representatives into ``rep``.

        Every entry of ``members`` must be a current set representative
        distinct from ``rep`` (the 1PB/EM contraction call sites
        guarantee this).  Returns the number of nodes absorbed.
        """
        raise NotImplementedError

    def compact_pairs(
        self, us: np.ndarray, vs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Compact endpoint ids to a dense ``0..k-1`` space (EM-SCC).

        Returns ``(nodes, comp_edges)`` where ``nodes`` is the sorted
        unique endpoint array and ``comp_edges`` the ``(m, 2)`` edge
        array over compacted indices.
        """
        raise NotImplementedError
