"""2P-SCC: the two-phase single-tree algorithm (paper Section 6).

Phase 1, *Tree-Construction* (Algorithm 4), builds a BR+-Tree: starting
from the star below the virtual root, every sequential scan of ``E(G)``
eliminates up-edges (Definition 5.1) either by recording a backward link
``(u, dlink(v))`` — when ``dlink(v)`` is already an ancestor of ``u``,
meaning ``u`` lies on a cycle — or by the ``pushdown`` reshaping
operation.  ``drank``/``dlink`` are refreshed once per scan, exactly the
paper's ``update-drank``.

Phase 2, *Tree-Search* (Algorithm 5), performs one more sequential scan:
every backward edge (including the links stored in the BR+-Tree)
contracts the tree path it closes, and the contracted supernodes are the
SCCs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.constants import VIRTUAL_ROOT
from repro.core.base import Deadline, IterationStats, SCCAlgorithm
from repro.exceptions import NonTermination
from repro.graph.diskgraph import DiskGraph
from repro.io.memory import MemoryModel
from repro.kernels import ScanKernels, resolve_kernels
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.spanning.brtree import BRPlusTree


def tree_construction(
    graph: DiskGraph,
    deadline: Deadline,
    max_iterations: int | None = None,
    tracer: Tracer = NULL_TRACER,
    kernel: Optional[ScanKernels] = None,
    boundary: Optional[Callable[[BRPlusTree, int, bool], None]] = None,
    resume: Optional[Tuple[BRPlusTree, int, bool]] = None,
    progress: Optional[Callable[[int], None]] = None,
) -> Tuple[BRPlusTree, int]:
    """Paper Algorithm 4: build a BR+-Tree free of up-edges.

    Returns the tree and the number of full edge scans performed.  Each
    scan is traced as a ``pushdown-scan`` span (with ``pushdowns`` and
    ``backward-links`` counters) under one ``tree-construction`` span.

    ``boundary``, when given, is invoked after every completed scan
    (post ``update_drank``) with ``(tree, scans, updated)`` — the
    checkpoint/crash hook.  ``resume`` restarts the loop from a
    restored ``(tree, scans, updated)`` snapshot instead of the initial
    star (the tree's drank/dlink are part of the snapshot, so no
    refresh is needed).  ``progress`` is invoked with the completed scan
    count after every scan — the live-metrics position hook.
    """
    kernel = kernel if kernel is not None else resolve_kernels()
    n = graph.num_nodes
    if resume is not None:
        tree, scans, updated = resume
    else:
        tree = BRPlusTree(n)
        tree.update_drank()
        scans = 0
        updated = True
    if max_iterations is None:
        max_iterations = n + 2
    with tracer.span("tree-construction"):
        while updated:
            deadline.check()
            if scans >= max_iterations:
                raise NonTermination("Tree-Construction", scans)
            updated = False
            scans += 1
            pushdowns = 0
            backward_links = 0
            with tracer.span("pushdown-scan", iteration=scans):
                edges_classified = 0
                for batch in graph.scan_edges():
                    deadline.check()
                    us = batch[:, 0].astype(np.int64)
                    vs = batch[:, 1].astype(np.int64)
                    # Vectorised skip: tree edges, self-loops, and edges that can
                    # be neither backward (needs depth(v) < depth(u)) nor up-edges
                    # (needs drank(u) >= drank(v)).
                    depth = tree.depth
                    drank = tree.drank
                    keep = (us != vs) & (tree.parent[vs] != us)
                    keep &= (drank[us] >= drank[vs]) | (depth[vs] < depth[us])
                    if not keep.any():
                        continue
                    us = us[keep]
                    vs = vs[keep]
                    edges_classified += us.shape[0]
                    changed, pushed, blinked = kernel.construction_scan(
                        tree, us, vs
                    )
                    if changed:
                        updated = True
                    pushdowns += pushed
                    backward_links += blinked
                tracer.add("pushdowns", pushdowns)
                tracer.add("backward-links", backward_links)
                tracer.add("edges-classified", edges_classified)
                for key, value in kernel.drain_counters().items():
                    tracer.add(key, value)
            tree.update_drank()
            if progress is not None:
                progress(scans)
            if boundary is not None:
                boundary(tree, scans, updated)
    return tree, scans


def tree_search(
    graph: DiskGraph,
    tree: BRPlusTree,
    deadline: Deadline,
    tracer: Tracer = NULL_TRACER,
    scan_index: int = 1,
    kernel: Optional[ScanKernels] = None,
) -> int:
    """Paper Algorithm 5: contract backward-edge paths in one scan.

    Contracts in-place on ``tree``; returns the number of scans (1).
    The backward links stored in the BR+-Tree are contracted first —
    they stand in for the up-edges deleted during construction.  The
    single edge scan is traced as a ``search-scan`` span (numbered
    ``scan_index`` so it lines up with the run's iteration record)
    under one ``tree-search`` span.
    """
    kernel = kernel if kernel is not None else resolve_kernels()
    with tracer.span("tree-search"):
        blink_contractions = 0
        for u in np.flatnonzero(tree.blink != VIRTUAL_ROOT).tolist():
            deadline.check()
            target = int(tree.blink[u])
            ru = tree.find(u)
            rb = tree.find(target)
            if ru != rb and tree.is_ancestor(rb, ru):
                tree.contract_path(ru, rb)
                blink_contractions += 1
        tracer.add("blink-contractions", blink_contractions)

        contractions = 0
        with tracer.span("search-scan", iteration=scan_index):
            edges_classified = 0
            for batch in graph.scan_edges():
                deadline.check()
                us = tree.find_many(batch[:, 0].astype(np.int64))
                vs = tree.find_many(batch[:, 1].astype(np.int64))
                keep = (us != vs) & (tree.depth[vs] < tree.depth[us])
                if not keep.any():
                    continue
                pairs = np.column_stack((us[keep], vs[keep]))
                edges_classified += pairs.shape[0]
                contractions += kernel.search_scan(tree, pairs)
            tracer.add("contractions", contractions)
            tracer.add("edges-classified", edges_classified)
            for key, value in kernel.drain_counters().items():
                tracer.add(key, value)
    return 1


class TwoPhaseSCC(SCCAlgorithm):
    """Paper Algorithm 3: Tree-Construction followed by Tree-Search."""

    name = "2P-SCC"

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
        memory.require_node_arrays(3)  # BR+-Tree: parent, depth, blink
        if n == 0:
            return np.empty(0, dtype=np.int64), 0, [], {}

        resume = self._take_resume()
        construction_resume: Optional[Tuple[BRPlusTree, int, bool]] = None
        phase = "construction"
        construction_scans = 0
        search_scans = 0
        tree: Optional[BRPlusTree] = None
        if resume is not None:
            tree = BRPlusTree.from_state(resume.arrays)
            phase = str(resume.meta["phase"])
            construction_scans = int(resume.meta["scans"])  # type: ignore[arg-type]
            if phase == "construction":
                construction_resume = (
                    tree, construction_scans, bool(resume.meta["updated"])
                )

        if phase == "search-done":
            # The crash hit after the search scan completed: the
            # restored tree already holds the final contraction.
            assert tree is not None
            search_scans = int(resume.meta["search_scans"])  # type: ignore[arg-type,union-attr]
        else:
            def construction_boundary(
                t: BRPlusTree, scans: int, updated: bool
            ) -> None:
                self._scan_boundary(
                    arrays=t.state_arrays(),
                    meta={
                        "phase": "construction",
                        "scans": scans,
                        "updated": updated,
                    },
                )

            tree, construction_scans = tree_construction(
                graph, deadline, tracer=tracer, kernel=kernel,
                boundary=construction_boundary if self._boundary_active else None,
                resume=construction_resume,
                progress=lambda scans: self._note_progress(
                    scans, n, graph.num_edges
                ),
            )
            search_scans = tree_search(
                graph, tree, deadline, tracer=tracer,
                scan_index=construction_scans + 1, kernel=kernel,
            )
            self._note_progress(
                construction_scans + search_scans, n, graph.num_edges
            )
            if self._boundary_active:
                self._scan_boundary(
                    arrays=tree.state_arrays(),
                    meta={
                        "phase": "search-done",
                        "scans": construction_scans,
                        "search_scans": search_scans,
                    },
                )
        labels, _ = tree.scc_labels()

        iterations = construction_scans + search_scans
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
        extras = {
            "construction_scans": construction_scans,
            "search_scans": search_scans,
        }
        return labels, iterations, per_iteration, extras
