"""Building and querying the daemon's resident snapshot.

A :class:`ServiceSnapshot` is everything the daemon keeps in memory to
answer queries: the O(|V|) SCC labels, the condensation DAG (O(|E'|),
the paper's whole point being that |E'| ≪ |E|), its topological
layering, and a GRAIL :class:`~repro.apps.reachability.ReachabilityIndex`
over the DAG.  Everything else — the edge file itself — stays on disk
and is touched only during builds.

Two construction paths:

* :func:`build_snapshot` — the full semi-external SCC run through
  :meth:`repro.core.base.SCCAlgorithm.run`, inheriting its whole
  robustness kit: counted I/O, fault injection with seeded-backoff
  retries, and durable checkpoints (``checkpoint_dir`` + ``resume``) so
  a SIGKILL mid-build resumes at the last scan boundary and produces a
  byte-identical partition.
* :func:`snapshot_from_labels` — reconstruction from a saved label
  array (the ``labels-gen<k>.npy`` sidecar the server persists after
  every successful build).  A restarted daemon gets back to SERVING
  with one condensation scan instead of a full SCC run; determinism of
  the scan + the seeded GRAIL traversals makes the reconstruction
  exact.

The snapshot's :func:`partition_fingerprint` is the identity the chaos
drill pins: interrupted and uninterrupted builds must converge to the
same fingerprint, byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.apps.reachability import ReachabilityIndex
from repro.artifact.manifest import partition_fingerprint
from repro.constants import DEFAULT_BLOCK_SIZE
from repro.graph.digraph import Digraph
from repro.graph.storage import open_disk_graph
from repro.io.atomic import abort_replace, replace_file
from repro.io.counter import IOStats
from repro.obs.metrics import MetricsRegistry


@dataclass
class ServiceSnapshot:
    """The resident, immutable query state of one build generation."""

    labels: np.ndarray          # (num_nodes,) SCC label per node
    num_sccs: int
    sizes: np.ndarray           # (num_sccs,) member counts
    dag: Digraph                # the condensation
    layers: np.ndarray          # (num_sccs,) topological layer per SCC
    index: ReachabilityIndex    # GRAIL labels over the condensation
    fingerprint: str            # partition_fingerprint(labels)
    num_nodes: int
    num_edges: int
    generation: int
    build_io: Optional[IOStats] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def _check_node(self, node: int, role: str = "node") -> int:
        node = int(node)
        if node < 0 or node >= self.num_nodes:
            raise ValueError(
                f"{role} {node} out of range for a graph with "
                f"{self.num_nodes} node(s)"
            )
        return node

    def reaches(
        self, u: int, v: int, check: Optional[Callable[[], None]] = None
    ) -> bool:
        """Node-level reachability through the condensation."""
        u = self._check_node(u, "u")
        v = self._check_node(v, "v")
        a = int(self.labels[u])
        b = int(self.labels[v])
        # The index is built over the DAG with identity labels, so SCC
        # ids are its node ids; same-SCC queries short-circuit here.
        if a == b:
            return True
        return self.index.reaches(a, b, check=check)

    def scc_of(self, node: int) -> dict:
        """SCC id, size and layer of one node."""
        node = self._check_node(node)
        scc = int(self.labels[node])
        return {
            "scc": scc,
            "size": int(self.sizes[scc]),
            "layer": int(self.layers[scc]),
        }

    def members(self, scc: int, limit: int) -> dict:
        """Up to ``limit`` member node ids of one SCC (+ the true size)."""
        scc = int(scc)
        if scc < 0 or scc >= self.num_sccs:
            raise ValueError(
                f"scc {scc} out of range (condensation has "
                f"{self.num_sccs} SCCs)"
            )
        ids = np.flatnonzero(self.labels == scc)
        return {
            "scc": scc,
            "size": int(ids.size),
            "members": [int(x) for x in ids[: max(1, int(limit))]],
            "truncated": bool(ids.size > limit),
        }

    def layer_of(self, node: int) -> dict:
        """Topological layer of one node's SCC."""
        node = self._check_node(node)
        scc = int(self.labels[node])
        return {"scc": scc, "layer": int(self.layers[scc]),
                "num_layers": int(self.layers.max()) + 1 if self.num_sccs else 0}


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def condensation_edges(graph, labels: np.ndarray) -> np.ndarray:
    """Unique inter-SCC edges of ``graph`` under ``labels``, streamed.

    One counted sequential scan; resident state is the accumulated
    per-batch-unique pair set, O(|E'|) plus one batch — the
    semi-external shape (|E'| is what the daemon keeps anyway).
    """
    labels = np.asarray(labels, dtype=np.int64)
    unique_parts: List[np.ndarray] = []
    for batch in graph.scan_edges():
        mapped = labels[batch.astype(np.int64)]
        inter = mapped[mapped[:, 0] != mapped[:, 1]]
        if inter.size:
            unique_parts.append(np.unique(inter, axis=0))
    if not unique_parts:
        return np.empty((0, 2), dtype=np.int64)
    return np.unique(np.concatenate(unique_parts), axis=0)


def dag_layers(dag: Digraph) -> np.ndarray:
    """Topological layer of every DAG node by vectorised Kahn peeling.

    Layer k = settled on the k-th peel, matching the semantics of
    :func:`repro.apps.toposort.semi_external_toposort` (a node's layer
    is the longest path from any source to it).
    """
    n = dag.num_nodes
    layers = np.zeros(n, dtype=np.int64)
    if n == 0:
        return layers
    indegree = dag.in_degree().astype(np.int64)
    indptr, indices = dag.indptr, dag.indices
    ready = np.flatnonzero(indegree == 0)
    depth = 0
    settled = 0
    while ready.size:
        layers[ready] = depth
        settled += int(ready.size)
        children_parts = [
            indices[indptr[u] : indptr[u + 1]].astype(np.int64)
            for u in ready
        ]
        children = (
            np.concatenate(children_parts)
            if children_parts
            else np.empty(0, dtype=np.int64)
        )
        if children.size:
            np.subtract.at(indegree, children, 1)
            candidates = np.unique(children)
            ready = candidates[indegree[candidates] == 0]
        else:
            ready = np.empty(0, dtype=np.int64)
        depth += 1
    if settled != n:
        raise ValueError("dag_layers: input graph has a cycle")
    return layers


def _assemble(
    labels: np.ndarray,
    num_sccs: int,
    dag_edges: np.ndarray,
    num_nodes: int,
    num_edges: int,
    generation: int,
    build_io: Optional[IOStats],
    num_traversals: int,
    seed: int,
) -> ServiceSnapshot:
    dag = Digraph(num_sccs, dag_edges)
    sizes = np.bincount(labels, minlength=num_sccs)
    # Identity labels: the DAG's nodes *are* the SCC ids, so the GRAIL
    # index never re-runs Tarjan over an already-condensed graph.
    index = ReachabilityIndex(
        dag,
        labels=np.arange(num_sccs, dtype=np.int64),
        num_traversals=num_traversals,
        seed=seed,
    )
    return ServiceSnapshot(
        labels=labels,
        num_sccs=num_sccs,
        sizes=sizes,
        dag=dag,
        layers=dag_layers(dag),
        index=index,
        fingerprint=partition_fingerprint(labels),
        num_nodes=num_nodes,
        num_edges=num_edges,
        generation=generation,
        build_io=build_io,
    )


def build_snapshot(
    graph_path: str,
    algorithm: str = "1PB-SCC",
    block_size: int = DEFAULT_BLOCK_SIZE,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    fault_plan: Optional[str] = None,
    time_limit: Optional[float] = None,
    metrics: Optional[MetricsRegistry] = None,
    num_traversals: int = 2,
    seed: int = 0,
    generation: int = 0,
) -> ServiceSnapshot:
    """Full crash-safe build: SCC run + condensation + GRAIL labels.

    Raises whatever the underlying run raises — SimulatedCrash,
    AlgorithmTimeout, exhausted-retry OSError — the server's builder
    maps those onto lifecycle transitions.
    """
    from repro.core import ALGORITHMS

    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; "
            f"choose from {sorted(ALGORITHMS)}"
        )
    graph = open_disk_graph(graph_path, block_size=block_size)
    try:
        result = ALGORITHMS[algorithm]().run(
            graph,
            time_limit=time_limit,
            fault_plan=fault_plan,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            metrics=metrics,
        )
        dag_edges = condensation_edges(graph, result.labels)
        return _assemble(
            result.labels,
            result.num_sccs,
            dag_edges,
            graph.num_nodes,
            graph.num_edges,
            generation,
            result.stats.io,
            num_traversals,
            seed,
        )
    finally:
        graph.close()


def snapshot_from_labels(
    graph_path: str,
    labels: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    num_traversals: int = 2,
    seed: int = 0,
    generation: int = 0,
) -> ServiceSnapshot:
    """Reconstruct a snapshot from persisted labels (restart fast path)."""
    labels = np.asarray(labels, dtype=np.int64)
    graph = open_disk_graph(graph_path, block_size=block_size)
    try:
        if labels.shape[0] != graph.num_nodes:
            raise ValueError(
                f"saved labels cover {labels.shape[0]} nodes but "
                f"{graph_path} has {graph.num_nodes}"
            )
        num_sccs = int(labels.max()) + 1 if labels.size else 0
        dag_edges = condensation_edges(graph, labels)
        return _assemble(
            labels,
            num_sccs,
            dag_edges,
            graph.num_nodes,
            graph.num_edges,
            generation,
            None,
            num_traversals,
            seed,
        )
    finally:
        graph.close()


# ----------------------------------------------------------------------
# label persistence (the restart fast path's sidecar)
# ----------------------------------------------------------------------

def save_labels_atomic(labels: np.ndarray, path: str) -> None:
    """Persist labels durably via the staged-replace protocol.

    An O(|V|) control-plane sidecar like the checkpoint snapshot — not
    graph payload, so it is deliberately outside the counted I/O model.
    """
    staging = path + ".staging"
    try:
        with open(staging, "wb") as handle:  # repro: allow[IO001]
            np.save(handle, np.asarray(labels, dtype=np.int64))
        replace_file(staging, path)
    except BaseException:
        # A torn staging write must not outlive the failed save.
        abort_replace(staging, path)
        raise


def load_labels(path: str) -> Optional[np.ndarray]:
    """Load a persisted label array; ``None`` when the sidecar is absent."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:  # repro: allow[IO001]
        return np.asarray(np.load(handle), dtype=np.int64)
