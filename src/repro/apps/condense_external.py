"""Out-of-core condensation: build the SCC DAG on disk.

Once a semi-external SCC algorithm has produced per-node labels, the
applications (reachability indexing, topological sort, bisimulation)
want the *condensation* — and for a graph whose edge set does not fit
in memory, the condensation's edge set may not either.  This module
builds it with the package's external-memory primitives only:

1. one sequential pass maps every edge ``(u, v)`` to
   ``(label(u), label(v))``, dropping intra-SCC edges;
2. an external merge sort groups the mapped edges;
3. one more pass streams out the sorted run with adjacent duplicates
   collapsed.

Total cost: ``scan(|E|) + sort(|E'|)`` block I/Os, all tallied in the
input graph's counter.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.constants import NODE_DTYPE
from repro.graph.diskgraph import DiskGraph
from repro.io.atomic import replace_file
from repro.io.edgefile import EdgeFile
from repro.io.extsort import external_sort_edges
from repro.io.memory import MemoryModel


def condense_to_disk(
    graph: DiskGraph,
    labels: np.ndarray,
    out_path: Optional[str] = None,
    memory: Optional[MemoryModel] = None,
    deduplicate: bool = True,
) -> DiskGraph:
    """Build the condensation of ``graph`` as a new on-disk graph.

    Parameters
    ----------
    graph:
        The original semi-external graph.
    labels:
        SCC label per node (from any algorithm in :mod:`repro.core`).
    out_path:
        Path for the condensation's edge file
        (default ``<input>.condensed``).
    memory:
        Budget for the external sort (default: the paper's default for
        the input's node count).
    deduplicate:
        Collapse parallel inter-SCC edges (the usual condensation);
        switch off to keep multiplicities.

    Returns
    -------
    DiskGraph
        The condensation: ``num_nodes`` = number of SCCs, edges on disk
        at ``out_path``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != graph.num_nodes:
        raise ValueError("labels must cover every node")
    num_sccs = int(labels.max()) + 1 if labels.size else 0
    out_path = out_path or graph.edge_file.path + ".condensed"
    if memory is None:
        memory = MemoryModel(graph.num_nodes, block_size=graph.block_size)

    # --- pass 1: map endpoints, drop intra-SCC edges.
    mapped = EdgeFile.create(
        out_path + ".mapped", counter=graph.counter, block_size=graph.block_size
    )
    for batch in graph.scan_edges():
        sources = labels[batch[:, 0].astype(np.int64)]
        targets = labels[batch[:, 1].astype(np.int64)]
        keep = sources != targets
        if keep.any():
            mapped.append(
                np.column_stack((sources[keep], targets[keep])).astype(NODE_DTYPE)
            )
    mapped.flush()

    if not deduplicate:
        mapped.close()
        replace_file(mapped.path, out_path)
        condensed_file = EdgeFile(
            out_path, counter=graph.counter, block_size=graph.block_size
        )
        return DiskGraph(num_sccs, condensed_file)

    # --- pass 2: external sort groups duplicates adjacently.
    sorted_file = external_sort_edges(
        mapped, order="source", memory=memory, out_path=out_path + ".sorted"
    )
    mapped.unlink()

    # --- pass 3: stream out with adjacent-duplicate collapse.
    condensed = EdgeFile.create(
        out_path, counter=graph.counter, block_size=graph.block_size
    )
    previous_last: Optional[np.ndarray] = None
    for batch in sorted_file.scan():
        if previous_last is not None:
            batch = np.concatenate([previous_last.reshape(1, 2), batch])
        distinct = np.ones(batch.shape[0], dtype=bool)
        distinct[1:] = (batch[1:] != batch[:-1]).any(axis=1)
        unique = batch[distinct]
        # Hold the last record back: the next block may repeat it.
        if unique.shape[0]:
            condensed.append(unique[:-1])
            previous_last = unique[-1].copy()
    if previous_last is not None:
        condensed.append(previous_last.reshape(1, 2))
    condensed.flush()
    sorted_file.unlink()
    return DiskGraph(num_sccs, condensed)
