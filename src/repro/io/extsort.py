"""External merge sort over on-disk edge lists.

Sorting is the workhorse primitive of the I/O model (``sort(n)`` I/Os in
the paper's related-work bounds).  This module provides a run-formation
plus pairwise-merge external sort whose every block transfer flows
through the shared :class:`~repro.io.counter.IOCounter`:

* **Run formation** — scan the input in memory-sized batches, sort each
  batch in memory, write it back as a sorted run.
* **Merging** — repeatedly merge pairs of runs with block-buffered
  streaming two-way merges until a single run remains
  (``ceil(log2(#runs))`` passes over the data).

Edges are compared as packed 64-bit keys (``u << 32 | v`` for
source-major order, ``v << 32 | u`` for target-major), which keeps the
in-memory work fully vectorised.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.constants import EDGE_BYTES
from repro.io.atomic import replace_file
from repro.io.edgefile import EdgeFile
from repro.io.memory import MemoryModel

_SHIFT = np.uint64(32)
_MASK = np.uint64(0xFFFFFFFF)


def _pack(edges: np.ndarray, target_major: bool) -> np.ndarray:
    """Pack ``(m, 2)`` uint32 edges into sortable uint64 keys."""
    hi = edges[:, 1] if target_major else edges[:, 0]
    lo = edges[:, 0] if target_major else edges[:, 1]
    return (hi.astype(np.uint64) << _SHIFT) | lo.astype(np.uint64)


def _unpack(keys: np.ndarray, target_major: bool) -> np.ndarray:
    """Invert :func:`_pack` back to an ``(m, 2)`` uint32 edge array."""
    hi = (keys >> _SHIFT).astype(np.uint32)
    lo = (keys & _MASK).astype(np.uint32)
    if target_major:
        return np.column_stack((lo, hi))
    return np.column_stack((hi, lo))


class _RunReader:
    """Block-buffered reader of one sorted run, yielding packed keys."""

    def __init__(self, run: EdgeFile, target_major: bool, batch_blocks: int) -> None:
        self._scan: Iterator[np.ndarray] = run.scan(batch_blocks=batch_blocks)
        self._target_major = target_major
        self.buffer = np.empty(0, dtype=np.uint64)
        self.exhausted = False
        self.refill()

    def refill(self) -> None:
        """Load the next batch if the buffer ran dry."""
        while self.buffer.size == 0 and not self.exhausted:
            batch = next(self._scan, None)
            if batch is None:
                self.exhausted = True
            else:
                self.buffer = _pack(batch, self._target_major)

    def take_upto(self, bound: np.uint64) -> np.ndarray:
        """Remove and return all buffered keys ``<= bound``."""
        cut = int(np.searchsorted(self.buffer, bound, side="right"))
        head, self.buffer = self.buffer[:cut], self.buffer[cut:]
        self.refill()
        return head


def _merge_pair(
    run_a: EdgeFile,
    run_b: EdgeFile,
    out: EdgeFile,
    target_major: bool,
    batch_blocks: int,
) -> None:
    """Stream-merge two sorted runs into ``out``."""
    readers = [
        _RunReader(run_a, target_major, batch_blocks),
        _RunReader(run_b, target_major, batch_blocks),
    ]
    while True:
        live = [r for r in readers if r.buffer.size > 0]
        if not live:
            break
        if len(live) == 1:
            out.append(_unpack(live[0].take_upto(np.uint64(2**64 - 1)), target_major))
            continue
        # Safe emission bound: the smaller of the two buffered maxima.
        # Everything <= bound in either buffer can be emitted now because
        # the other run cannot produce smaller keys later.
        bound = min(live[0].buffer[-1], live[1].buffer[-1])
        pieces = [r.take_upto(bound) for r in live]
        merged = np.sort(np.concatenate(pieces), kind="stable")
        out.append(_unpack(merged, target_major))
    out.flush()


def external_sort_edges(
    source: EdgeFile,
    order: str = "source",
    memory: Optional[MemoryModel] = None,
    out_path: Optional[str] = None,
) -> EdgeFile:
    """Sort an edge file externally; return a new sorted :class:`EdgeFile`.

    Parameters
    ----------
    source:
        Input edge file; left untouched.
    order:
        ``"source"`` sorts by ``(u, v)``; ``"target"`` by ``(v, u)`` —
        the grouping needed to build a reversed adjacency.
    memory:
        Memory model bounding run size and merge buffers; defaults to
        the paper's default budget for a graph with as many nodes as the
        file has edges would be meaningless, so the default here is a
        model with capacity for 64 blocks.
    out_path:
        Path of the sorted output (default: ``source.path + ".sorted"``).
    """
    if order not in ("source", "target"):
        raise ValueError("order must be 'source' or 'target'")
    target_major = order == "target"
    if memory is None:
        memory = MemoryModel(
            num_nodes=0,
            capacity=64 * source.block_size,
            block_size=source.block_size,
        )
    out_path = out_path or source.path + ".sorted"
    run_blocks = max(1, memory.capacity // source.block_size)
    buffer_blocks = max(1, run_blocks // 4)

    # ------------------------------------------------------------------
    # Phase 1: run formation.
    # ------------------------------------------------------------------
    runs: List[EdgeFile] = []
    for index, batch in enumerate(source.scan(batch_blocks=run_blocks)):
        keys = np.sort(_pack(batch, target_major), kind="stable")
        run = EdgeFile.create(
            f"{out_path}.run{index}",
            counter=source.counter,
            block_size=source.block_size,
        )
        run.append(_unpack(keys, target_major))
        run.flush()
        runs.append(run)

    if not runs:
        return EdgeFile.create(
            out_path, counter=source.counter, block_size=source.block_size
        )

    # ------------------------------------------------------------------
    # Phase 2: pairwise merge passes.
    # ------------------------------------------------------------------
    generation = 0
    while len(runs) > 1:
        next_runs: List[EdgeFile] = []
        for pair_index in range(0, len(runs), 2):
            if pair_index + 1 == len(runs):
                next_runs.append(runs[pair_index])
                continue
            merged = EdgeFile.create(
                f"{out_path}.gen{generation}.{pair_index // 2}",
                counter=source.counter,
                block_size=source.block_size,
            )
            _merge_pair(
                runs[pair_index],
                runs[pair_index + 1],
                merged,
                target_major,
                buffer_blocks,
            )
            runs[pair_index].unlink()
            runs[pair_index + 1].unlink()
            next_runs.append(merged)
        runs = next_runs
        generation += 1

    final = runs[0]
    final.close()
    # Durable swap into place (no-op when the final run already is the
    # output path): the sorted file survives a crash intact or not at all.
    replace_file(final.path, out_path)
    return EdgeFile(out_path, counter=source.counter, block_size=source.block_size)


def reverse_edges(source: EdgeFile, out_path: Optional[str] = None) -> EdgeFile:
    """Write the reversal of ``source`` (every ``(u, v)`` becomes ``(v, u)``).

    One sequential read plus one sequential write of the whole file —
    the cost DFS-SCC pays to build the transposed graph before its
    second DFS.
    """
    out_path = out_path or source.path + ".rev"
    reversed_file = EdgeFile.create(
        out_path,
        counter=source.counter,
        block_size=source.block_size,
        cache=source.cache,
        prefetch_depth=source.prefetch_depth,
    )
    for batch in source.scan():
        reversed_file.append(batch[:, ::-1])
    reversed_file.flush()
    return reversed_file


def estimate_sort_ios(num_edges: int, block_size: int, memory_bytes: int) -> int:
    """Analytic ``sort(n)`` block I/O estimate for documentation and tests."""
    if num_edges == 0:
        return 0
    blocks = -(-num_edges * EDGE_BYTES // block_size)
    run_blocks = max(1, memory_bytes // block_size)
    runs = -(-blocks // run_blocks)
    passes = 1 + max(0, int(np.ceil(np.log2(max(runs, 1)))))
    return 2 * blocks * passes
