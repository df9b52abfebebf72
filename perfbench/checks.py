"""Correctness checks, all run outside the timed regions.

Compute workloads compare the program's partition with
:func:`repro.inmemory.tarjan_scc` on the set-up graph, and the
condensation's edge count with an in-memory reference.  The serve
workload compares every daemon answer with :class:`Truth`, which is
built here from in-memory labels and condensation reachability and
never touches the daemon's GRAIL index.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel a partition ``0, 1, ...`` in order of first appearance."""
    labels = np.asarray(labels, dtype=np.int64)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(first.size, dtype=np.int64)
    return rank[inverse]


def partition_fingerprint(labels: np.ndarray) -> str:
    """SHA-256 of the canonical labels: equal iff the partitions are equal."""
    canonical = np.ascontiguousarray(canonical_labels(labels), dtype="<i8")
    return hashlib.sha256(canonical.tobytes()).hexdigest()


def condensation_edge_count(edges: np.ndarray, labels: np.ndarray) -> int:
    """Distinct inter-SCC edges of the condensation (in-memory reference)."""
    labels = np.asarray(labels, dtype=np.int64)
    sources = labels[edges[:, 0].astype(np.int64)]
    targets = labels[edges[:, 1].astype(np.int64)]
    keep = sources != targets
    pairs = sources[keep] * (int(labels.max()) + 1) + targets[keep]
    return int(np.unique(pairs).size)


class Truth:
    """Ground-truth answers for the serve workload's queries.

    ``labels`` must come from :func:`repro.inmemory.tarjan_scc`, whose
    labels are a reverse topological order of the condensation: every
    inter-SCC edge goes from a higher label to a lower one.  Reachability
    is a bitset transitive closure of the condensation, filled sinks
    first; layers are longest-path depths from the sources, the
    definition the daemon documents for its ``toposort``/``scc`` layer.
    """

    def __init__(self, edges: np.ndarray, labels: np.ndarray) -> None:
        labels = np.asarray(labels, dtype=np.int64)
        k = int(labels.max()) + 1 if labels.size else 0
        sources = labels[edges[:, 0].astype(np.int64)]
        targets = labels[edges[:, 1].astype(np.int64)]
        keep = sources != targets
        # Sorted by source, so each SCC's successors form one slice.
        pairs = np.unique(np.column_stack((sources[keep], targets[keep])), axis=0)
        if not (pairs[:, 0] > pairs[:, 1]).all():
            raise ValueError("labels are not in reverse topological order")
        self.labels = labels
        self.num_sccs = k
        self.sizes = np.bincount(labels, minlength=k)
        bounds = np.searchsorted(pairs[:, 0], np.arange(k + 1))
        words = (k + 7) // 8
        closure = np.zeros((k, words), dtype=np.uint8)
        for c in range(k):
            succ = pairs[bounds[c]:bounds[c + 1], 1]
            if succ.size:
                closure[c] = np.bitwise_or.reduce(closure[succ], axis=0)
            closure[c, c >> 3] |= np.uint8(1 << (c & 7))
        self._closure = closure
        layers = np.zeros(k, dtype=np.int64)
        for c in range(k - 1, -1, -1):
            succ = pairs[bounds[c]:bounds[c + 1], 1]
            if succ.size:
                np.maximum.at(layers, succ, layers[c] + 1)
        self.layers = layers

    def reaches(self, u: int, v: int) -> bool:
        """Whether node ``u`` reaches node ``v``."""
        a = int(self.labels[u])
        b = int(self.labels[v])
        return bool(self._closure[a, b >> 3] & (1 << (b & 7)))

    def same_scc(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` share an SCC."""
        return bool(self.labels[u] == self.labels[v])


@dataclass
class AnswerChecker:
    """Compares daemon answers with :class:`Truth`, request by request.

    The daemon numbers SCCs its own way, so SCC ids are checked for
    consistency instead of equality: every id the daemon hands out must
    map to one true component, and no two ids to the same one.
    """

    truth: Truth
    wrong: List[str] = field(default_factory=list)
    _id_to_true: Dict[int, int] = field(default_factory=dict)
    _true_to_id: Dict[int, int] = field(default_factory=dict)

    def _bind(self, scc_id: int, true_scc: int) -> bool:
        if self._id_to_true.get(scc_id, true_scc) != true_scc:
            return False
        if self._true_to_id.get(true_scc, scc_id) != scc_id:
            return False
        self._id_to_true[scc_id] = true_scc
        self._true_to_id[true_scc] = scc_id
        return True

    def check(self, request: Dict[str, Any], result: Dict[str, Any]) -> bool:
        """Record and return whether one successful answer is right."""
        op = request["op"]
        truth = self.truth
        if op == "reach":
            ok = bool(result.get("reachable")) == truth.reaches(request["u"], request["v"])
        elif op == "scc":
            true_scc = int(truth.labels[request["node"]])
            ok = (
                int(result.get("size", -1)) == int(truth.sizes[true_scc])
                and int(result.get("layer", -1)) == int(truth.layers[true_scc])
                and self._bind(int(result.get("scc", -1)), true_scc)
            )
        elif op == "members":
            ok = self._check_members(request, result)
        else:
            ok = False
        if not ok:
            self.wrong.append(f"{request} -> {result}")
        return ok

    def _check_members(self, request: Dict[str, Any], result: Dict[str, Any]) -> bool:
        members = np.asarray(result.get("members") or [], dtype=np.int64)
        if members.size == 0 or members.min() < 0 or members.max() >= self.truth.labels.size:
            return False
        owners = np.unique(self.truth.labels[members])
        if owners.size != 1:
            return False
        true_scc = int(owners[0])
        size = int(self.truth.sizes[true_scc])
        limit = int(request["limit"])
        return (
            int(result.get("size", -1)) == size
            and members.size == min(size, limit)
            and bool(result.get("truncated")) == (size > limit)
            and self._bind(int(request["scc"]), true_scc)
        )

