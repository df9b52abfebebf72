"""Vector-versus-scalar kernel equivalence (the transparency contract).

The vector backend must make the *same decisions in the same order* as
the paper-literal scalar loops — not merely produce a correct partition.
These tests fuzz that contract three ways:

* full-run equality on random graphs, for all five algorithms: labels,
  iteration counts and every counted I/O figure must match exactly;
* batch-level equality for each of the four tree scans (1P, 2P
  construction and search, DFS): both backends applied to the same
  batches must return the same tallies and leave identical structures
  behind;
* helper-kernel equality (``compact_pairs``, ``absorb_members``).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import compute_sccs
from repro.core import ALGORITHMS
from repro.exceptions import NonTermination
from repro.core.base import Deadline
from repro.core.dfs_scc import _DFSTree
from repro.core.one_phase import OnePhaseSCC
from repro.core.validate import partitions_equal
from repro.graph.digraph import Digraph
from repro.inmemory.tarjan import tarjan_scc
from repro.kernels import (
    DEFAULT_KERNELS,
    KERNELS,
    ScalarKernels,
    VectorKernels,
    resolve_kernels,
)
from repro.spanning.brtree import BRPlusTree
from repro.spanning.tree import ContractibleTree
from repro.spanning.unionfind import DisjointSet

from tests.conftest import SMALL_BLOCK


def random_graph(seed: int, n: int = 60, m: int = 240) -> Digraph:
    rng = np.random.default_rng(seed)
    return Digraph(n, rng.integers(0, n, size=(m, 2)))


class TestResolve:
    def test_default_is_vector(self):
        assert DEFAULT_KERNELS == "vector"
        assert isinstance(resolve_kernels(), VectorKernels)

    def test_names_round_trip(self):
        for name, cls in KERNELS.items():
            assert isinstance(resolve_kernels(name), cls)

    def test_instances_pass_through(self):
        kernel = ScalarKernels()
        assert resolve_kernels(kernel) is kernel

    def test_unknown_name_is_a_value_error(self):
        with pytest.raises(ValueError, match="scalar.*vector"):
            resolve_kernels("simd")


class TestFullRunEquivalence:
    """Same labels, same iterations, same counted I/O — per algorithm."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_vector_matches_scalar(self, algorithm, seed, tmp_path):
        graph = random_graph(seed)
        truth, _ = tarjan_scc(graph)
        results = {}
        for kernels in ("vector", "scalar"):
            workdir = tmp_path / f"{kernels}-{seed}"
            workdir.mkdir()
            try:
                results[kernels] = compute_sccs(
                    graph,
                    algorithm=algorithm,
                    block_size=SMALL_BLOCK,
                    workdir=str(workdir),
                    kernels=kernels,
                )
            except NonTermination as failure:
                # EM-SCC legitimately DNFs when contraction stalls (the
                # paper's Section 4 failure modes); transparency then
                # demands both backends stall at the same iteration.
                results[kernels] = failure
        vector, scalar = results["vector"], results["scalar"]
        if isinstance(vector, NonTermination) or isinstance(scalar, NonTermination):
            assert str(vector) == str(scalar)
            return
        assert partitions_equal(vector.labels, scalar.labels)
        assert partitions_equal(vector.labels, truth)
        assert vector.stats.iterations == scalar.stats.iterations
        assert vector.stats.io.reads == scalar.stats.io.reads
        assert vector.stats.io.writes == scalar.stats.io.writes
        assert vector.stats.io.bytes_read == scalar.stats.io.bytes_read
        assert vector.stats.io.bytes_written == scalar.stats.io.bytes_written

    def test_dense_cyclic_graph(self, tmp_path):
        # A near-clique drives heavy contraction — the mutation-rich
        # regime where stale snapshots are most dangerous.
        n = 24
        edges = [(u, (u + 1) % n) for u in range(n)]
        edges += [(u, (u + 7) % n) for u in range(n)]
        edges += [((u + 3) % n, u) for u in range(n)]
        graph = Digraph(n, np.array(edges))
        runs = []
        for kernels in ("vector", "scalar"):
            workdir = tmp_path / kernels
            workdir.mkdir()
            runs.append(
                compute_sccs(
                    graph,
                    algorithm="1P-SCC",
                    block_size=SMALL_BLOCK,
                    workdir=str(workdir),
                    kernels=kernels,
                )
            )
        assert partitions_equal(runs[0].labels, runs[1].labels)
        assert runs[0].stats.iterations == runs[1].stats.iterations


class TestBatchLevelEquivalence:
    """Both backends leave the same tree behind, batch by batch."""

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_one_phase_scan_same_trajectory(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        scalar_tree = ContractibleTree(n)
        vector_tree = ContractibleTree(n)
        scalar_kernel = ScalarKernels()
        vector_kernel = VectorKernels()
        # Small n keeps batches dense in contractions and pushdowns, so
        # later edges of a batch see nodes earlier edges moved or killed.
        for batch_index in range(12):
            batch = rng.integers(0, n, size=(30, 2)).astype(np.uint32)
            scalar_pairs = OnePhaseSCC._candidates(scalar_tree, batch)
            vector_pairs = OnePhaseSCC._candidates(vector_tree, batch)
            assert np.array_equal(scalar_pairs, vector_pairs)
            if scalar_pairs.shape[0] == 0:
                continue
            got_s = scalar_kernel.one_phase_scan(scalar_tree, scalar_pairs)
            got_v = vector_kernel.one_phase_scan(vector_tree, vector_pairs)
            assert got_s == got_v, f"batch {batch_index}"
            assert np.array_equal(scalar_tree.parent, vector_tree.parent)
            assert np.array_equal(scalar_tree.depth, vector_tree.depth)
            assert np.array_equal(scalar_tree.live, vector_tree.live)
            assert np.array_equal(
                scalar_tree.ds.find_many(np.arange(n, dtype=np.int64)),
                vector_tree.ds.find_many(np.arange(n, dtype=np.int64)),
            )
        counters = vector_kernel.drain_counters()
        assert counters.get("kernel-fast-path", 0) > 0

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_construction_and_search_scans_same_trajectory(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        trees = [BRPlusTree(n), BRPlusTree(n)]
        kernels = [ScalarKernels(), VectorKernels()]
        for tree in trees:
            tree.update_drank()
        for scan in range(8):
            batch = rng.integers(0, n, size=(40, 2)).astype(np.int64)
            got = []
            for kernel, tree in zip(kernels, trees):
                us, vs = batch[:, 0], batch[:, 1]
                keep = (us != vs) & (tree.parent[vs] != us)
                got.append(kernel.construction_scan(tree, us[keep], vs[keep]))
                tree.update_drank()
            assert got[0] == got[1], f"construction scan {scan}"
            for name in ("parent", "depth", "blink", "drank", "dlink"):
                assert np.array_equal(
                    getattr(trees[0], name), getattr(trees[1], name)
                ), name
        for scan in range(4):
            batch = rng.integers(0, n, size=(40, 2)).astype(np.int64)
            got = []
            for kernel, tree in zip(kernels, trees):
                us = tree.find_many(batch[:, 0])
                vs = tree.find_many(batch[:, 1])
                keep = (us != vs) & (tree.depth[vs] < tree.depth[us])
                got.append(
                    kernel.search_scan(tree, np.column_stack((us[keep], vs[keep])))
                )
            assert got[0] == got[1], f"search scan {scan}"
            assert np.array_equal(trees[0].live, trees[1].live)
            assert np.array_equal(trees[0].depth, trees[1].depth)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_dfs_scan_same_trajectory(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        order = rng.permutation(n).astype(np.int64)
        trees = [_DFSTree(order), _DFSTree(order)]
        kernels = [ScalarKernels(), VectorKernels()]
        deadline = Deadline("DFS-SCC", None)
        for scan in range(10):
            batch = rng.integers(0, n, size=(25, 2)).astype(np.uint32)
            got = [
                kernel.dfs_scan(tree, batch, deadline)
                for kernel, tree in zip(kernels, trees)
            ]
            assert got[0] == got[1], f"dfs scan {scan}"
            for name in ("parent", "depth", "pre", "size"):
                assert np.array_equal(
                    getattr(trees[0], name), getattr(trees[1], name)
                ), name

    def test_scan_on_copied_tree_is_deterministic(self):
        rng = np.random.default_rng(9)
        n = 30
        tree = ContractibleTree(n)
        warmup = OnePhaseSCC._candidates(
            tree, rng.integers(0, n, size=(40, 2)).astype(np.uint32)
        )
        VectorKernels().one_phase_scan(tree, warmup)
        clone = copy.deepcopy(tree)
        batch = rng.integers(0, n, size=(40, 2)).astype(np.uint32)
        pairs = OnePhaseSCC._candidates(tree, batch)
        got_a = VectorKernels().one_phase_scan(tree, pairs)
        got_b = ScalarKernels().one_phase_scan(
            clone, OnePhaseSCC._candidates(clone, batch)
        )
        assert got_a == got_b
        assert np.array_equal(tree.parent, clone.parent)


class TestHelperKernels:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compact_pairs_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        us = rng.integers(0, 10_000, size=200)
        vs = rng.integers(0, 10_000, size=200)
        nodes_v, edges_v = VectorKernels().compact_pairs(us, vs)
        nodes_s, edges_s = ScalarKernels().compact_pairs(us, vs)
        assert np.array_equal(nodes_v, nodes_s)
        assert np.array_equal(edges_v, edges_s)
        # The remapping must invert back to the original endpoints.
        assert np.array_equal(nodes_v[edges_v[:, 0]], us)
        assert np.array_equal(nodes_v[edges_v[:, 1]], vs)

    def test_compact_pairs_empty(self):
        empty = np.empty(0, dtype=np.int64)
        nodes, edges = VectorKernels().compact_pairs(empty, empty)
        assert nodes.shape == (0,) and edges.shape[0] == 0

    def test_absorb_members_equivalence(self):
        for kernel_cls in (VectorKernels, ScalarKernels):
            ds = DisjointSet(8)
            live = np.ones(8, dtype=bool)
            merged = kernel_cls().absorb_members(
                ds, live, np.array([3, 5, 6], dtype=np.int64), 2
            )
            assert merged == 3
            assert ds.set_size(2) == 4
            assert not live[3] and not live[5] and not live[6]
            assert live[2]


class TestCounterPlumbing:
    def test_run_reports_kernel_counters(self, tmp_path):
        graph = random_graph(11)
        kernel = VectorKernels()
        result = compute_sccs(
            graph,
            algorithm="1P-SCC",
            block_size=SMALL_BLOCK,
            workdir=str(tmp_path),
            kernels=None if kernel is None else kernel,
        )
        assert result.num_sccs > 0
        # Counters were drained into the tracer scan spans by the run.
        assert kernel.drain_counters() == {}

    def test_bump_ignores_zero(self):
        kernel = ScalarKernels()
        kernel.bump("kernel-scalar-edges", 0)
        assert kernel.drain_counters() == {}
        kernel.bump("kernel-scalar-edges", 3)
        kernel.bump("kernel-scalar-edges", 2)
        assert kernel.drain_counters() == {"kernel-scalar-edges": 5}
        assert kernel.drain_counters() == {}
