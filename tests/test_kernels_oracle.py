"""Property tests for the live Euler-tour ancestor labels.

The spanning trees keep :class:`~repro.kernels.AncestorOracle` labels
exact across every edit, so at any moment the interval test must agree
with the walk-based ``is_ancestor`` on every live pair, and be False
for any pair involving a dead node.  The walk is the ground truth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import VIRTUAL_ROOT
from repro.core.dfs_scc import _DFSTree
from repro.kernels import AncestorOracle, VectorKernels
from repro.spanning.tree import ContractibleTree


def exhaustive_check(oracle: AncestorOracle, tree: ContractibleTree) -> None:
    """Labels == walk on every ordered live pair; dead pairs are False."""
    nodes = list(range(tree.n))
    live = tree.live
    for a in nodes:
        for d in nodes:
            got = oracle.is_ancestor(a, d)
            if live[a] and live[d]:
                assert got == tree.is_ancestor(a, d), (a, d)
            else:
                assert not got, f"dead pair ({a}, {d}) answered True"


def random_mutation(rng: np.random.Generator, tree: ContractibleTree) -> None:
    """Apply one random structural edit drawn from the kernel op set."""
    live = np.flatnonzero(tree.live)
    if live.shape[0] < 2:
        return
    op = rng.integers(0, 3)
    u, v = (int(x) for x in rng.choice(live, size=2, replace=False))
    if op == 0:
        # contract_path needs an ancestor pair; promote v to an ancestor
        # of u when it is one, else fall through to a pushdown shape.
        if tree.is_ancestor(v, u):
            tree.contract_path(u, v)
        elif not tree.is_ancestor(u, v):
            tree.pushdown(u, v)
    elif op == 1:
        if not tree.is_ancestor(u, v) and not tree.is_ancestor(v, u):
            tree.pushdown(u, v)
    else:
        tree.reject(u)


def chain_pairs(n: int) -> np.ndarray:
    """Pairs ``(i, i + 1)``: each pushes the next node under a leaf."""
    return np.column_stack((np.arange(n - 1), np.arange(1, n))).astype(np.int64)


class TestRebuildAgreement:
    """The interval test is exact at every moment, not just after builds."""

    def test_initial_star(self):
        tree = ContractibleTree(8)
        assert tree.oracle.rebuilds == 1  # the initial numbering
        exhaustive_check(tree.oracle, tree)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_after_random_mutations(self, seed):
        rng = np.random.default_rng(seed)
        tree = ContractibleTree(24)
        for _ in range(40):
            random_mutation(rng, tree)
            exhaustive_check(tree.oracle, tree)

    def test_ancestor_or_equal_semantics(self):
        tree = ContractibleTree(4)
        tree.reparent(1, 0)
        tree.reparent(2, 1)
        oracle = tree.oracle
        assert oracle.is_ancestor(1, 1)  # equal counts, like the walk
        assert oracle.is_ancestor(0, 2)
        assert not oracle.is_ancestor(2, 0)
        assert not oracle.is_ancestor(0, 3)  # separate trees

    def test_dead_nodes_answer_false(self):
        tree = ContractibleTree(5)
        tree.reparent(1, 0)
        tree.reparent(2, 1)
        tree.contract_path(2, 0)  # absorbs 1 and 2 into 0
        tree.reject(3)
        oracle = tree.oracle
        for dead in (1, 2, 3):
            assert oracle.tin[dead] == oracle.tout[dead] == -1
            for other in range(5):
                assert not oracle.is_ancestor(dead, other)
                assert not oracle.is_ancestor(other, dead)
        assert oracle.is_ancestor(0, 0)


class TestRelabelling:
    """Gap exhaustion: local range relabels, then full renumbers."""

    def test_refresh_renumbers_evenly_and_counts(self):
        tree = ContractibleTree(6)
        tree.pushdown(0, 1)
        oracle = tree.oracle
        assert oracle.refresh()
        assert oracle.rebuilds == 2
        order = oracle.label[oracle._run(oracle.head, oracle.tail)]
        assert (np.diff(order) > 0).all()
        assert len(set(np.diff(order[:-1]).tolist())) == 1
        exhaustive_check(oracle, tree)

    def test_long_chain_forces_local_relabels(self):
        tree = ContractibleTree(200)
        kernels = VectorKernels()
        accepts, pushdowns, _ = kernels.one_phase_scan(tree, chain_pairs(200))
        assert (accepts, pushdowns) == (0, 199)
        counters = kernels.drain_counters()
        assert counters["oracle-relabels"] == tree.oracle.relabels > 0
        assert "oracle-rebuilds" not in counters  # 62 bits never fill up
        assert counters["kernel-fast-path"] == 199
        assert int(tree.depth.max()) == 200
        exhaustive_check(tree.oracle, tree)

    def test_small_universe_forces_full_renumbers(self, monkeypatch):
        # 2**16 labels: room for local relabels at first, until the
        # chain's tokens crowd every range below the root.
        monkeypatch.setattr(AncestorOracle, "label_bits", 16)
        tree = ContractibleTree(120)
        kernels = VectorKernels()
        kernels.one_phase_scan(tree, chain_pairs(120))
        counters = kernels.drain_counters()
        assert counters["oracle-rebuilds"] == tree.oracle.rebuilds - 1 > 0
        assert counters["oracle-relabels"] == tree.oracle.relabels > 0
        exhaustive_check(tree.oracle, tree)

    def test_restore_rebuilds_exact_labels(self):
        rng = np.random.default_rng(5)
        tree = ContractibleTree(30)
        for _ in range(50):
            random_mutation(rng, tree)
        restored = ContractibleTree.from_state(tree.state_arrays())
        exhaustive_check(restored.oracle, restored)


class TestDFSTreeOracle:
    """The DFS forest's own preorder ranks are live interval labels."""

    def test_oracle_matches_walk_after_reparents(self):
        order = np.arange(10)
        tree = _DFSTree(order)
        rng = np.random.default_rng(7)
        for _ in range(15):
            u, v = (int(x) for x in rng.choice(10, size=2, replace=False))
            if not tree.is_ancestor(v, u) and not tree.is_ancestor(u, v):
                tree.reparent(v, u)
                tree.assign_preorder()
            pre, size = tree.pre, tree.size
            for a in range(tree.n):
                for d in range(tree.n):
                    interval = bool(pre[a] <= pre[d] < pre[a] + size[a])
                    assert interval == tree.is_ancestor(a, d), (a, d)


class TestVirtualRootEncoding:
    def test_virtual_root_never_queried(self):
        # The labels are indexed by node id; VIRTUAL_ROOT (-1) must
        # never reach them.  Guard the constant the encoding relies on.
        assert VIRTUAL_ROOT == -1
