"""Stateful property test: ContractibleTree invariants under random ops.

Random interleavings of the three structural operations (pushdown,
contract_path, reject) on random valid arguments must always leave the
forest consistent: parent/children symmetry, depth = parent depth + 1,
live supernode sizes summing to n — and the live Euler-tour labels
must answer every ancestor test exactly as the parent-pointer walk
does, on both tree classes and after a checkpoint round trip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spanning.brtree import BRPlusTree
from repro.spanning.tree import ContractibleTree

N = 14


def _apply_random_op(tree: ContractibleTree, rng: np.random.Generator) -> None:
    live = tree.live_nodes()
    if live.size < 2:
        return
    op = rng.integers(0, 3)
    a, b = rng.choice(live, size=2, replace=False).tolist()
    if op == 0:
        # pushdown(u, v) requires no ancestor relation either way.
        if not tree.is_ancestor(a, b) and not tree.is_ancestor(b, a):
            tree.pushdown(a, b)
    elif op == 1:
        # contract_path(u, v) requires v to be an ancestor of u.
        if tree.is_ancestor(b, a):
            tree.contract_path(a, b)
        elif tree.is_ancestor(a, b):
            tree.contract_path(b, a)
    else:
        tree.reject(a)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), steps=st.integers(1, 40))
def test_invariants_hold_under_random_operations(seed, steps):
    rng = np.random.default_rng(seed)
    tree = ContractibleTree(N)
    for _ in range(steps):
        _apply_random_op(tree, rng)
        tree.check_invariants()

    # Membership always partitions the original nodes.
    labels, count = tree.scc_labels()
    assert labels.shape == (N,)
    sizes = np.bincount(labels, minlength=count)
    assert int(sizes.sum()) == N

    # Every live representative's set size is consistent.
    for rep in tree.live_nodes().tolist():
        assert tree.ds.set_size(rep) == int((labels == labels[rep]).sum())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_depths_bounded_by_live_count(seed):
    rng = np.random.default_rng(seed)
    tree = ContractibleTree(N)
    for _ in range(25):
        _apply_random_op(tree, rng)
    live = tree.live_nodes()
    if live.size:
        assert int(tree.depth[live].max()) <= live.size


def _labels_match_walk(tree: ContractibleTree) -> None:
    """The O(1) label test equals the walking test on every live pair."""
    live = tree.live_nodes().tolist()
    for a in live:
        for d in live:
            assert tree.oracle.is_ancestor(a, d) == tree.is_ancestor(a, d), (
                a, d,
            )


@pytest.mark.parametrize("cls", [ContractibleTree, BRPlusTree])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), steps=st.integers(1, 40))
def test_live_labels_equal_walk_after_every_op(cls, seed, steps):
    rng = np.random.default_rng(seed)
    tree = cls(N)
    for _ in range(steps):
        _apply_random_op(tree, rng)
        _labels_match_walk(tree)
    restored = cls.from_state(tree.state_arrays())
    _labels_match_walk(restored)
    # The restored labels keep working under further edits.
    for _ in range(10):
        _apply_random_op(restored, rng)
        _labels_match_walk(restored)
