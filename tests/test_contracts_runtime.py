"""Tests for the runtime invariant layer (REPRO_CHECK_INVARIANTS).

The BR⁺-Tree's structural contracts — parent/depth consistency, the
backward-link shape, and the drank monotonicity of Lemma 5.1 — are
checked after every mutating call when ``REPRO_CHECK_INVARIANTS=1``.
These tests corrupt trees on purpose and assert the checks both fire
when enabled and stay silent (and free) when disabled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import compute_sccs
from repro.analysis_static.contracts import (
    ENV_VAR,
    invariant,
    invariants_enabled,
    require,
)
from repro.exceptions import ContractViolation
from repro.spanning.brtree import BRPlusTree


@pytest.fixture
def checks_on(monkeypatch):
    """Enable runtime invariant checking for one test."""
    monkeypatch.setenv(ENV_VAR, "1")


def chain_tree(n=4):
    """A path tree 0 → 1 → … → n-1 rooted at 0."""
    tree = BRPlusTree(n)
    for child in range(1, n):
        tree.reparent(child, child - 1)
    return tree


class TestGate:
    """The env-var gate itself."""

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert not invariants_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off", "False"])
    def test_falsy_values_disable(self, monkeypatch, value):
        monkeypatch.setenv(ENV_VAR, value)
        assert not invariants_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy_values_enable(self, monkeypatch, value):
        monkeypatch.setenv(ENV_VAR, value)
        assert invariants_enabled()

    def test_require_raises_only_its_message(self, checks_on):
        with pytest.raises(ContractViolation, match="broken thing"):
            require(False, "broken thing")
        require(True, "never raised")

    def test_decorator_runs_named_checker(self, checks_on):
        calls = []

        class Widget:
            @invariant("check_ok")
            def poke(self):
                return 7

            def check_ok(self):
                calls.append("checked")

        assert Widget().poke() == 7
        assert calls == ["checked"]

    def test_decorator_skips_checker_when_disabled(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        calls = []

        class Widget:
            @invariant("check_ok")
            def poke(self):
                return 7

            def check_ok(self):
                calls.append("checked")

        assert Widget().poke() == 7
        assert calls == []


class TestBRPlusTreeContracts:
    """Corruption detection on the instrumented BR⁺-Tree."""

    def test_clean_tree_passes(self, checks_on):
        tree = chain_tree(4)
        assert tree.offer_blink(3, 0)
        tree.update_drank()
        assert tree.drank.tolist() == [1, 1, 1, 1]

    def test_offer_to_non_ancestor_rejected(self, checks_on):
        tree = BRPlusTree(4)
        tree.reparent(1, 0)
        tree.reparent(2, 0)
        tree.reparent(3, 1)
        with pytest.raises(ContractViolation, match="proper ancestor"):
            tree.offer_blink(3, 2)

    def test_offer_to_self_rejected(self, checks_on):
        tree = chain_tree(3)
        with pytest.raises(ContractViolation):
            tree.offer_blink(2, 2)

    def test_corrupt_self_blink_caught_by_next_offer(self, checks_on):
        tree = chain_tree(4)
        tree.blink[2] = 2  # corruption no legal offer_blink could create
        with pytest.raises(ContractViolation, match="itself"):
            tree.offer_blink(3, 0)

    def test_corrupt_structure_caught_by_update_drank(self, checks_on):
        tree = BRPlusTree(3)
        tree.depth[2] = 5  # root depth must be 1
        with pytest.raises(ContractViolation):
            tree.update_drank()

    def test_update_drank_restores_monotonicity_check(self, checks_on):
        # Deep chain with a mid-chain blink: drank must never increase
        # from parent to child, and the post-call contract verifies it.
        tree = chain_tree(6)
        assert tree.offer_blink(4, 1)
        tree.update_drank()
        drank = tree.drank.tolist()
        for child in range(1, 6):
            assert drank[child - 1] <= drank[child]

    def test_disabled_gate_skips_detection(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        tree = BRPlusTree(3)
        tree.depth[2] = 5
        tree.update_drank()  # corrupt, but no check runs


class TestFlagResolvedOncePerTree:
    """A tree reads REPRO_CHECK_INVARIANTS when built, never per call."""

    def test_set_before_construction_keeps_checks_on(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        tree = BRPlusTree(3)
        restored = BRPlusTree.from_state(tree.state_arrays())
        monkeypatch.delenv(ENV_VAR)
        for built in (tree, restored):
            built.depth[2] = 5
            with pytest.raises(ContractViolation):
                built.update_drank()

    def test_unset_at_construction_skips_checks(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        tree = BRPlusTree(3)
        restored = BRPlusTree.from_state(tree.state_arrays())
        monkeypatch.setenv(ENV_VAR, "1")
        for built in (tree, restored):
            built.depth[2] = 5
            built.update_drank()  # corrupt, but the checks stay off
            assert built.offer_blink(2, 2)  # unchecked precondition too


class TestEndToEnd:
    """Whole-algorithm runs with the checks enabled stay correct."""

    @pytest.mark.parametrize("algorithm", ["2P-SCC", "1P-SCC", "1PB-SCC"])
    def test_compute_sccs_with_invariants(self, checks_on, algorithm):
        edges = np.array(
            [[0, 1], [1, 2], [2, 0], [2, 3], [3, 4], [4, 3], [4, 5]]
        )
        result = compute_sccs(edges, num_nodes=6, algorithm=algorithm)
        assert result.num_sccs == 3
