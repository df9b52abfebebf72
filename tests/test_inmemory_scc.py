"""Tests for the three in-memory SCC algorithms (Tarjan/Kosaraju/Gabow).

The three implementations rest on different invariants; their agreement
on random graphs is the foundation the rest of the test suite builds on.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.validate import partitions_equal
from repro.graph.digraph import Digraph
from repro.inmemory.kosaraju import kosaraju_scc
from repro.inmemory.pathbased import gabow_scc
from repro.inmemory.tarjan import tarjan_scc

from tests.conftest import FIGURE1_SCCS, labels_to_sets, random_digraphs

ALGORITHMS = [tarjan_scc, kosaraju_scc, gabow_scc]


@pytest.mark.parametrize("scc", ALGORITHMS)
class TestKnownGraphs:
    def test_empty(self, scc):
        labels, count = scc(Digraph(0))
        assert count == 0 and labels.shape == (0,)

    def test_single_node(self, scc):
        labels, count = scc(Digraph(1))
        assert count == 1 and labels[0] == 0

    def test_self_loop_is_singleton_scc(self, scc):
        labels, count = scc(Digraph(1, np.array([[0, 0]])))
        assert count == 1

    def test_two_cycle(self, scc):
        labels, count = scc(Digraph(2, np.array([[0, 1], [1, 0]])))
        assert count == 1
        assert labels[0] == labels[1]

    def test_chain_is_all_singletons(self, scc):
        g = Digraph(5, np.array([[i, i + 1] for i in range(4)]))
        labels, count = scc(g)
        assert count == 5
        assert len(set(labels.tolist())) == 5

    def test_figure1(self, scc, figure1_graph):
        labels, count = scc(figure1_graph)
        assert count == 6
        assert labels_to_sets(labels) == set(FIGURE1_SCCS)

    def test_two_cycles_bridged(self, scc):
        # 0<->1 -> 2<->3 : two SCCs, a bridge between them.
        g = Digraph(4, np.array([[0, 1], [1, 0], [1, 2], [2, 3], [3, 2]]))
        labels, count = scc(g)
        assert count == 2
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_parallel_edges_ignored(self, scc):
        g = Digraph(2, np.array([[0, 1], [0, 1], [0, 1]]))
        labels, count = scc(g)
        assert count == 2

    def test_long_cycle(self, scc):
        n = 500  # exercises the iterative (non-recursive) DFS stacks
        edges = np.array([[i, (i + 1) % n] for i in range(n)])
        labels, count = scc(Digraph(n, edges))
        assert count == 1


class TestLabelOrderConventions:
    def test_tarjan_labels_reverse_topological(self):
        g = Digraph(3, np.array([[0, 1], [1, 2]]))
        labels, _ = tarjan_scc(g)
        # Downstream SCCs complete first: label(2) < label(1) < label(0).
        assert labels[2] < labels[1] < labels[0]

    def test_kosaraju_labels_topological(self):
        g = Digraph(3, np.array([[0, 1], [1, 2]]))
        labels, _ = kosaraju_scc(g)
        assert labels[0] < labels[1] < labels[2]

    def test_kosaraju_topological_property_random(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            g = Digraph(n, rng.integers(0, n, size=(3 * n, 2)))
            labels, _ = kosaraju_scc(g)
            # Every edge goes from a lower (or equal) label to a higher.
            mapped = labels[g.edges.astype(np.int64)]
            assert (mapped[:, 0] <= mapped[:, 1]).all()


def _reference_kosaraju(graph):
    """The numpy-indexed Kosaraju that ``kosaraju_scc`` replaced.

    Kept as the executable spec of its exact labels: 1PB-SCC rebuilds
    its tree from them, so partitions and counted I/O depend on the
    label values, not only on the partition they induce.
    """
    n = graph.num_nodes
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels, 0
    indptr, indices = graph.indptr, graph.indices
    visited = np.zeros(n, dtype=bool)
    order = []
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        work = [[root, 0]]
        while work:
            frame = work[-1]
            v = frame[0]
            start, end = indptr[v], indptr[v + 1]
            offset = frame[1]
            descended = False
            while start + offset < end:
                w = int(indices[start + offset])
                offset += 1
                if not visited[w]:
                    visited[w] = True
                    frame[1] = offset
                    work.append([w, 0])
                    descended = True
                    break
            if not descended:
                work.pop()
                order.append(v)
    reverse = graph.reverse()
    indptr, indices = reverse.indptr, reverse.indices
    count = 0
    for v in reversed(order):
        if labels[v] != -1:
            continue
        labels[v] = count
        stack = [v]
        while stack:
            u = stack.pop()
            for w in indices[indptr[u] : indptr[u + 1]]:
                w = int(w)
                if labels[w] == -1:
                    labels[w] = count
                    stack.append(w)
        count += 1
    return labels, count


def _assert_same_labels(graph):
    labels, count = kosaraju_scc(graph)
    expected_labels, expected_count = _reference_kosaraju(graph)
    assert count == expected_count
    assert labels.dtype == np.int64
    assert np.array_equal(labels, expected_labels)
    return count


class TestKosarajuExactLabels:
    """``kosaraju_scc`` returns the very labels of the reference walk."""

    @settings(max_examples=150, deadline=None)
    @given(graph=random_digraphs())
    def test_random_digraphs(self, graph):
        _assert_same_labels(graph)

    def test_isolated_nodes_self_loops_and_parallel_edges(self):
        # 0, 4 and 8 are isolated; 2 and 6 carry self-loops; 1->3 and
        # 5->6 are repeated; the cycle 3->5->7->3 spans them.
        edges = [[2, 2], [1, 3], [1, 3], [3, 5], [5, 7], [7, 3], [5, 6],
                 [5, 6], [6, 6], [7, 1], [1, 3]]
        _assert_same_labels(Digraph(9, np.array(edges)))

    @pytest.mark.parametrize("n", [1 << 16, (1 << 16) + 1])
    def test_either_side_of_the_16_bit_sort_keys(self, n):
        rng = np.random.default_rng(n)
        _assert_same_labels(Digraph(n, rng.integers(0, n, size=(2 * n, 2))))

    @pytest.mark.parametrize("closed", [False, True])
    def test_hundred_thousand_node_path_and_cycle(self, closed):
        # Depth 100,000 DFS: far past the recursion limit, so this only
        # passes if both passes stay iterative.
        n = 100_000
        heads = np.arange(n if closed else n - 1)
        graph = Digraph(n, np.column_stack((heads, (heads + 1) % n)))
        assert _assert_same_labels(graph) == (1 if closed else n)


class TestCrossAgreement:
    @settings(max_examples=80, deadline=None)
    @given(graph=random_digraphs())
    def test_all_three_agree(self, graph):
        tarjan_labels, tarjan_count = tarjan_scc(graph)
        kosaraju_labels, kosaraju_count = kosaraju_scc(graph)
        gabow_labels, gabow_count = gabow_scc(graph)
        assert tarjan_count == kosaraju_count == gabow_count
        assert partitions_equal(tarjan_labels, kosaraju_labels)
        assert partitions_equal(tarjan_labels, gabow_labels)

    @settings(max_examples=40, deadline=None)
    @given(graph=random_digraphs())
    def test_scc_counts_bounded(self, graph):
        labels, count = tarjan_scc(graph)
        assert 1 <= count <= graph.num_nodes
        assert labels.min() == 0 and labels.max() == count - 1
