"""Tests for the algorithm base plumbing: results, deadlines, stats."""

import time

import numpy as np
import pytest

from repro.core.base import Deadline, SCCResult, RunStats, canonicalize_labels
from repro.exceptions import AlgorithmTimeout
from repro.io.counter import IOStats


class TestDeadline:
    def test_no_limit_never_fires(self):
        deadline = Deadline("x", None)
        deadline.check()

    def test_elapsed_grows(self):
        deadline = Deadline("x", None)
        time.sleep(0.01)
        assert deadline.elapsed >= 0.01

    def test_expired_deadline_raises(self):
        deadline = Deadline("algo", 0.0)
        time.sleep(0.001)
        with pytest.raises(AlgorithmTimeout) as excinfo:
            deadline.check()
        assert excinfo.value.algorithm == "algo"


class TestCanonicalize:
    def test_relabels_by_first_appearance(self):
        labels, count = canonicalize_labels(np.array([7, 7, 3, 7, 3, 9]))
        assert count == 3
        assert labels[0] == labels[1] == labels[3]
        assert labels[2] == labels[4]
        assert len({int(labels[0]), int(labels[2]), int(labels[5])}) == 3

    def test_relabels_by_sorted_value(self):
        # Ranks by label value, not by first appearance ([0, 1, 0]):
        # every golden partition fingerprint depends on this mapping.
        labels, count = canonicalize_labels(np.array([5, 2, 5]))
        assert labels.tolist() == [1, 0, 1]
        assert count == 2

    def test_empty(self):
        labels, count = canonicalize_labels(np.array([], dtype=np.int64))
        assert count == 0


class TestSCCResult:
    def _result(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        stats = RunStats("t", 1, IOStats(), 0.0)
        return SCCResult(labels, 3, stats)

    def test_scc_sizes(self):
        assert self._result().scc_sizes.tolist() == [2, 1, 3]

    def test_members(self):
        assert self._result().members(2).tolist() == [3, 4, 5]

    def test_nontrivial_count(self):
        assert self._result().nontrivial_count() == 2
