"""Traced-run plumbing: timed wrappers around each layer's public calls.

A :class:`Probe` swaps selected functions and methods of the ``repro``
package for wrappers that record one span per call, and puts every
original back when it exits.  Spans live in memory, one log per
thread, and are summarised once at the end by :func:`summarize`; the
benchmark's end-to-end metrics are always taken from untraced runs.

Each span has a name (``<layer>.<call>``), a start, an end and the
span that was open on the same thread when it started.  A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench import contract

#: Span name -> (time metric, count metric or None).  The time metric
#: sums the spans not nested inside a span of the same name.
SPAN_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "io.scan": ("io.scan_s", None),
    "io.write": ("io.write_s", None),
    "io.extsort": ("io.extsort_s", None),
    "io.checkpoint": ("io.checkpoint_s", "io.checkpoint_saves"),
    "kernels.scan": ("kernels.scan_s", None),
    "kernels.oracle_refresh": ("kernels.oracle_refresh_s", None),
    "spanning.pushdown": ("spanning.pushdown_s", "spanning.pushdowns"),
    "spanning.contract": ("spanning.contract_s", "spanning.contractions"),
    "spanning.find": ("spanning.find_s", None),
    "spanning.blink": ("spanning.blink_s", "spanning.blink_offers"),
    "inmemory.scc": ("inmemory.scc_s", "inmemory.scc_calls"),
    "apps.condense": ("apps.condense_s", None),
    "service.snapshot_build": ("service.snapshot_build_s", None),
}

#: Spans whose individual durations are kept for percentiles.
DISTRIBUTION_SPANS = ("service.query",)


class SpanLog:
    """One thread's spans as parallel arrays (index = span id)."""

    def __init__(self) -> None:
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = []


class Recorder:
    """In-memory span store plus event counters, safe across threads."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._logs: List[SpanLog] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = {}
        self.values: Dict[str, List[Any]] = {}

    def _log(self) -> SpanLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = SpanLog()
            with self._lock:
                self._logs.append(log)
            self._local.log = log
        return log

    def _name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            with self._lock:
                found = self._name_ids.setdefault(name, len(self._names))
                if found == len(self._names):
                    self._names.append(name)
        return found

    def begin(self, name: str) -> int:
        """Open a span on this thread; returns its id for :meth:`end`."""
        log = self._log()
        sid = len(log.starts)
        log.names.append(self._name_id(name))
        log.parents.append(log.stack[-1] if log.stack else -1)
        log.ends.append(0.0)
        log.stack.append(sid)
        log.starts.append(time.perf_counter())
        return sid

    def end(self, sid: int) -> None:
        """Close the innermost open span of this thread."""
        now = time.perf_counter()
        log = self._log()
        log.ends[sid] = now
        log.stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to event counter ``name``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def keep(self, name: str, value: Any) -> None:
        """Append one observed value (e.g. a build's I/O) under ``name``."""
        with self._lock:
            self.values.setdefault(name, []).append(value)

    def spans(self) -> Iterator[Tuple[List[str], List[int], List[int], List[float], List[float]]]:
        """Yield each thread's closed spans as ``(names, ids, parents, starts, ends)``."""
        with self._lock:
            logs = list(self._logs)
            names = list(self._names)
        for log in logs:
            closed = [i for i in range(len(log.ends)) if log.ends[i] > 0.0]
            yield (
                [names[log.names[i]] for i in closed],
                closed,
                [log.parents[i] for i in closed],
                [log.starts[i] for i in closed],
                [log.ends[i] for i in closed],
            )


def self_times(
    parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> List[float]:
    """Duration minus child coverage for every span of one thread.

    ``parents[i]`` is the index of span ``i``'s parent, or ``-1``.
    Children may overlap each other (a span started by a callback, for
    instance); their intervals are merged before subtracting, and
    clipped to the parent's own interval.
    """
    children: Dict[int, List[int]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    result = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        cursor = lo
        for c in sorted(children.get(i, ()), key=lambda j: starts[j]):
            a, b = max(starts[c], cursor), min(ends[c], hi)
            if b > a:
                covered += b - a
                cursor = b
        result.append(max(0.0, (hi - lo) - covered))
    return result


def summarize(recorder: Recorder) -> Dict[str, Any]:
    """Per-span-name totals, self times, counts and kept durations.

    Returns ``{"time": {name: s}, "self": {name: s}, "count": {name: n},
    "durations": {name: [s, ...]}, "root_time": s, "counters": {...},
    "values": {...}}``.  ``time`` counts only spans not nested in a span
    of the same name, so recursion or ``flush`` inside ``scan`` is not
    counted twice; ``root_time`` is the total duration of spans that
    have no parent; ``counters`` and ``values`` are the recorder's.
    """
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    count: Dict[str, int] = {}
    durations: Dict[str, List[float]] = {name: [] for name in DISTRIBUTION_SPANS}
    root_time = 0.0
    for names, ids, parents, starts, ends in recorder.spans():
        index = {sid: k for k, sid in enumerate(ids)}
        local_parents = [index.get(p, -1) for p in parents]
        selfs = self_times(local_parents, starts, ends)
        for k, name in enumerate(names):
            duration = ends[k] - starts[k]
            count[name] = count.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + selfs[k]
            parent = local_parents[k]
            nested = False
            while parent >= 0:
                if names[parent] == name:
                    nested = True
                    break
                parent = local_parents[parent]
            if not nested:
                total[name] = total.get(name, 0.0) + duration
            if local_parents[k] < 0:
                root_time += duration
            if name in durations:
                durations[name].append(duration)
    return {"time": total, "self": own, "count": count,
            "durations": durations, "root_time": root_time,
            "counters": dict(recorder.counters), "values": dict(recorder.values)}


def layer_metrics(summary: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric the spans and counters of a run determine.

    Metrics the spans cannot give (block counts, iterations, service
    latencies) start at 0 and are filled in by the workload.
    """
    values = {name: 0.0 for name, _ in contract.metrics("per_layer")}
    for span, (time_metric, count_metric) in SPAN_METRICS.items():
        values[time_metric] = summary["time"].get(span, 0.0)
        if count_metric is not None:
            values[count_metric] = float(summary["count"].get(span, 0))
    values["kernels.self_s"] = summary["self"].get("kernels.scan", 0.0)
    for name in ("kernels.oracle_rebuilds", "inmemory.scc_edges"):
        values[name] = float(summary["counters"].get(name, 0))
    return values


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------

AfterHook = Callable[[Recorder, Tuple[Any, ...], Any], None]


def _timed(recorder: Recorder, name: str, fn: Callable[..., Any],
           after: Optional[AfterHook]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        sid = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(sid)
        if after is not None:
            after(recorder, args, result)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _timed_steps(recorder: Recorder, name: str,
                 fn: Callable[..., Iterator[Any]]) -> Callable[..., Iterator[Any]]:
    """Wrap a generator function so each step (one ``next``) is a span."""

    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        inner = fn(*args, **kwargs)
        try:
            while True:
                sid = recorder.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    recorder.end(sid)
                yield item
        finally:
            inner.close()

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _count_true(counter: str) -> AfterHook:
    def after(recorder: Recorder, args: Tuple[Any, ...], result: Any) -> None:
        if result:
            recorder.count(counter)
    return after


def _count_graph_edges(recorder: Recorder, args: Tuple[Any, ...], result: Any) -> None:
    recorder.count("inmemory.scc_edges", args[0].num_edges)


def _keep_build_io(recorder: Recorder, args: Tuple[Any, ...], result: Any) -> None:
    io = result.build_io
    if io is not None:
        recorder.keep("service.build_io", (io.seq_reads + io.rand_reads,
                                           io.seq_writes + io.rand_writes))


def layer_targets() -> List[Tuple[Any, str, str, str, Optional[AfterHook]]]:
    """``(owner, attribute, span name, kind, after-hook)`` for every probe.

    Module attributes are patched at the name the caller looks up
    (``kosaraju_scc`` inside :mod:`repro.core.one_phase_batch`, for
    instance), class attributes on the class that defines them.
    """
    import repro.apps.condense_external as condense_external
    import repro.core.one_phase_batch as one_phase_batch
    import repro.io.extsort as extsort
    import repro.service.server as server
    from repro.io.checkpoint import CheckpointSession
    from repro.io.edgefile import EdgeFile
    from repro.kernels.oracle import AncestorOracle
    from repro.kernels.vector import VectorKernels
    from repro.service.snapshot import ServiceSnapshot
    from repro.spanning.brtree import BRPlusTree
    from repro.spanning.tree import ContractibleTree
    from repro.spanning.unionfind import DisjointSet

    return [
        (EdgeFile, "scan", "io.scan", "steps", None),
        (EdgeFile, "append", "io.write", "call", None),
        (EdgeFile, "flush", "io.write", "call", None),
        (extsort, "external_sort_edges", "io.extsort", "call", None),
        (condense_external, "external_sort_edges", "io.extsort", "call", None),
        (CheckpointSession, "save", "io.checkpoint", "call", None),
        (VectorKernels, "one_phase_scan", "kernels.scan", "call", None),
        (VectorKernels, "construction_scan", "kernels.scan", "call", None),
        (VectorKernels, "search_scan", "kernels.scan", "call", None),
        (AncestorOracle, "refresh", "kernels.oracle_refresh", "call",
         _count_true("kernels.oracle_rebuilds")),
        (ContractibleTree, "pushdown", "spanning.pushdown", "call", None),
        (ContractibleTree, "contract_path", "spanning.contract", "call", None),
        (ContractibleTree, "find_many", "spanning.find", "call", None),
        (DisjointSet, "find_many", "spanning.find", "call", None),
        (BRPlusTree, "offer_blink", "spanning.blink", "call", None),
        (one_phase_batch, "kosaraju_scc", "inmemory.scc", "call", _count_graph_edges),
        (condense_external, "condense_to_disk", "apps.condense", "call", None),
        (server, "build_snapshot", "service.snapshot_build", "call", _keep_build_io),
        (ServiceSnapshot, "reaches", "service.query", "call", None),
        (ServiceSnapshot, "scc_of", "service.query", "call", None),
        (ServiceSnapshot, "members", "service.query", "call", None),
        (ServiceSnapshot, "layer_of", "service.query", "call", None),
    ]


class Probe:
    """Context manager installing the layer wrappers around a region.

    On exit every patched attribute is set back to the exact object it
    held before, so a later untraced run sees the unmodified program.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.targets = layer_targets()
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Probe":
        for owner, attribute, name, kind, after in self.targets:
            original = owner.__dict__[attribute]
            if kind == "steps":
                wrapper = _timed_steps(self.recorder, name, original)
            else:
                wrapper = _timed(self.recorder, name, original, after)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
