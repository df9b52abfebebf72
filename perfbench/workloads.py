"""The four workloads: set-up, measured phase and correctness checks.

Each ``run_*`` function returns an :class:`Outcome`.  Untraced runs
report the end-to-end metrics; traced runs (``trace=True``) report the
per-layer metrics; both lists, with their units, come from
``BENCHMARK.json`` (:mod:`perfbench.contract`).  The timed regions
never include a correctness check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench import checks, contract, gauge, loadgen, stats

#: Every graph is ``webspam_like(scale, seed=GRAPH_SEED)``.  The graph is
#: part of a workload's definition, so counted I/O and iterations are
#: the same on every run; ``--seed`` drives the query mix and ingest.
GRAPH_SEED = 0

#: Set-up repeats: compute workloads redo it after every sample, the
#: serve workload starts this many daemons.  Reported as a mean at the
#: gauge's nominal speed.
SETUP_REPEATS_PER_SAMPLE = 2
SERVE_SETUP_REPEATS = 5

#: Compute samples per untraced run: at least this many, then more while
#: another one still fits in ``--seconds``.
MIN_SAMPLES = 5

#: Serve workload: query rate, ingest cycles and batch size.  The rate
#: is about a quarter of the ~940 q/s one closed-loop connection
#: reaches, so the daemon is never saturated.  The batch size is the 16
#: duplicate edges ``benchmarks/bench_service.py`` ingests; a rebuild
#: reads the whole graph, so its cost hardly depends on it.
SERVE_RATE_QPS = 250.0
SERVE_CYCLES = 8
SERVE_BATCH_EDGES = 16

#: Child processes that outlive these are killed (and counted as DNF).
WORKER_TIMEOUT_S = 170.0
DAEMON_READY_TIMEOUT_S = 60.0
DAEMON_STOP_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ComputeSpec:
    scale: float
    algorithm: str
    condense: bool = False


@dataclass(frozen=True)
class ServeSpec:
    scale: float
    algorithm: str = "1PB-SCC"


WORKLOADS: Dict[str, Any] = {
    "webspam-1p": ComputeSpec(scale=5e-5, algorithm="1P-SCC"),
    "webspam-2p": ComputeSpec(scale=1e-5, algorithm="2P-SCC"),
    "webspam-1pb-condense": ComputeSpec(scale=2.5e-4, algorithm="1PB-SCC", condense=True),
    "serve-reach-ingest": ServeSpec(scale=1e-4),
}


@dataclass
class Outcome:
    """What one run of one workload produced."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    notes: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Context:
    """Where a run may read and write, and how to start children."""

    root: str          # repository checkout (holds src/ and perfbench/)
    work: str          # scratch directory of this run, removed afterwards

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        paths = [os.path.join(self.root, "src"), self.root]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        return env


def _tail_ms(samples: List[float]) -> Tuple[float, str]:
    label, value, count = stats.tail(samples)
    return value * 1000.0, f"{label} of {count}"


def _make_graph(scale: float):
    from repro.workloads.realworld import webspam_like

    return webspam_like(scale=scale, seed=GRAPH_SEED).graph


# ----------------------------------------------------------------------
# compute workloads
# ----------------------------------------------------------------------

def _setup_compute(spec: ComputeSpec, path: str, repeats: int,
                   spans: List[Tuple[float, float]]):
    """Generate the graph and write it to ``path``, ``repeats`` times.

    Appends the ``(start, end)`` times of each repeat to ``spans``.
    """
    from repro.graph.storage import save_graph

    for _ in range(repeats):
        started = time.perf_counter()
        graph = _make_graph(spec.scale)
        save_graph(graph, path)
        spans.append((started, time.perf_counter()))
    return graph


def _compute_sample(spec: ComputeSpec, ctx: Context, path: str, trace: bool) -> Dict[str, Any]:
    """One worker process: one sample (plus a traced one with ``trace``)."""
    out = os.path.join(ctx.work, "worker.json")
    command = [sys.executable, "-m", "perfbench.worker", "--graph", path,
               "--algorithm", spec.algorithm, "--out", out]
    if spec.condense:
        command.append("--condense")
    if trace:
        command.append("--trace")
    try:
        subprocess.run(command, cwd=ctx.root, env=ctx.child_env(), check=True,
                       timeout=WORKER_TIMEOUT_S)
        with open(out) as handle:
            return json.load(handle)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        return {"sample": {"ok": False, "error": f"DNF: compute worker failed: {exc}"},
                "traced": None, "peak_rss_mb": 0.0}
    finally:
        if os.path.exists(out):
            os.unlink(out)


def run_compute(spec: ComputeSpec, ctx: Context, seconds: float, trace: bool) -> Outcome:
    """Samples in fresh worker processes, set-up repeats between them.

    Spreading the set-up repeats over the whole run keeps their mean
    from resting on a single moment of the host's speed.  Set-up and
    samples run on one CPU, beside the gauge spinner.
    """
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    spinner = gauge.Spinner(cpu, os.path.join(ctx.work, "gauge.json"),
                            env=ctx.child_env(), cwd=ctx.root)
    try:
        return _run_compute(spec, ctx, seconds, trace, spinner)
    finally:
        spinner.close()
        os.sched_setaffinity(0, cpus)


def _run_compute(spec: ComputeSpec, ctx: Context, seconds: float, trace: bool,
                 spinner: gauge.Spinner) -> Outcome:
    from repro.inmemory import tarjan_scc

    path = os.path.join(ctx.work, "graph.bin")
    setups: List[Tuple[float, float]] = []
    graph = _setup_compute(spec, path, 1, setups)
    labels, _ = tarjan_scc(graph)
    expected = checks.partition_fingerprint(labels)
    expected_sccs = int(labels.max()) + 1
    expected_condensed = (
        checks.condensation_edge_count(graph.edges, labels) if spec.condense else None
    )

    records = []
    began = time.perf_counter()
    while True:
        record = _compute_sample(spec, ctx, path, trace)
        records.append(record)
        if trace or not record["sample"]["ok"]:
            break
        _setup_compute(spec, path, SETUP_REPEATS_PER_SAMPLE, setups)
        longest = max(r["sample"]["compute_s"] for r in records)
        if len(records) >= MIN_SAMPLES and time.perf_counter() - began + longest > seconds:
            break

    samples = [r["sample"] for r in records] + [r["traced"] for r in records if r["traced"]]
    # INF and DNF samples count as failures; only a wrong output is incorrect.
    errors = [s["error"] for s in samples if not s["ok"]]
    wrong: List[str] = []
    for sample in samples:
        if not sample["ok"]:
            continue
        if sample["fingerprint"] != expected:
            wrong.append(f"partition differs from tarjan_scc: {sample['fingerprint'][:12]}")
        if spec.condense and (sample["condensed_nodes"], sample["condensed_edges"]) != (
                expected_sccs, expected_condensed):
            wrong.append(
                f"condensation has {sample['condensed_nodes']} nodes and "
                f"{sample['condensed_edges']} edges, reference {expected_sccs} "
                f"and {expected_condensed}")
    good = [r["sample"] for r in records if r["sample"]["ok"]]
    io_counts = sorted({s["io_blocks"] for s in good})
    if len(io_counts) > 1:
        wrong.append(f"counted I/O differs between samples: {io_counts}")
    failed = len(errors)
    problems = errors + wrong
    details = {"samples": [r["sample"] for r in records], "setup_s": setups,
               "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges,
                         "sccs": expected_sccs}}
    outcome = Outcome(correct=not wrong and bool(good), attempted=len(samples),
                      failed=failed, metrics={}, problems=problems, details=details)
    if not good:
        return outcome

    times = [s["compute_s"] for s in good]
    if trace:
        traced = records[0]["traced"]
        if not traced or not traced["ok"]:
            outcome.correct = False
            problems.append("traced sample missing")
            return outcome
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = traced["compute_s"] / times[0]
        outcome.metrics = contract.with_units("per_layer", values)
        details["traced_compute_s"] = traced["compute_s"]
        return outcome

    spinner.close()
    try:
        compute_s = gauge.restate([(s["began"], s["began"] + s["compute_s"]) for s in good],
                                  spinner.passes)
        setup_s = gauge.restate(setups, spinner.passes)
    except RuntimeError as exc:
        outcome.correct = False
        problems.append(str(exc))
        return outcome
    note = (f"mean of {len(times)} samples at the gauge's speed; as timed: median "
            f"{stats.median(times):.3f} s, min {min(times):.3f} s, max {max(times):.3f} s")
    outcome.metrics = contract.with_units("end_to_end", {
        "setup_s": setup_s,
        "compute_s": compute_s,
        "io_blocks": good[0]["io_blocks"],
        "peak_rss_mb": max(float(r["peak_rss_mb"]) for r in records),
        "success_ratio": (len(samples) - failed) / len(samples),
        "query_p50_ms": compute_s * 1000.0,
        "query_p99_ms": compute_s * 1000.0,
    })
    outcome.notes = {
        "setup_s": (f"mean of {len(setups)} at the gauge's speed; as timed: median "
                    f"{stats.median([b - a for a, b in setups]):.3f} s"),
        "compute_s": note,
        "io_blocks": f"{good[0]['iterations']} iterations",
        "query_p50_ms": "one query = one full computation: compute_s in ms",
        "query_p99_ms": "one query = one full computation: compute_s in ms",
    }
    return outcome


# ----------------------------------------------------------------------
# serve workload
# ----------------------------------------------------------------------

class Daemon:
    """One ``repro-scc serve`` process started through the launcher."""

    def __init__(self, ctx: Context, spec: ServeSpec, graph_path: str, name: str,
                 trace: bool, cpu: Optional[int] = None) -> None:
        self.ctx = ctx
        self.root = os.path.join(ctx.work, name)
        os.makedirs(self.root)
        self.record_path = os.path.join(self.root, "launcher.json")
        self.stdout_path = os.path.join(self.root, "stdout.txt")
        command = [sys.executable, "-m", "perfbench.launcher", "--record", self.record_path]
        if trace:
            command.append("--trace")
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        command += ["--", "serve", graph_path, "--algorithm", spec.algorithm, "--port", "0",
                    "--service-root", os.path.join(self.root, "service")]
        self.started = time.perf_counter()
        with open(self.stdout_path, "w") as out, \
                open(os.path.join(self.root, "stderr.txt"), "w") as err:
            self.proc = subprocess.Popen(command, cwd=ctx.root, env=ctx.child_env(),
                                         stdout=out, stderr=err)
        self.port = 0
        self.ready_s = 0.0

    def wait_ready(self) -> None:
        """Block until the daemon reports ready; sets ``ready_s``."""
        from repro.service.client import wait_until_ready

        deadline = self.started + DAEMON_READY_TIMEOUT_S
        while not self.port:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon did not print its address")
            with open(self.stdout_path) as handle:
                for line in handle:
                    if line.startswith("serving ") and ":" in line:
                        self.port = int(line.rsplit(":", 1)[1])
            time.sleep(0.01)
        wait_until_ready("127.0.0.1", self.port,
                         timeout=max(1.0, deadline - time.perf_counter()))
        self.ready_s = time.perf_counter() - self.started

    def stop(self) -> Dict[str, Any]:
        """Shut the daemon down, wait for it, and return its launcher record."""
        from repro.service.client import ServiceClient

        try:
            if self.port and self.proc.poll() is None:
                with ServiceClient("127.0.0.1", self.port, timeout=10.0) as client:
                    client.shutdown()
            self.proc.wait(timeout=DAEMON_STOP_TIMEOUT_S)
        except (OSError, ConnectionError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
            return {}
        try:
            with open(self.record_path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}


def _serve_pass(ctx: Context, spec: ServeSpec, graph_path: str, plan: loadgen.Plan,
                name: str, trace: bool, setup_repeats: int):
    """Start daemons ``setup_repeats`` times and drive one of them.

    The driven daemon is the middle start; the others start and stop
    before and after the load, so the set-up figure spans the run.
    Returns the ``(start, ready)`` times of every start, the load
    result, the driven daemon's launcher record and the gauge spinner's
    passes on the daemon's CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    # With two or more CPUs the daemon and the generator get one each,
    # so neither steals the other's CPU mid-measurement.
    daemon_cpu = cpus[-1] if len(cpus) >= 2 else None
    starts: List[Tuple[float, float]] = []

    def start(k: int) -> Daemon:
        daemon = Daemon(ctx, spec, graph_path, f"{name}-{k}", trace, daemon_cpu)
        try:
            daemon.wait_ready()
        except Exception:
            daemon.stop()
            raise
        starts.append((daemon.started, daemon.started + daemon.ready_s))
        return daemon

    spinner = gauge.Spinner(cpus[-1], os.path.join(ctx.work, f"{name}-gauge.json"),
                            env=ctx.child_env(), cwd=ctx.root)
    try:
        driven = setup_repeats // 2
        for k in range(driven):
            start(k).stop()
        daemon = start(driven)
        connections = min(2, len(cpus))
        if daemon_cpu is not None:
            os.sched_setaffinity(0, {cpus[0]})
        try:
            load = loadgen.drive("127.0.0.1", daemon.port, plan, connections)
        finally:
            os.sched_setaffinity(0, cpus)
            record = daemon.stop()
        for k in range(driven + 1, setup_repeats):
            start(k).stop()
    finally:
        spinner.close()
    return starts, load, record, spinner.passes


def _grade(load: loadgen.LoadResult, plan: loadgen.Plan, truth: checks.Truth):
    """Check every answer; return latencies, failures and refusal tallies."""
    checker = checks.AnswerChecker(truth)
    due = load.start + plan.due
    latency = load.received - due
    failed = 0
    shed = refused = 0
    for i, response in enumerate(load.responses):
        if response is None:
            failed += 1
        elif not response.get("ok"):
            failed += 1
            code = (response.get("error") or {}).get("code")
            if code == "shed":
                shed += 1
            else:
                refused += 1
        elif not checker.check(plan.requests[i], response["result"]):
            failed += 1
    answered = ~np.isnan(latency)
    in_rebuild = np.zeros(len(due), dtype=bool)
    for lo, hi in load.rebuild_windows:
        in_rebuild |= (due >= lo) & (due <= hi)
    return {
        "checker": checker,
        "failed": failed + len(load.cycle_failures),
        "attempted": len(plan.requests) + len(plan.cycle_due),
        "latency_all": latency[answered].tolist(),
        "latency_quiet": latency[answered & ~in_rebuild].tolist(),
        "latency_rebuild": latency[answered & in_rebuild].tolist(),
        "late": (load.sent - due)[~np.isnan(load.sent)].tolist(),
        "rtt": (load.received - load.sent)[answered].tolist(),
        "shed": shed,
        "refused": refused,
    }


def run_serve(spec: ServeSpec, ctx: Context, seed: int, seconds: float,
              trace: bool) -> Outcome:
    from repro.graph.storage import save_graph
    from repro.inmemory import tarjan_scc

    graph = _make_graph(spec.scale)
    graph_path = os.path.join(ctx.work, "graph.bin")
    save_graph(graph, graph_path)
    labels, _ = tarjan_scc(graph)
    truth = checks.Truth(graph.edges, labels)
    plan = loadgen.make_plan(seed, graph.edges, graph.num_nodes, truth.num_sccs,
                             seconds, SERVE_RATE_QPS, SERVE_CYCLES, SERVE_BATCH_EDGES)
    problems: List[str] = []
    try:
        starts, load, record, passes = _serve_pass(
            ctx, spec, graph_path, plan, "daemon", False,
            1 if trace else SERVE_SETUP_REPEATS)
        if trace:
            untraced_rebuild = load.rebuild_s
            _, load, record, _ = _serve_pass(ctx, spec, graph_path, plan, "traced", True, 1)
        else:
            setup_s = gauge.restate(starts, passes)
            # Each rebuild runs from its ingest ack to the install.
            rebuild_s = gauge.restate(
                [(done - took, done) for (_, done), took
                 in zip(load.rebuild_windows, load.rebuild_s)], passes)
    except (RuntimeError, OSError, TimeoutError) as exc:
        return Outcome(correct=False, attempted=1, failed=1, metrics={},
                       problems=[f"DNF: {exc}"])
    graded = _grade(load, plan, truth)
    checker = graded["checker"]
    problems.extend(checker.wrong[:5])
    problems.extend(load.cycle_failures)
    attempted, failed = graded["attempted"], graded["failed"]
    if record.get("exit_code") != 0:
        problems.append(f"daemon did not shut down cleanly: {record or 'no record'}")
        failed += 1
    # Refusals, lost answers and stuck rebuilds are failures; only a wrong
    # answer is incorrect.
    correct = not checker.wrong
    details = {"rebuild_s": load.rebuild_s, "rebuild_blocks": load.rebuild_blocks,
               "latency_ms": {f"p{p}": stats.percentile(graded["latency_all"], p) * 1000.0
                              for p in (50, 90, 95, 98, 99)} if graded["latency_all"] else {},
               "queries": len(plan.requests), "shed": graded["shed"],
               "refused": graded["refused"]}
    if not load.rebuild_s or not graded["latency_quiet"]:
        problems.append("no completed rebuild or no answered query outside rebuilds")
        return Outcome(correct=False, attempted=attempted, failed=failed,
                       metrics={}, problems=problems, details=details)

    if trace:
        values = {name: 0.0 for name, _ in contract.metrics("per_layer")}
        values.update(record.get("layers") or {})
        query_s = record.get("query_s") or [0.0]
        build_io = record.get("build_io") or [(0, 0)]
        reach = [r for r in plan.requests if r["op"] == "reach"]
        same = sum(truth.same_scc(r["u"], r["v"]) for r in reach)
        values.update({
            "io.read_blocks": stats.median([r for r, _ in build_io]),
            "io.write_blocks": stats.median([w for _, w in build_io]),
            "core.self_s": record.get("build_self_s", 0.0),
            "service.query_p50_us": stats.median(query_s) * 1e6,
            "service.query_p99_us": stats.tail(query_s)[1] * 1e6,
            "service.overhead_p50_ms": (stats.median(graded["rtt"]) - stats.median(query_s)) * 1000.0,
            "service.same_scc_share": same / len(reach) if reach else 0.0,
            "service.shed": float(graded["shed"]),
            "service.refused": float(graded["refused"]),
            "service.quiet_query_p99_ms": _tail_ms(graded["latency_quiet"] or [0.0])[0],
            "service.rebuild_query_p99_ms": _tail_ms(graded["latency_rebuild"] or [0.0])[0],
            "loadgen.late_p99_ms": _tail_ms(graded["late"])[0],
            "trace.overhead_ratio": stats.median(load.rebuild_s) / stats.median(untraced_rebuild),
        })
        metrics = contract.with_units("per_layer", values)
        return Outcome(correct=correct, attempted=attempted, failed=failed,
                       metrics=metrics, problems=problems, details=details)

    # Query latency outside rebuilds; the rebuild window's own tail is
    # the per-layer service.rebuild_query_p99_ms.
    quiet = graded["latency_quiet"]
    during = graded["latency_rebuild"]
    p99, p99_note = _tail_ms(quiet)
    late_p99, late_note = _tail_ms(graded["late"])
    metrics = contract.with_units("end_to_end", {
        "setup_s": setup_s,
        "compute_s": rebuild_s,
        "io_blocks": stats.median(load.rebuild_blocks),
        "peak_rss_mb": record.get("peak_rss_mb", 0.0),
        "success_ratio": (attempted - failed) / attempted,
        "query_p50_ms": stats.median(quiet) * 1000.0,
        "query_p99_ms": p99,
    })
    gap_ms = 1000.0 * load.connections / SERVE_RATE_QPS
    rtt_p50_ms = stats.median(graded["rtt"]) * 1000.0
    notes = {
        "setup_s": (f"daemon start to ready, mean of {len(starts)} at the gauge's "
                    f"speed; as timed: median {stats.median([b - a for a, b in starts]):.3f} s"),
        "compute_s": (f"ingest ack to new generation, mean of {len(load.rebuild_s)} rebuilds "
                      f"at the gauge's speed; as timed: median "
                      f"{stats.median(load.rebuild_s):.3f} s"),
        "io_blocks": "counted block I/O per rebuild",
        "query_p50_ms": (
            f"{len(quiet)} answered queries outside rebuilds, from due time; "
            f"floored at the {gap_ms:.1f} ms per-connection request gap while the "
            f"daemon lacks TCP_NODELAY (send-to-receive p50 {rtt_p50_ms:.2f} ms)"),
        "query_p99_ms": (
            f"{p99_note} outside rebuilds; during rebuilds {_tail_ms(during)[0]:.2f} ms "
            f"({_tail_ms(during)[1]}); all queries {_tail_ms(graded['latency_all'])[0]:.2f} ms; "
            f"sender late {late_p99:.2f} ms ({late_note})"
            if during else f"{p99_note} outside rebuilds"
        ),
    }
    return Outcome(correct=correct, attempted=attempted, failed=failed,
                   metrics=metrics, notes=notes, problems=problems, details=details)


def run(name: str, root: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run workload ``name`` in a fresh scratch directory under ``root``."""
    spec = WORKLOADS[name]
    work = os.path.join(root, ".perfbench", "work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Context(root=root, work=work)
    try:
        if isinstance(spec, ServeSpec):
            return run_serve(spec, ctx, seed, seconds, trace)
        return run_compute(spec, ctx, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
