"""The resumable sweep executor behind ``repro-scc reproduce``.

Execution model: every (benchmark, case) cell is a unit of work with
durable state under the output directory —

* ``plan.json`` — the enumerated sweep, written at start and
  re-validated on ``--resume`` so a resumed sweep provably continues
  the same sweep;
* ``cells/<cell>.json`` — one atomically-written result per completed
  cell (stage → fsync → rename via :mod:`repro.io.atomic`), so a crash
  or ``SIGINT`` between cells loses nothing;
* ``work/<cell>/`` and ``checkpoints/<cell>/`` — the in-flight cell's
  materialised edge file, reduction scratch and PR 5 scan-boundary
  checkpoint.  A crash *mid-algorithm* (including a planted
  ``crash@scan`` fault) resumes mid-algorithm: counted I/O and the
  partition are identical to an uninterrupted run, which is what keeps
  the manifest byte-identical across kill/resume;
* ``traces/<cell>.jsonl`` — a JSONL run trace per cell;
* ``artifact/`` — the final ``summary.json`` + ``report.md`` +
  ``MANIFEST.json``, written when the last cell completes.

Exit codes mirror ``repro-scc compute``: 0 success, 1 manifest drift /
validation failure, 2 configuration error, 4 simulated crash (resume
with ``--resume``), 130 interrupted.
"""

from __future__ import annotations

import os
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.artifact.manifest import (
    build_manifest,
    diff_manifests,
    load_manifest,
    manifest_json,
    partition_fingerprint,
)
from repro.artifact.plan import Plan, build_graph, build_plan
from repro.artifact.spec import CaseSpec
from repro.artifact.summary import (
    IO_FIELDS,
    build_summary,
    summary_json,
    validate_summary,
)
from repro.bench.harness import run_one
from repro.constants import DEFAULT_BLOCK_SIZE
from repro.core import ALGORITHMS
from repro.io.atomic import abort_replace, replace_file
from repro.io.faults import SimulatedCrash
from repro.io.memory import MemoryModel

EXIT_OK = 0
EXIT_DRIFT = 1
EXIT_CONFIG = 2
EXIT_CRASH = 4
EXIT_INTERRUPT = 130


@dataclass
class ReproduceConfig:
    """Everything ``repro-scc reproduce`` parses from its command line."""

    tier: str = "smoke"
    out_dir: Optional[str] = None
    resume: bool = False
    fresh: bool = False
    #: Cell-id glob patterns restricting the sweep (tests, spot checks).
    only: Tuple[str, ...] = ()
    #: Golden manifest to diff the computed manifest against.
    verify: Optional[str] = None
    #: Planted per-cell fault plans: cell id -> FaultPlan spec string.
    fault_cells: Dict[str, str] = field(default_factory=dict)
    #: Interval (s) for the background progress heartbeat; 0 disables.
    heartbeat: float = 0.0
    scale: Optional[float] = None
    time_limit: Optional[float] = None
    block_size: int = DEFAULT_BLOCK_SIZE
    #: Keep per-cell work/checkpoint dirs after success (debugging).
    keep_work: bool = False
    #: Only recompute + verify artifacts from existing cell results.
    verify_only: bool = False


class _Progress:
    """Shared sweep progress for the heartbeat thread."""

    def __init__(self, total: int) -> None:
        self.total = total
        self.done = 0
        self.current = ""
        self.started = time.monotonic()
        self._lock = threading.Lock()

    def start_cell(self, cell_id: str) -> None:
        with self._lock:
            self.current = cell_id

    def finish_cell(self) -> None:
        with self._lock:
            self.done += 1
            self.current = ""

    def line(self) -> str:
        with self._lock:
            done, total, current = self.done, self.total, self.current
        elapsed = time.monotonic() - self.started
        eta = "?"
        if done:
            remaining = (elapsed / done) * (total - done)
            eta = f"{remaining:.0f}s"
        suffix = f" (running {current})" if current else ""
        return (
            f"reproduce: {done}/{total} cells, elapsed {elapsed:.0f}s, "
            f"eta {eta}{suffix}"
        )


class _Heartbeat:
    """Background stderr progress line every ``interval`` seconds."""

    def __init__(self, progress: _Progress, interval: float) -> None:
        self._progress = progress
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(  # repro: allow[SCAN001, THR004]
            target=self._run, name="reproduce-heartbeat", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            print(self._progress.line(), file=sys.stderr, flush=True)

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


def _write_text_atomic(path: str, text: str) -> None:
    """Stage-and-rename write so partial files are never observable."""
    staging = path + ".staging"
    try:
        with open(  # repro: allow[IO001]
            staging, "w", encoding="utf-8"
        ) as handle:
            handle.write(text)
    except BaseException:
        # A torn staging file must not outlive the failed write.
        abort_replace(staging, path)
        raise
    replace_file(staging, path)


def _json_dumps(data: object) -> str:
    import json

    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _json_load(path: str) -> object:
    import json

    with open(path, "r", encoding="utf-8") as handle:  # repro: allow[IO001]
        return json.load(handle)


def _layout(out_dir: str) -> Dict[str, str]:
    return {
        "plan": os.path.join(out_dir, "plan.json"),
        "cells": os.path.join(out_dir, "cells"),
        "work": os.path.join(out_dir, "work"),
        "checkpoints": os.path.join(out_dir, "checkpoints"),
        "traces": os.path.join(out_dir, "traces"),
        "artifact": os.path.join(out_dir, "artifact"),
    }


def _load_completed(cells_dir: str) -> Dict[str, Dict[str, object]]:
    """Cell results already durable from a previous (partial) sweep."""
    completed: Dict[str, Dict[str, object]] = {}
    if not os.path.isdir(cells_dir):
        return completed
    for name in sorted(os.listdir(cells_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(cells_dir, name)
        try:
            data = _json_load(path)
        except ValueError:
            continue  # half-written pre-atomic leftovers: re-run the cell
        if isinstance(data, dict) and "cell_id" in data:
            completed[str(data["cell_id"])] = data
    return completed


def _cell_memory(
    case: CaseSpec, num_nodes: int
) -> Optional[MemoryModel]:
    if case.memory_factor is None:
        return None
    base = MemoryModel.default_capacity(num_nodes)
    return MemoryModel(
        num_nodes=num_nodes, capacity=int(base * case.memory_factor)
    )


def _run_cell(
    case: CaseSpec,
    plan: Plan,
    config: ReproduceConfig,
    paths: Dict[str, str],
) -> Dict[str, object]:
    """Execute one cell; returns its durable result record."""
    graph = build_graph(case.workload, plan.scale)
    algorithm = ALGORITHMS[case.algorithm](**dict(case.algo_kwargs))
    workdir = os.path.join(paths["work"], case.fs_id)
    checkpoint_dir = os.path.join(paths["checkpoints"], case.fs_id)
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(checkpoint_dir, exist_ok=True)
    trace_rel = os.path.join("traces", case.fs_id + ".jsonl")
    record = run_one(
        graph,
        algorithm,
        workload=case.cell_id,
        memory=_cell_memory(case, graph.num_nodes),
        time_limit=plan.time_limit * case.time_limit_factor,
        block_size=config.block_size,
        workdir=workdir,
        keep_result=True,
        trace_path=os.path.join(paths["out"], trace_rel),
        fault_plan=config.fault_cells.get(case.cell_id),
        checkpoint_dir=checkpoint_dir,
        resume=True,  # a fresh cell has no checkpoint; a crashed one does
    )
    cell: Dict[str, object] = {
        "cell_id": case.cell_id,
        "experiment": case.experiment,
        "case": case.case,
        "algorithm": case.algorithm,
        "status": record.status,
        "params": dict(case.params),
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "trace": trace_rel,
    }
    if record.ok:
        assert record.result is not None
        io = record.result.stats.io
        cell["seconds"] = round(float(record.seconds or 0.0), 6)
        cell["io"] = {fld: int(getattr(io, fld)) for fld in IO_FIELDS}
        cell["ios_total"] = int(record.ios or 0)
        cell["iterations"] = int(record.iterations or 0)
        cell["num_sccs"] = int(record.num_sccs or 0)
        cell["partition_sha256"] = partition_fingerprint(record.result.labels)
        extras = record.result.stats.extras
        if "resumed_from_boundary" in extras:
            cell["resumed_from_boundary"] = extras["resumed_from_boundary"]
    if not config.keep_work:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return cell


def _emit_artifacts(
    plan: Plan,
    config: ReproduceConfig,
    cells: Dict[str, Dict[str, object]],
    paths: Dict[str, str],
) -> Tuple[int, Dict[str, object]]:
    """Write summary.json / report.md / MANIFEST.json; validate."""
    from repro.artifact.render import render_summary_markdown

    summary = build_summary(
        tier=plan.tier,
        scale=plan.scale,
        config={
            "block_size": config.block_size,
            "time_limit": plan.time_limit,
            "cell_filter": sorted(config.only),
        },
        cells={
            cell_id: {k: v for k, v in cell.items() if k != "cell_id"}
            for cell_id, cell in cells.items()
        },
    )
    problems = validate_summary(summary)
    os.makedirs(paths["artifact"], exist_ok=True)
    _write_text_atomic(
        os.path.join(paths["artifact"], "summary.json"), summary_json(summary)
    )
    _write_text_atomic(
        os.path.join(paths["artifact"], "report.md"),
        render_summary_markdown(summary),
    )
    manifest = build_manifest(summary)
    _write_text_atomic(
        os.path.join(paths["artifact"], "MANIFEST.json"),
        manifest_json(manifest),
    )
    if problems:
        print(f"{len(problems)} summary validation problem(s):",
              file=sys.stderr)
        for problem in problems:
            print(f"  invalid: {problem}", file=sys.stderr)
        return EXIT_DRIFT, manifest
    return EXIT_OK, manifest


def _verify(manifest: Dict[str, object], golden_path: str) -> int:
    try:
        golden = load_manifest(golden_path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load golden manifest: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    drift = diff_manifests(golden, manifest)
    if drift:
        print(f"manifest drift vs {golden_path} "
              f"({len(drift)} problem(s)):", file=sys.stderr)
        for problem in drift:
            print(f"  {problem}", file=sys.stderr)
        print(
            "If the drift is an *intentional* I/O-model change, "
            "regenerate the golden with `make artifact-golden`.",
            file=sys.stderr,
        )
        return EXIT_DRIFT
    print(f"manifest verified: matches {golden_path} "
          f"({len(manifest.get('cells', {}))} cells)")  # type: ignore[arg-type]
    return EXIT_OK


def reproduce(config: ReproduceConfig) -> int:
    """Run (or resume) a sweep; returns the process exit code."""
    try:
        plan = build_plan(
            config.tier, only=config.only or None,
            scale=config.scale, time_limit=config.time_limit,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = os.path.abspath(
        config.out_dir or os.path.join(
            "bench_results", f"artifact-{config.tier}"
        )
    )
    paths = _layout(out_dir)
    paths["out"] = out_dir
    os.makedirs(out_dir, exist_ok=True)

    plan_dict = plan.to_dict()
    if os.path.exists(paths["plan"]):
        if config.fresh:
            for key in ("cells", "work", "checkpoints", "traces", "artifact"):
                shutil.rmtree(paths[key], ignore_errors=True)
            os.unlink(paths["plan"])
        else:
            try:
                existing = _json_load(paths["plan"])
            except ValueError:
                print(f"error: corrupt plan at {paths['plan']}; "
                      f"use --fresh to restart", file=sys.stderr)
                return EXIT_CONFIG
            if existing != plan_dict:
                print(
                    f"error: {out_dir} holds a different sweep "
                    f"(tier/scale/cells changed); use --fresh to restart "
                    f"or point --out elsewhere",
                    file=sys.stderr,
                )
                return EXIT_CONFIG
            if not config.resume and not config.verify_only:
                completed = _load_completed(paths["cells"])
                if completed:
                    print(
                        f"error: {out_dir} already holds "
                        f"{len(completed)} completed cell(s); pass "
                        f"--resume to continue or --fresh to restart",
                        file=sys.stderr,
                    )
                    return EXIT_CONFIG
    for key in ("cells", "work", "checkpoints", "traces"):
        os.makedirs(paths[key], exist_ok=True)
    if not os.path.exists(paths["plan"]):
        _write_text_atomic(paths["plan"], _json_dumps(plan_dict))

    completed = _load_completed(paths["cells"])
    # Drop stale results that are not part of this plan (e.g. the plan
    # shrank via --cells between runs — impossible past the plan check
    # above, but cheap to be safe about).
    completed = {
        cell_id: cell for cell_id, cell in completed.items()
        if cell_id in set(plan.cell_ids())
    }

    todo = [case for case in plan.cells if case.cell_id not in completed]
    if config.verify_only:
        if todo:
            print(
                f"error: cannot --verify-only with {len(todo)} cell(s) "
                f"incomplete; run the sweep first",
                file=sys.stderr,
            )
            return EXIT_CONFIG
    print(
        f"reproduce[{plan.tier}]: {len(plan.cells)} cells at scale "
        f"{plan.scale:g} ({len(completed)} already done, "
        f"{len(todo)} to run) -> {out_dir}",
        file=sys.stderr,
    )

    progress = _Progress(total=len(plan.cells))
    progress.done = len(completed)
    heartbeat = (
        _Heartbeat(progress, config.heartbeat) if config.heartbeat > 0
        else None
    )
    try:
        for case in todo:
            progress.start_cell(case.cell_id)
            started = time.monotonic()
            try:
                cell = _run_cell(case, plan, config, paths)
            except SimulatedCrash as exc:
                print(f"CRASH: {case.cell_id}: {exc}", file=sys.stderr)
                # The hint must restate the full plan (including any
                # --cells filter): --resume refuses a changed plan.
                cells = ""
                if config.only:
                    quoted = " ".join(f"'{p}'" for p in config.only)
                    cells = f" --cells {quoted}"
                print(f"resume with: repro-scc reproduce --scale "
                      f"{plan.tier} --out {out_dir}{cells} --resume",
                      file=sys.stderr)
                return EXIT_CRASH
            except KeyboardInterrupt:
                print(f"\ninterrupted in {case.cell_id}; completed cells "
                      f"are durable — resume with --resume",
                      file=sys.stderr)
                return EXIT_INTERRUPT
            _write_text_atomic(
                os.path.join(paths["cells"], case.fs_id + ".json"),
                _json_dumps(cell),
            )
            completed[case.cell_id] = cell
            progress.finish_cell()
            took = time.monotonic() - started
            detail = (
                f"ios={cell.get('ios_total')}" if cell["status"] == "ok"
                else f"status={cell['status']}"
            )
            print(
                f"  [{progress.done}/{progress.total}] {case.cell_id} "
                f"{cell['status']} {took:.2f}s {detail} | "
                f"{progress.line().split(': ', 1)[1]}",
                file=sys.stderr,
            )
    finally:
        if heartbeat is not None:
            heartbeat.close()

    code, manifest = _emit_artifacts(plan, config, completed, paths)
    print(
        f"artifact: {os.path.join(paths['artifact'], 'summary.json')} "
        f"+ report.md + MANIFEST.json "
        f"({len(manifest.get('cells', {}))} fingerprinted cells)",  # type: ignore[arg-type]
    )
    if code != EXIT_OK:
        return code
    if config.verify:
        return _verify(manifest, config.verify)
    return EXIT_OK
