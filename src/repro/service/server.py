"""The SCC query daemon: crash-tolerant, admission-controlled, degradable.

One process owns one graph.  It computes the condensation once (crash
safe via the checkpoint subsystem: SIGKILL it mid-build, restart it,
and it resumes to a byte-identical partition), keeps the O(|V|)
snapshot resident, and answers reachability / SCC / toposort queries
from a bounded worker pool over the line-framed JSON protocol of
:mod:`repro.service.protocol`.

Robustness kit, end to end:

* **Admission control** — rebuild jobs are quoted in counted I/O blocks
  (:mod:`repro.service.admission`) and admitted against a per-window
  budget; a rejected rebuild names its ``retry_after_s``.
* **Deadlines** — every queued request carries an expiry; workers check
  it before *and during* execution (the reachability DFS takes a
  cancellation callback), so a slow query degrades into a fast, typed
  ``deadline_exceeded`` instead of a stuck socket.
* **Load shedding** — past the queue's high-water mark the connection
  thread refuses with ``shed`` immediately; the queue itself is bounded
  (as every queue in this tree must be, per contract THR004).
* **Graceful degradation** — ingest buffers edges durably and triggers
  a background rebuild; the last-good snapshot keeps serving with
  ``stale: true`` and is swapped atomically on success.  A failed
  rebuild moves the daemon to READ_ONLY — still answering, refusing
  mutations, reporting the cause — never to a crash loop.

Durable layout under ``service_root`` (all swaps via
:func:`repro.io.atomic.replace_file`)::

    manifest.json        generation / base / building / pending pointers
    labels-gen<k>.npy    persisted partition of generation k
    ingest.bin           the live ingest buffer (an EdgeFile)
    pending-gen<k>.bin   rotated ingest awaiting merge into generation k
    graph-gen<k>.rgr(+.meta)  merged edge file of generation k
    ckpt-gen<k>/         checkpoint directory of generation k's build

Every step of a rebuild is idempotent against the manifest, so a crash
at any point is resumed, not repaired, on restart.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.constants import DEFAULT_BLOCK_SIZE
from repro.core.base import Deadline
from repro.exceptions import AlgorithmTimeout
from repro.graph.storage import read_metadata, write_metadata
from repro.io.atomic import abort_replace, recover_staging, replace_file
from repro.io.edgefile import EdgeFile
from repro.obs.metrics import MetricsRegistry
from repro.service.admission import AdmissionController, quote_rebuild_blocks
from repro.service.protocol import (
    ErrorCode,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_message,
    error_response,
    ok_response,
    read_frames,
    request_deadline_ms,
    validate_request,
)
from repro.service.snapshot import (
    ServiceSnapshot,
    build_snapshot,
    load_labels,
    save_labels_atomic,
    snapshot_from_labels,
)
from repro.service.state import Lifecycle, ServiceState

#: Ops answered inline on the connection thread — they must stay
#: responsive even when the worker queue is saturated, because they are
#: exactly what an operator reaches for *during* saturation.
_INLINE_OPS = frozenset({"health", "stats", "shutdown"})

#: Ops that need a resident snapshot.
_QUERY_OPS = frozenset({"reach", "scc", "members", "toposort"})

_MANIFEST_NAME = "manifest.json"


@dataclass
class ServiceConfig:
    """Everything the operator can turn, with shippable defaults."""

    graph_path: str
    algorithm: str = "1PB-SCC"
    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral, read .port after start
    block_size: int = DEFAULT_BLOCK_SIZE
    query_workers: int = 4
    queue_max: int = 64                # hard bound on the request queue
    high_water: int = 48               # shed threshold (<= queue_max)
    default_deadline_ms: int = 1000
    max_deadline_ms: int = 60_000
    admission_window_blocks: int = 1_000_000
    admission_window_seconds: float = 60.0
    admission_iterations_hint: int = 8
    rebuild_time_limit: Optional[float] = None
    service_root: Optional[str] = None  # default: <graph_path>.service
    fault_plan: Optional[str] = None    # applied to (re)build I/O
    num_traversals: int = 2             # GRAIL traversals
    seed: int = 0
    auto_rebuild: bool = True           # ingest triggers a rebuild request
    members_limit: int = 1000

    def root(self) -> str:
        """Durable state directory (defaults beside the graph file)."""
        return self.service_root or (self.graph_path + ".service")


class SCCServer:
    """The daemon.  ``start()`` it, talk JSON to ``(host, port)``."""

    def __init__(
        self,
        config: ServiceConfig,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if config.high_water > config.queue_max:
            raise ValueError("high_water must not exceed queue_max")
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.lifecycle = Lifecycle(self.registry)
        self.admission = AdmissionController(
            config.admission_window_blocks,
            config.admission_window_seconds,
        )
        self.port: Optional[int] = None

        self._snapshot: Optional[ServiceSnapshot] = None
        self._snapshot_lock = threading.Lock()
        self._stale = False

        # Re-entrant: _save_manifest re-acquires under the mutation
        # helpers, and _ingest_file under ingest/rotation call sites.
        self._manifest_lock = threading.RLock()
        self._manifest: Dict[str, Any] = {
            "version": 1,
            "generation": -1,
            "base": None,
            "base_labels": None,
            "building": None,
            "building_generation": None,
            "pending": None,
        }

        self._ingest: Optional[EdgeFile] = None
        self._ingest_lock = threading.RLock()
        self._pending_edges = 0

        # Bounded queues throughout (contract THR004): the request queue
        # is the shed boundary; the build queue never legitimately holds
        # more than one queued job plus one sentinel.
        self._queue: "queue.Queue[Optional[Tuple[Dict[str, Any], Any, float]]]" = (
            queue.Queue(maxsize=config.queue_max)
        )
        self._build_queue: "queue.Queue[Optional[str]]" = queue.Queue(maxsize=4)
        self._rebuild_lock = threading.Lock()
        self._rebuild_inflight = False

        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._conns_lock = threading.Lock()
        self._conns: List[socket.socket] = []
        self._stopping = threading.Event()
        self._started = time.monotonic()

        self._init_metrics()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _init_metrics(self) -> None:
        reg = self.registry
        self._m_shed = reg.counter(
            "repro_service_shed_total", "requests refused at the high-water mark"
        )
        self._m_deadline = reg.counter(
            "repro_service_deadline_total", "requests expired before or during execution"
        )
        self._m_latency = reg.histogram(
            "repro_service_request_seconds", "queue wait + execution time"
        )
        self._m_rebuilds = reg.counter(
            "repro_service_rebuilds_total", "background (re)builds completed"
        )
        self._m_rebuild_failures = reg.counter(
            "repro_service_rebuild_failures_total", "background (re)builds failed"
        )
        self._g_stale = reg.gauge(
            "repro_service_stale", "1 while serving from a superseded snapshot"
        )
        self._g_generation = reg.gauge(
            "repro_service_generation", "generation of the resident snapshot"
        )
        self._g_pending = reg.gauge(
            "repro_service_pending_edges", "ingested edges awaiting a rebuild"
        )
        reg.register_callback(
            "repro_service_queue_depth", lambda: float(self._queue.qsize())
        )
        reg.register_callback(
            "repro_service_admission_window_used_blocks",
            lambda: float(self.admission.window_used_blocks),
        )

    def _count_request(self, op: str) -> None:
        self.registry.counter(
            "repro_service_requests_total", "requests received", op=op
        ).inc()

    # ------------------------------------------------------------------
    # durable layout helpers
    # ------------------------------------------------------------------
    def _path(self, name: str) -> str:
        return os.path.join(self.config.root(), name)

    def _labels_path(self, generation: int) -> str:
        return self._path(f"labels-gen{generation}.npy")

    def _pending_path(self, generation: int) -> str:
        return self._path(f"pending-gen{generation}.bin")

    def _gen_graph_path(self, generation: int) -> str:
        return self._path(f"graph-gen{generation}.rgr")

    def _ckpt_dir(self, generation: int) -> str:
        return self._path(f"ckpt-gen{generation}")

    def _manifest_file(self) -> str:
        return self._path(_MANIFEST_NAME)

    def _save_manifest(self) -> None:
        with self._manifest_lock:
            payload = json.dumps(self._manifest, indent=2, sort_keys=True)
        target = self._manifest_file()
        staging = target + ".staging"
        try:
            with open(staging, "w", encoding="utf-8") as handle:  # repro: allow[IO001]
                handle.write(payload)
            replace_file(staging, target)
        except BaseException:
            # A torn staging write must not replace the durable manifest.
            abort_replace(staging, target)
            raise

    def _load_manifest(self) -> bool:
        path = self._manifest_file()
        recover_staging(path)
        if not os.path.exists(path):
            return False
        with open(path, "r", encoding="utf-8") as handle:  # repro: allow[IO001]
            loaded = json.load(handle)
        with self._manifest_lock:
            self._manifest.update(loaded)
        return True

    def _man_get(self, key: str) -> Any:
        with self._manifest_lock:
            return self._manifest.get(key)

    def _man_update(self, **fields: Any) -> None:
        """Mutate the in-memory manifest and persist it durably."""
        with self._manifest_lock:
            self._manifest.update(fields)
        self._save_manifest()

    # ------------------------------------------------------------------
    # lifecycle: start / stop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind, recover durable state, and begin serving."""
        os.makedirs(self.config.root(), exist_ok=True)
        had_manifest = self._load_manifest()

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.config.host, self.config.port))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]

        for i in range(self.config.query_workers):
            self._spawn(self._worker_loop, f"svc-worker-{i}")
        self._spawn(self._builder_loop, "svc-builder")
        self._spawn(self._accept_loop, "svc-accept")

        if had_manifest and self._man_get("base_labels"):
            self._recover_serving()
        if self._man_get("building") is not None:
            # A build was in flight when the last process died: resume
            # it.  A resumed rebuild does not re-quote admission — it
            # was admitted before the crash.
            if self._current_snapshot() is not None:
                with self._rebuild_lock:
                    self._rebuild_inflight = True
                self._set_stale(True)
                self.lifecycle.transition(ServiceState.DEGRADED_STALE)
                self._build_queue.put("rebuild")
            else:
                self._build_queue.put("initial")
        elif self._current_snapshot() is None:
            self._build_queue.put("initial")

        self._refresh_pending_count()

    def _spawn(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _recover_serving(self) -> None:
        """Restart fast path: persisted labels -> snapshot -> SERVING."""
        labels_path = self._man_get("base_labels")
        try:
            labels = load_labels(labels_path)
            if labels is None:
                raise FileNotFoundError(labels_path)
            snapshot = snapshot_from_labels(
                self._man_get("base"),
                labels,
                block_size=self.config.block_size,
                num_traversals=self.config.num_traversals,
                seed=self.config.seed,
                generation=int(self._man_get("generation")),
            )
        except Exception as exc:  # noqa: BLE001 - degrade, don't crash
            self.lifecycle.transition(
                ServiceState.READ_ONLY, error=f"snapshot recovery failed: {exc}"
            )
            return
        self._install_snapshot(snapshot, stale=False)
        self.lifecycle.transition(ServiceState.SERVING)

    def stop(self) -> None:
        """Graceful stop; idempotent, callable from any thread."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        try:
            self.lifecycle.transition(ServiceState.STOPPED)
        except Exception:  # noqa: BLE001 - already stopped is fine
            pass
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for _ in range(self.config.query_workers):
            try:
                self._queue.put_nowait(None)
            except queue.Full:
                pass
        try:
            self._build_queue.put_nowait(None)
        except queue.Full:
            pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        with self._ingest_lock:
            if self._ingest is not None:
                try:
                    self._ingest.flush()
                    self._ingest.close()
                except Exception:  # noqa: BLE001
                    pass
                self._ingest = None

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon stops; True when it has."""
        return self._stopping.wait(timeout)

    # ------------------------------------------------------------------
    # snapshot plumbing
    # ------------------------------------------------------------------
    def _install_snapshot(self, snapshot: ServiceSnapshot, stale: bool) -> None:
        with self._snapshot_lock:
            self._snapshot = snapshot
        self._set_stale(stale)
        self._g_generation.set(float(snapshot.generation))

    def _current_snapshot(self) -> Optional[ServiceSnapshot]:
        with self._snapshot_lock:
            return self._snapshot

    def _set_stale(self, stale: bool) -> None:
        self._stale = bool(stale)
        self._g_stale.set(1.0 if stale else 0.0)

    # ------------------------------------------------------------------
    # ingest buffer
    # ------------------------------------------------------------------
    def _ingest_file(self) -> EdgeFile:
        with self._ingest_lock:
            if self._ingest is None:
                self._ingest = EdgeFile(
                    self._path("ingest.bin"), block_size=self.config.block_size
                )
            return self._ingest

    def _refresh_pending_count(self) -> None:
        total = 0
        ingest_path = self._path("ingest.bin")
        if os.path.exists(ingest_path):
            total += os.path.getsize(ingest_path) // 8
        pending = self._man_get("pending")
        if pending and os.path.exists(pending):
            total += os.path.getsize(pending) // 8
        self._pending_edges = total
        self._g_pending.set(float(total))

    # ------------------------------------------------------------------
    # rebuild orchestration
    # ------------------------------------------------------------------
    def _request_rebuild(self) -> Dict[str, Any]:
        """Admission-check and schedule a background rebuild.

        Returns a wire-ready dict; raises :class:`ProtocolError` with
        ``admission_rejected`` when the window budget refuses the quote.
        """
        with self._rebuild_lock:
            if self._rebuild_inflight:
                return {"scheduled": False, "reason": "rebuild already in flight"}
            snapshot = self._current_snapshot()
            if snapshot is None:
                raise ProtocolError(
                    "no snapshot yet; the initial build must finish first",
                    code=ErrorCode.UNAVAILABLE,
                )
            quote = quote_rebuild_blocks(
                self.config.algorithm,
                snapshot.num_edges + self._pending_edges,
                self.config.block_size,
                self.config.admission_iterations_hint,
            )
            decision = self.admission.request(quote)
            if not decision.admitted:
                raise ProtocolError(
                    f"rebuild rejected by admission control: "
                    f"{decision.reason}; retry_after_s="
                    f"{decision.retry_after_s:.3f}",
                    code=ErrorCode.ADMISSION_REJECTED,
                )
            self._rebuild_inflight = True
        self._set_stale(True)
        if self.lifecycle.state in (ServiceState.SERVING, ServiceState.READ_ONLY):
            self.lifecycle.transition(ServiceState.DEGRADED_STALE)
        self._build_queue.put("rebuild")
        return {"scheduled": True, "admission": decision.to_dict()}

    def _builder_loop(self) -> None:
        while True:
            job = self._build_queue.get()
            if job is None:
                return
            try:
                if job == "initial":
                    self._run_initial_build()
                else:
                    self._run_rebuild()
            except Exception as exc:  # noqa: BLE001 - degrade, don't crash
                self._m_rebuild_failures.inc()
                with self._rebuild_lock:
                    self._rebuild_inflight = False
                self.lifecycle.transition(
                    ServiceState.READ_ONLY,
                    error=f"{job} build failed: {exc}",
                )

    def _run_initial_build(self) -> None:
        """Generation 0: SCC the configured graph, crash-safe."""
        self._man_update(
            building=self.config.graph_path, building_generation=0
        )
        snapshot = self._build_generation(self.config.graph_path, 0)
        save_labels_atomic(snapshot.labels, self._labels_path(0))
        self._man_update(
            generation=0,
            base=self.config.graph_path,
            base_labels=self._labels_path(0),
            building=None,
            building_generation=None,
        )
        self._install_snapshot(snapshot, stale=False)
        self._m_rebuilds.inc()
        self.lifecycle.transition(ServiceState.SERVING)

    def _run_rebuild(self) -> None:
        """One background rebuild; every step idempotent vs the manifest."""
        if (
            self._man_get("building")
            and self._man_get("building_generation") is not None
        ):
            generation = int(self._man_get("building_generation"))
        else:
            generation = int(self._man_get("generation")) + 1

        pending_path = self._rotate_ingest(generation)
        gen_graph = self._merge_generation(generation, pending_path)

        self._man_update(building=gen_graph, building_generation=generation)

        snapshot = self._build_generation(gen_graph, generation)
        if snapshot.build_io is not None:
            self.admission.note_actual(snapshot.build_io.total)
        save_labels_atomic(snapshot.labels, self._labels_path(generation))
        old_generation = int(self._man_get("generation"))
        self._man_update(
            generation=generation,
            base=gen_graph,
            base_labels=self._labels_path(generation),
            building=None,
            building_generation=None,
            pending=None,
        )
        self._cleanup_generation(old_generation, pending_path)
        self._install_snapshot(snapshot, stale=False)
        self._refresh_pending_count()
        self._m_rebuilds.inc()
        with self._rebuild_lock:
            self._rebuild_inflight = False
        self.lifecycle.transition(ServiceState.SERVING)

    def _rotate_ingest(self, generation: int) -> Optional[str]:
        """Move ingest.bin aside as this generation's pending batch.

        The manifest records the intent *before* the rename, so a crash
        in between is redone (the rename is skipped when the pending
        file already exists) and never loses edges.
        """
        pending_path = self._pending_path(generation)
        with self._ingest_lock:
            if os.path.exists(pending_path):
                return pending_path
            ingest_path = self._path("ingest.bin")
            self._man_update(pending=pending_path)
            if self._ingest is not None:
                self._ingest.flush()
                self._ingest.close()
                # The old handle would keep writing to the renamed file;
                # drop it so the next ingest opens a fresh buffer.
                self._ingest = None
            if os.path.exists(ingest_path) and os.path.getsize(ingest_path) > 0:
                replace_file(ingest_path, pending_path)
                return pending_path
            self._man_update(pending=None)
            return None

    def _merge_generation(
        self, generation: int, pending_path: Optional[str]
    ) -> str:
        """Merge base + pending into this generation's edge file.

        Skipped when the ``.meta`` sidecar already exists: metadata is
        written only after the data file has been atomically installed,
        so its presence proves the merge completed.  The merge itself is
        deterministic (base order, then pending order), which is what
        lets an interrupted and an uninterrupted rebuild converge to the
        same fingerprint.
        """
        gen_graph = self._gen_graph_path(generation)
        if os.path.exists(gen_graph + ".meta"):
            return gen_graph
        base = self._man_get("base")
        meta = read_metadata(base)
        total = 0
        staging = gen_graph + ".staging"
        try:
            out = EdgeFile.create(staging, block_size=self.config.block_size)
            try:
                source = EdgeFile(base, block_size=self.config.block_size)
                try:
                    for batch in source.scan():
                        out.append(batch)
                        total += int(batch.shape[0])
                finally:
                    source.close()
                if pending_path is not None and os.path.exists(pending_path):
                    pending = EdgeFile(
                        pending_path, block_size=self.config.block_size
                    )
                    try:
                        for batch in pending.scan():
                            out.append(batch)
                            total += int(batch.shape[0])
                    finally:
                        pending.close()
                out.flush()
            finally:
                out.close()
            replace_file(staging, gen_graph)
        except BaseException:
            # A torn merge must not masquerade as a generation.
            abort_replace(staging, gen_graph)
            raise
        write_metadata(gen_graph, int(meta["num_nodes"]), total)
        return gen_graph

    def _build_generation(self, graph_path: str, generation: int) -> ServiceSnapshot:
        return build_snapshot(
            graph_path,
            algorithm=self.config.algorithm,
            block_size=self.config.block_size,
            checkpoint_dir=self._ckpt_dir(generation),
            resume=True,
            fault_plan=self.config.fault_plan,
            time_limit=self.config.rebuild_time_limit,
            metrics=self.registry,
            num_traversals=self.config.num_traversals,
            seed=self.config.seed,
            generation=generation,
        )

    def _cleanup_generation(
        self, old_generation: int, pending_path: Optional[str]
    ) -> None:
        """Drop service-owned files of superseded generations."""
        victims = []
        if pending_path:
            victims.append(pending_path)
        if old_generation >= 0:
            old_graph = self._gen_graph_path(old_generation)
            # Never delete the operator's original graph file — only
            # merged generations living inside the service root.
            if os.path.dirname(os.path.abspath(old_graph)) == os.path.abspath(
                self.config.root()
            ):
                victims.extend([old_graph, old_graph + ".meta"])
            victims.append(self._labels_path(old_generation))
        for path in victims:
            try:
                if os.path.exists(path):
                    os.remove(path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # network plane
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            try:
                # Without it Nagle holds each pipelined response back
                # until the client's delayed ACK (~8 ms a response).
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass  # a dead peer; the connection loop closes it
            with self._conns_lock:
                self._conns.append(conn)
            thread = threading.Thread(
                target=self._connection_loop, args=(conn,), daemon=True
            )
            thread.start()

    def _connection_loop(self, conn: socket.socket) -> None:
        write_lock = threading.Lock()
        try:
            stream = conn.makefile("rb")
            for frame in read_frames(stream):
                try:
                    request = decode_line(frame)
                    op = validate_request(request)
                except ProtocolError as exc:
                    self._respond(
                        conn,
                        write_lock,
                        error_response(None, exc.code, str(exc)),
                    )
                    continue
                self._dispatch(request, op, conn, write_lock)
        except (OSError, ProtocolError):
            pass
        finally:
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _respond(
        self, conn: socket.socket, write_lock: threading.Lock, message: Dict[str, Any]
    ) -> None:
        try:
            data = encode_message(message)
        except ProtocolError:
            data = encode_message(
                error_response(
                    message.get("id"), ErrorCode.INTERNAL, "response too large"
                )
            )
        with write_lock:
            try:
                conn.sendall(data)
            except OSError:
                pass

    def _dispatch(
        self,
        request: Dict[str, Any],
        op: str,
        conn: socket.socket,
        write_lock: threading.Lock,
    ) -> None:
        self._count_request(op)
        request_id = request.get("id")
        if op in _INLINE_OPS:
            self._respond(conn, write_lock, self._handle_inline(request, op))
            if op == "shutdown":
                # The acknowledgement is on the wire; stop from a helper
                # thread so this connection thread is not torn down from
                # under its own dispatch.
                threading.Thread(
                    target=self.stop, name="svc-stop", daemon=True
                ).start()
            return
        # Lifecycle gate before queueing: refusal must be cheap.
        if op in _QUERY_OPS or op == "sleep":
            if self._current_snapshot() is None and op != "sleep":
                self._respond(
                    conn,
                    write_lock,
                    error_response(
                        request_id,
                        ErrorCode.UNAVAILABLE,
                        f"state={self.lifecycle.state.value}: no snapshot "
                        f"resident yet",
                    ),
                )
                return
        elif op == "ingest":
            if not self.lifecycle.can_ingest():
                state = self.lifecycle.state
                code = (
                    ErrorCode.READ_ONLY
                    if state is ServiceState.READ_ONLY
                    else ErrorCode.UNAVAILABLE
                )
                detail = self.lifecycle.last_error
                self._respond(
                    conn,
                    write_lock,
                    error_response(
                        request_id,
                        code,
                        f"mutations refused in state {state.value}"
                        + (f": {detail}" if detail else ""),
                    ),
                )
                return
        elif op == "rebuild":
            try:
                result = self._request_rebuild()
            except ProtocolError as exc:
                self._respond(
                    conn, write_lock, error_response(request_id, exc.code, str(exc))
                )
                return
            self._respond(
                conn, write_lock, ok_response(request_id, result, stale=self._stale)
            )
            return

        # Shed fast-path: past high water the request never queues.
        if self._queue.qsize() >= self.config.high_water:
            self._shed(conn, write_lock, request_id)
            return
        deadline_ms = request_deadline_ms(
            request, self.config.default_deadline_ms, self.config.max_deadline_ms
        )
        expiry = time.monotonic() + deadline_ms / 1000.0
        try:
            self._queue.put_nowait((request, (conn, write_lock), expiry))
        except queue.Full:
            self._shed(conn, write_lock, request_id)

    def _shed(
        self, conn: socket.socket, write_lock: threading.Lock, request_id: Any
    ) -> None:
        self._m_shed.inc()
        self._respond(
            conn,
            write_lock,
            error_response(
                request_id,
                ErrorCode.SHED,
                f"request queue at high water "
                f"({self._queue.qsize()}/{self.config.queue_max}); retry with "
                f"backoff",
            ),
        )

    # ------------------------------------------------------------------
    # worker plane
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            request, (conn, write_lock), expiry = item
            started = time.monotonic()
            request_id = request.get("id")
            remaining = expiry - started
            if remaining <= 0:
                self._m_deadline.inc()
                self._respond(
                    conn,
                    write_lock,
                    error_response(
                        request_id,
                        ErrorCode.DEADLINE_EXCEEDED,
                        "deadline expired while queued",
                    ),
                )
                continue
            op = request["op"]
            deadline = Deadline(f"service.{op}", remaining)
            try:
                result = self._execute(request, op, deadline)
                response = ok_response(request_id, result, stale=self._stale)
            except AlgorithmTimeout:
                self._m_deadline.inc()
                response = error_response(
                    request_id,
                    ErrorCode.DEADLINE_EXCEEDED,
                    f"deadline of {int((expiry - started) * 1000)}ms exceeded "
                    f"during execution",
                )
            except ProtocolError as exc:
                response = error_response(request_id, exc.code, str(exc))
            except ValueError as exc:
                code = (
                    ErrorCode.OUT_OF_RANGE
                    if "out of range" in str(exc)
                    else ErrorCode.BAD_REQUEST
                )
                response = error_response(request_id, code, str(exc))
            except Exception as exc:  # noqa: BLE001 - a worker never dies
                response = error_response(
                    request_id, ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
                )
            self._m_latency.observe(time.monotonic() - started)
            self._respond(conn, write_lock, response)

    def _execute(
        self, request: Dict[str, Any], op: str, deadline: Deadline
    ) -> Dict[str, Any]:
        if op == "sleep":
            return self._op_sleep(int(request["ms"]), deadline)
        if op == "ingest":
            return self._op_ingest(request["edges"])
        snapshot = self._current_snapshot()
        if snapshot is None:
            raise ProtocolError("no snapshot resident", code=ErrorCode.UNAVAILABLE)
        if op == "reach":
            reachable = snapshot.reaches(
                int(request["u"]), int(request["v"]), check=deadline.check
            )
            return {"reachable": bool(reachable)}
        if op == "scc":
            return snapshot.scc_of(int(request["node"]))
        if op == "members":
            limit = min(
                int(request.get("limit") or self.config.members_limit),
                self.config.members_limit,
            )
            return snapshot.members(int(request["scc"]), limit)
        if op == "toposort":
            return snapshot.layer_of(int(request["node"]))
        raise ProtocolError(f"unhandled op {op!r}", code=ErrorCode.INTERNAL)

    @staticmethod
    def _op_sleep(ms: int, deadline: Deadline) -> Dict[str, Any]:
        """Test/drill aid: hold this worker, respecting the deadline."""
        end = time.monotonic() + ms / 1000.0
        while True:
            deadline.check()
            now = time.monotonic()
            if now >= end:
                return {"slept_ms": ms}
            time.sleep(min(0.01, end - now))

    def _op_ingest(self, edges: List[List[int]]) -> Dict[str, Any]:
        snapshot = self._current_snapshot()
        if snapshot is None:
            raise ProtocolError("no snapshot resident", code=ErrorCode.UNAVAILABLE)
        if not self.lifecycle.can_ingest():
            raise ProtocolError(
                f"mutations refused in state {self.lifecycle.state.value}",
                code=ErrorCode.READ_ONLY,
            )
        for u, v in edges:
            if not (0 <= u < snapshot.num_nodes and 0 <= v < snapshot.num_nodes):
                raise ProtocolError(
                    f"edge ({u}, {v}) references a node outside "
                    f"[0, {snapshot.num_nodes})",
                    code=ErrorCode.OUT_OF_RANGE,
                )
        if edges:
            array = np.asarray(edges, dtype=np.uint32).reshape(-1, 2)
            with self._ingest_lock:
                buffer = self._ingest_file()
                buffer.append(array)
                buffer.flush()
            self._pending_edges += len(edges)
            self._g_pending.set(float(self._pending_edges))
        result: Dict[str, Any] = {
            "accepted": len(edges),
            "pending_edges": self._pending_edges,
        }
        if edges and self.config.auto_rebuild:
            try:
                result["rebuild"] = self._request_rebuild()
            except ProtocolError as exc:
                # The edges are durably buffered either way; the caller
                # learns the rebuild itself was refused and why.
                result["rebuild"] = {
                    "scheduled": False,
                    "error": exc.code,
                    "reason": str(exc),
                }
        return result

    # ------------------------------------------------------------------
    # inline ops
    # ------------------------------------------------------------------
    def _handle_inline(self, request: Dict[str, Any], op: str) -> Dict[str, Any]:
        request_id = request.get("id")
        if op == "health":
            return ok_response(request_id, self.health_payload(), stale=self._stale)
        if op == "stats":
            return ok_response(request_id, self.stats_payload(), stale=self._stale)
        return ok_response(request_id, {"stopping": True})

    def health_payload(self) -> Dict[str, Any]:
        """The ``health`` op's body (also fed to ``/healthz``)."""
        snapshot = self._current_snapshot()
        state = self.lifecycle.state
        payload: Dict[str, Any] = {
            "protocol": PROTOCOL_VERSION,
            "state": state.value,
            "ready": snapshot is not None
            and state
            in (
                ServiceState.SERVING,
                ServiceState.DEGRADED_STALE,
                ServiceState.READ_ONLY,
            ),
            "stale": self._stale,
            "generation": snapshot.generation if snapshot else None,
            "fingerprint": snapshot.fingerprint if snapshot else None,
            "num_nodes": snapshot.num_nodes if snapshot else None,
            "num_edges": snapshot.num_edges if snapshot else None,
            "num_sccs": snapshot.num_sccs if snapshot else None,
            "pending_edges": self._pending_edges,
            "queue_depth": self._queue.qsize(),
            "uptime_s": round(time.monotonic() - self._started, 3),
            "seconds_in_state": round(self.lifecycle.seconds_in_state, 3),
            "last_error": self.lifecycle.last_error,
        }
        return payload

    def stats_payload(self) -> Dict[str, Any]:
        """The ``stats`` op's body: robustness tallies + admission."""
        return {
            "shed_total": int(self._m_shed.value),
            "deadline_total": int(self._m_deadline.value),
            "rebuilds_total": int(self._m_rebuilds.value),
            "rebuild_failures_total": int(self._m_rebuild_failures.value),
            "requests_seconds_count": int(self._m_latency.count),
            "admission": {
                "admitted_total": self.admission.admitted_total,
                "rejected_total": self.admission.rejected_total,
                "actual_blocks_total": self.admission.actual_blocks_total,
                "window_used_blocks": self.admission.window_used_blocks,
                "window_quota_blocks": self.admission.window_blocks,
            },
        }
