"""Open-loop load generator for the serve workload.

One process, at most ``nproc`` connections.  Queries leave on a fixed
schedule built from the seed (Poisson arrivals at a fixed mean rate),
whether or not earlier answers have come back, and each is timed from
its due time, so a stall in the daemon also counts against the queries
that had to wait behind it.  How late the sender itself ran is
reported separately.

Ingest cycles ride on the same connections: at each cycle's due time
the generator ingests a batch of edges the graph already has (so every
right answer stays the same), then polls ``health`` until the new
generation is installed and no longer stale.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Query mix: (op, share).  Mostly reachability, some SCC lookups.  The
#: shares are a choice, not a measurement: no trace of real traffic
#: exists.  Reach dominates because it is the query the daemon's index
#: exists for; the rest exercises the other two query paths.
MIX = (("reach", 0.85), ("scc", 0.10), ("members", 0.05))

#: ``limit`` sent with every ``members`` query, as in
#: ``scripts/service_smoke.py``.
MEMBERS_LIMIT = 5

#: Per-request deadline the generator asks for.
DEADLINE_MS = 1000

#: Health poll interval while a rebuild is running.
HEALTH_POLL_S = 0.02

#: How long to wait for one rebuild, and for stragglers at the end.
REBUILD_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 10.0


@dataclass
class Plan:
    """The seeded schedule: queries, ingest cycles and their batches."""

    due: np.ndarray                    # query due offsets (s)
    requests: List[Dict[str, Any]]     # query bodies, without ids
    cycle_due: List[float]             # ingest due offsets (s)
    batches: List[List[List[int]]]     # edges ingested per cycle


def make_plan(seed: int, edges: np.ndarray, num_nodes: int, num_sccs: int,
              seconds: float, rate: float, cycles: int, batch_edges: int) -> Plan:
    """Build the schedule for one run; the same seed gives the same plan."""
    rng = np.random.default_rng(seed)
    # Poisson arrivals: independent users, at a fixed mean rate.
    gaps = rng.exponential(1.0 / rate, size=int(seconds * rate * 1.5) + 16)
    due = np.cumsum(gaps) - gaps[0]
    due = due[due < seconds]
    count = due.size
    ops = rng.choice([op for op, _ in MIX], size=count, p=[p for _, p in MIX])
    nodes = rng.integers(0, num_nodes, size=(count, 2))
    sccs = rng.integers(0, num_sccs, size=count)
    requests: List[Dict[str, Any]] = []
    for i, op in enumerate(ops):
        if op == "reach":
            body = {"op": "reach", "u": int(nodes[i, 0]), "v": int(nodes[i, 1])}
        elif op == "scc":
            body = {"op": "scc", "node": int(nodes[i, 0])}
        else:
            body = {"op": "members", "scc": int(sccs[i]), "limit": MEMBERS_LIMIT}
        body["deadline_ms"] = DEADLINE_MS
        requests.append(body)
    spacing = seconds / cycles
    cycle_due = [k * spacing + min(1.0, spacing / 4) for k in range(cycles)]
    batches = []
    for _ in range(cycles):
        picked = edges[rng.choice(edges.shape[0], size=batch_edges, replace=False)]
        batches.append([[int(u), int(v)] for u, v in picked])
    return Plan(due=due, requests=requests, cycle_due=cycle_due, batches=batches)


class _Connection:
    """One pipelined protocol connection with a reader thread."""

    def __init__(self, host: str, port: int, inbox: Dict[int, Tuple[float, Dict[str, Any]]],
                 lock: threading.Lock) -> None:
        from repro.service.protocol import decode_line

        self._decode = decode_line
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._inbox = inbox
        self._lock = lock
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        stream = self.sock.makefile("rb")
        try:
            for line in stream:
                now = time.perf_counter()
                response = self._decode(line)
                with self._lock:
                    self._inbox[response.get("id")] = (now, response)
        except (OSError, ValueError):
            pass
        finally:
            stream.close()

    def send(self, message: Dict[str, Any]) -> None:
        from repro.service.protocol import encode_message

        self.sock.sendall(encode_message(message))

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(timeout=5.0)


@dataclass
class LoadResult:
    """Everything the generator observed, in the generator's clock."""

    start: float
    sent: np.ndarray                   # per query send time (nan = never)
    received: np.ndarray               # per query receive time (nan = none)
    responses: List[Optional[Dict[str, Any]]]
    connections: int
    rebuild_windows: List[Tuple[float, float]] = field(default_factory=list)
    rebuild_s: List[float] = field(default_factory=list)
    rebuild_blocks: List[int] = field(default_factory=list)
    cycle_failures: List[str] = field(default_factory=list)


def drive(host: str, port: int, plan: Plan, connections: int) -> LoadResult:
    """Run the plan against a ready daemon and collect every answer."""
    inbox: Dict[int, Tuple[float, Dict[str, Any]]] = {}
    lock = threading.Lock()
    conns = [_Connection(host, port, inbox, lock) for _ in range(connections)]
    count = len(plan.requests)
    sent = np.full(count, np.nan)
    next_id = count  # ids below ``count`` are queries, above are control
    try:
        start = time.perf_counter() + 0.05
        result = LoadResult(start=start, sent=sent, received=np.full(count, np.nan),
                            responses=[None] * count, connections=connections)
        cycle = _Cycles(plan, start, result)
        i = 0
        while i < count or not cycle.finished:
            now = time.perf_counter()
            if i < count and now >= start + plan.due[i]:
                conns[i % connections].send(dict(plan.requests[i], id=i))
                sent[i] = time.perf_counter()
                i += 1
                continue
            message = cycle.step(now, inbox, lock)
            if message is not None:
                next_id += 1
                message["id"] = next_id
                cycle.sent(next_id)
                conns[0].send(message)
                continue
            wake = start + plan.due[i] if i < count else now + HEALTH_POLL_S
            time.sleep(max(0.0, min(wake, now + 0.002) - time.perf_counter()))
        end = time.perf_counter() + DRAIN_TIMEOUT_S
        while time.perf_counter() < end:
            with lock:
                if all(k in inbox for k in range(count)):
                    break
            time.sleep(0.01)
    finally:
        for conn in conns:
            conn.close()
    with lock:
        for k in range(count):
            if k in inbox:
                result.received[k], result.responses[k] = inbox[k]
    return result


class _Cycles:
    """State machine for the ingest -> rebuild cycles (control traffic)."""

    def __init__(self, plan: Plan, start: float, result: LoadResult) -> None:
        self.plan = plan
        self.start = start
        self.result = result
        self.k = 0
        self.state = "idle"
        self.pending: Optional[int] = None
        self.ingest_sent = 0.0
        self.acked = 0.0
        self.done_at = 0.0
        self.next_poll = 0.0
        self.blocks_before = 0

    @property
    def finished(self) -> bool:
        return self.k >= len(self.plan.cycle_due)

    def sent(self, message_id: int) -> None:
        self.pending = message_id

    def _fail(self, reason: str) -> None:
        self.result.cycle_failures.append(f"cycle {self.k}: {reason}")
        self.k = len(self.plan.cycle_due)

    def step(self, now: float, inbox: Dict[int, Tuple[float, Dict[str, Any]]],
             lock: threading.Lock) -> Optional[Dict[str, Any]]:
        """Advance; return a control message to send, if one is due."""
        if self.finished:
            return None
        if self.state == "idle":
            if now < self.start + self.plan.cycle_due[self.k]:
                return None
            self.state = "ingest"
            self.ingest_sent = now
            return {"op": "ingest", "edges": self.plan.batches[self.k],
                    "deadline_ms": DEADLINE_MS}
        if now - self.ingest_sent > REBUILD_TIMEOUT_S:
            self._fail(f"no new generation after {REBUILD_TIMEOUT_S:.0f}s")
            return None
        if self.pending is None:
            # Only the rebuild state waits with nothing in flight: poll.
            return {"op": "health"} if now >= self.next_poll else None
        with lock:
            reply = inbox.pop(self.pending, None)
        if reply is None:
            return None
        self.pending = None
        received, response = reply
        if not response.get("ok"):
            self._fail(f"{self.state} refused: {response.get('error')}")
            return None
        body = response["result"]
        if self.state == "ingest":
            rebuild = body.get("rebuild") or {}
            if body.get("accepted") != len(self.plan.batches[self.k]) or not rebuild.get("scheduled"):
                self._fail(f"ingest not accepted or rebuild not scheduled: {body}")
                return None
            self.acked = received
            self.state = "rebuild"
            self.next_poll = received
            return None
        if self.state == "rebuild":
            if body.get("generation") == self.k + 1 and not body.get("stale"):
                self.done_at = received
                self.state = "stats"
                return {"op": "stats"}
            self.next_poll = received + HEALTH_POLL_S
            return None
        # stats: the admission ledger holds the counted I/O of every rebuild.
        blocks = int(body["admission"]["actual_blocks_total"])
        self.result.rebuild_blocks.append(blocks - self.blocks_before)
        self.blocks_before = blocks
        self.result.rebuild_s.append(self.done_at - self.acked)
        self.result.rebuild_windows.append((self.ingest_sent, self.done_at))
        self.k += 1
        self.state = "idle"
        return None
