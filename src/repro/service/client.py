"""A small synchronous client for the SCC query daemon.

Deliberately thin: one socket, one request in flight, raw response
dicts on request so callers (the bench harness, the chaos drill) can
inspect the typed error codes — ``shed`` vs ``deadline_exceeded`` vs
``read_only`` — that the degradation contract distinguishes.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.protocol import MAX_LINE_BYTES, decode_line, encode_message


class ServiceError(RuntimeError):
    """A typed error response, surfaced by the convenience helpers."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(f"[{code}] {message}")


class ServiceClient:
    """Blocking line-framed JSON client; usable as a context manager."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = self._sock.makefile("rb")
        self._next_id = 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the socket; safe to call more than once."""
        try:
            self._stream.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """Send one request and return the raw response envelope."""
        self._next_id += 1
        message = {"id": self._next_id, "op": op}
        message.update({k: v for k, v in params.items() if v is not None})
        self._sock.sendall(encode_message(message))
        line = self._stream.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_line(line)

    def _result(self, op: str, **params: Any) -> Dict[str, Any]:
        response = self.request(op, **params)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServiceError(
                str(error.get("code", "internal")),
                str(error.get("message", "unknown error")),
            )
        return response["result"]

    # ------------------------------------------------------------------
    # convenience helpers (raise ServiceError on typed refusals)
    # ------------------------------------------------------------------
    def reach(
        self, u: int, v: int, deadline_ms: Optional[int] = None
    ) -> bool:
        """True when ``u`` can reach ``v`` through the condensation."""
        return bool(
            self._result("reach", u=u, v=v, deadline_ms=deadline_ms)["reachable"]
        )

    def scc(self, node: int, deadline_ms: Optional[int] = None) -> Dict[str, Any]:
        """SCC id and size of ``node``."""
        return self._result("scc", node=node, deadline_ms=deadline_ms)

    def members(
        self,
        scc: int,
        limit: Optional[int] = None,
        deadline_ms: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Member nodes of component ``scc`` (honestly truncated)."""
        return self._result("members", scc=scc, limit=limit, deadline_ms=deadline_ms)

    def toposort(self, node: int, deadline_ms: Optional[int] = None) -> Dict[str, Any]:
        """Condensation layer of ``node``."""
        return self._result("toposort", node=node, deadline_ms=deadline_ms)

    def ingest(
        self,
        edges: Sequence[Tuple[int, int]],
        deadline_ms: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Durably append ``edges``; reports the rebuild decision."""
        return self._result(
            "ingest",
            edges=[[int(u), int(v)] for u, v in edges],
            deadline_ms=deadline_ms,
        )

    def rebuild(self) -> Dict[str, Any]:
        """Request a background rebuild (admission-controlled)."""
        return self._result("rebuild")

    def health(self) -> Dict[str, Any]:
        """State, generation, fingerprint and queue depth."""
        return self._result("health")

    def stats(self) -> Dict[str, Any]:
        """Shed/deadline/rebuild tallies and the admission window."""
        return self._result("stats")

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to stop (acknowledged first)."""
        return self._result("shutdown")


def wait_until_ready(
    host: str,
    port: int,
    timeout: float = 30.0,
    accept_states: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Poll ``health`` until the daemon reports ready (or raise).

    Connection refusals while the daemon binds are retried; the last
    health payload is returned so callers can assert on state or
    fingerprint directly.
    """
    states = accept_states
    end = time.monotonic() + timeout
    last: Dict[str, Any] = {}
    while time.monotonic() < end:
        try:
            with ServiceClient(host, port, timeout=2.0) as client:
                last = client.health()
            if last.get("ready") and (states is None or last.get("state") in states):
                return last
        except (OSError, ConnectionError):
            pass
        time.sleep(0.05)
    raise TimeoutError(
        f"daemon at {host}:{port} not ready after {timeout}s "
        f"(last health: {last or 'unreachable'})"
    )
