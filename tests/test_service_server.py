"""End-to-end daemon tests: the full degradation contract over the wire.

Each test boots a real :class:`~repro.service.server.SCCServer` on an
ephemeral port and talks the line-framed JSON protocol to it.  The
graph is small and known (two 3-cycles bridged, plus a tail node), so
every answer can be checked against ground truth — the contract under
test is that degradation changes *availability*, never *answers*.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.request

import numpy as np
import pytest

from repro.graph.digraph import Digraph
from repro.graph.storage import save_graph
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    SCCServer,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    wait_until_ready,
)
from repro.service.protocol import encode_message, decode_line


def _graph() -> Digraph:
    # SCCs: {0,1,2} -> {3,4,5} -> {6}; nothing reaches back up.
    edges = np.asarray(
        [[0, 1], [1, 2], [2, 0], [2, 3], [3, 4], [4, 5], [5, 3], [5, 6]],
        dtype=np.int64,
    )
    return Digraph(7, edges)


@pytest.fixture
def served(tmp_path):
    """A running daemon over the known graph; yields (server, port)."""
    servers = []

    def boot(**overrides) -> SCCServer:
        path = str(tmp_path / "graph.rgr")
        if not (tmp_path / "graph.rgr").exists():
            save_graph(_graph(), path)
        overrides.setdefault("query_workers", 2)
        config = ServiceConfig(graph_path=path, **overrides)
        server = SCCServer(config, registry=MetricsRegistry())
        server.start()
        servers.append(server)
        return server

    yield boot
    for server in servers:
        server.stop()


class _RawConn:
    """A connection that can pipeline frames without waiting for replies."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.stream = self.sock.makefile("rb")

    def send(self, **message) -> None:
        self.sock.sendall(encode_message(message))

    def recv(self) -> dict:
        line = self.stream.readline()
        assert line, "server closed the connection"
        return decode_line(line)

    def close(self) -> None:
        self.sock.close()


class TestServing:
    def test_answers_match_ground_truth(self, served):
        server = served()
        wait_until_ready("127.0.0.1", server.port)
        with ServiceClient("127.0.0.1", server.port) as client:
            assert client.reach(0, 6) and not client.reach(6, 0)
            assert client.reach(1, 4) and not client.reach(4, 1)
            top = client.scc(0)
            assert top["size"] == 3 and top["layer"] == 0
            assert client.toposort(6)["layer"] == 2
            members = client.members(top["scc"])
            assert sorted(members["members"]) == [0, 1, 2]
            health = client.health()
            assert health["state"] == "serving" and not health["stale"]
            assert health["num_sccs"] == 3

    def test_out_of_range_and_bad_requests_are_typed(self, served):
        server = served()
        wait_until_ready("127.0.0.1", server.port)
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.reach(0, 9999)
            assert excinfo.value.code == "out_of_range"
        raw = _RawConn(server.port)
        try:
            raw.send(id=1, op="explode")
            response = raw.recv()
            assert response["error"]["code"] == "bad_request"
        finally:
            raw.close()

    def test_unavailable_while_building(self, served):
        # slow@ tokens stretch the initial build so BUILDING is observable.
        server = served(fault_plan="seed=1;slow@0:400;slow@1:400")
        with ServiceClient("127.0.0.1", server.port) as client:
            health = client.health()
            if health["state"] == "building":  # not already done
                with pytest.raises(ServiceError) as excinfo:
                    client.reach(0, 1)
                assert excinfo.value.code == "unavailable"
        wait_until_ready("127.0.0.1", server.port)

    def test_config_rejects_inverted_watermarks(self, tmp_path):
        with pytest.raises(ValueError, match="high_water"):
            SCCServer(
                ServiceConfig(
                    graph_path=str(tmp_path / "g.rgr"),
                    queue_max=4,
                    high_water=5,
                )
            )


class TestSockets:
    def test_both_ends_disable_nagle(self, served):
        # Nagle plus delayed ACK would hold each response ~8 ms.
        server = served()
        wait_until_ready("127.0.0.1", server.port)
        with ServiceClient("127.0.0.1", server.port) as client:
            client.health()  # the daemon has accepted this connection
            with server._conns_lock:
                accepted = list(server._conns)
            assert accepted
            for sock in [client._sock] + accepted:
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestDeadlines:
    def test_deadline_exceeded_during_execution(self, served):
        server = served()
        wait_until_ready("127.0.0.1", server.port)
        raw = _RawConn(server.port)
        try:
            started = time.monotonic()
            raw.send(id=1, op="sleep", ms=5000, deadline_ms=100)
            response = raw.recv()
            elapsed = time.monotonic() - started
            assert response["error"]["code"] == "deadline_exceeded"
            assert elapsed < 3.0  # cancelled, not slept to completion
        finally:
            raw.close()

    def test_deadline_expires_while_queued(self, served):
        server = served(query_workers=1)
        wait_until_ready("127.0.0.1", server.port)
        busy, queued = _RawConn(server.port), _RawConn(server.port)
        try:
            busy.send(id=1, op="sleep", ms=600, deadline_ms=5000)
            time.sleep(0.15)  # the only worker is now asleep
            queued.send(id=2, op="sleep", ms=1, deadline_ms=100)
            response = queued.recv()
            assert response["error"]["code"] == "deadline_exceeded"
            assert "queued" in response["error"]["message"]
            assert busy.recv()["ok"]
        finally:
            busy.close()
            queued.close()


class TestShedding:
    def test_sheds_past_high_water(self, served):
        server = served(query_workers=1, queue_max=4, high_water=1)
        wait_until_ready("127.0.0.1", server.port)
        busy, filler, refused = (
            _RawConn(server.port),
            _RawConn(server.port),
            _RawConn(server.port),
        )
        try:
            busy.send(id=1, op="sleep", ms=600, deadline_ms=5000)
            time.sleep(0.15)  # worker busy, queue empty
            filler.send(id=2, op="sleep", ms=1, deadline_ms=5000)
            time.sleep(0.05)  # queue depth now at high water
            refused.send(id=3, op="reach", u=0, v=1)
            response = refused.recv()
            assert response["error"]["code"] == "shed"
            assert busy.recv()["ok"] and filler.recv()["ok"]
        finally:
            for conn in (busy, filler, refused):
                conn.close()
        with ServiceClient("127.0.0.1", server.port) as client:
            assert client.stats()["shed_total"] >= 1


class TestIngestAndRebuild:
    def test_ingest_merges_swaps_and_clears_staleness(self, served):
        server = served()
        wait_until_ready("127.0.0.1", server.port)
        with ServiceClient("127.0.0.1", server.port) as client:
            assert not client.reach(6, 0)
            result = client.ingest([(6, 0)])
            assert result["accepted"] == 1
            assert result["rebuild"]["scheduled"]
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                health = client.health()
                if health["state"] == "serving" and health["generation"] == 1:
                    break
                time.sleep(0.05)
            assert health["generation"] == 1 and not health["stale"]
            assert health["pending_edges"] == 0
            assert health["num_sccs"] == 1  # 6->0 closes one giant SCC
            assert client.reach(6, 0)

    def test_stale_answers_during_rebuild_are_old_but_right(self, served):
        server = served()
        wait_until_ready("127.0.0.1", server.port)
        original = server._build_generation

        def slowed(path, generation):
            time.sleep(0.5)
            return original(path, generation)

        server._build_generation = slowed
        with ServiceClient("127.0.0.1", server.port) as client:
            client.ingest([(6, 0)])
            health = client.health()
            assert health["state"] == "degraded_stale"
            response = client.request("reach", u=6, v=0)
            assert response["ok"] and response["stale"] is True
            # The stale answer is the *old* graph's truth, never a guess.
            assert response["result"]["reachable"] is False
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.health()["state"] == "serving":
                    break
                time.sleep(0.05)
            fresh = client.request("reach", u=6, v=0)
            assert fresh["result"]["reachable"] is True
            assert fresh["stale"] is False

    def test_ingest_rejects_out_of_range_nodes(self, served):
        server = served()
        wait_until_ready("127.0.0.1", server.port)
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.ingest([(0, 7)])
            assert excinfo.value.code == "out_of_range"
            assert client.health()["pending_edges"] == 0

    def test_admission_rejection_is_typed_and_keeps_edges(self, served):
        server = served(admission_window_blocks=1)
        wait_until_ready("127.0.0.1", server.port)
        with ServiceClient("127.0.0.1", server.port) as client:
            result = client.ingest([(6, 0)])
            assert result["rebuild"]["scheduled"] is False
            assert result["rebuild"]["error"] == "admission_rejected"
            # The edges are durably buffered even when the rebuild is not.
            assert client.health()["pending_edges"] == 1
            with pytest.raises(ServiceError) as excinfo:
                client.rebuild()
            assert excinfo.value.code == "admission_rejected"
            assert "retry_after_s" in str(excinfo.value)
            assert client.stats()["admission"]["rejected_total"] >= 2


class TestReadOnly:
    def test_failed_rebuild_degrades_to_read_only_then_recovers(self, served):
        server = served(auto_rebuild=False)
        wait_until_ready("127.0.0.1", server.port)
        with ServiceClient("127.0.0.1", server.port) as client:
            client.ingest([(6, 0)])
            server.config.rebuild_time_limit = 1e-9  # doom the next build
            client.rebuild()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                health = client.health()
                if health["state"] == "read_only":
                    break
                time.sleep(0.05)
            assert health["state"] == "read_only"
            assert "failed" in (health["last_error"] or "")
            assert health["stale"] is True
            # Still answering — from the last good snapshot.
            assert client.reach(0, 6) and not client.reach(6, 0)
            with pytest.raises(ServiceError) as excinfo:
                client.ingest([(1, 0)])
            assert excinfo.value.code == "read_only"
            # Recovery: a successful rebuild releases the ratchet.
            server.config.rebuild_time_limit = None
            client.rebuild()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                health = client.health()
                if health["state"] == "serving":
                    break
                time.sleep(0.05)
            assert health["state"] == "serving"
            assert client.reach(6, 0)  # the buffered edge made it in
            assert client.ingest([])["accepted"] == 0


class TestRestart:
    def test_restart_fast_path_preserves_fingerprint(self, served):
        first = served()
        before = wait_until_ready("127.0.0.1", first.port)
        first.stop()
        second = served()
        after = wait_until_ready("127.0.0.1", second.port)
        assert after["fingerprint"] == before["fingerprint"]
        assert after["generation"] == before["generation"]
        assert after["state"] == "serving"

    def test_restart_resumes_interrupted_rebuild(self, served):
        first = served(auto_rebuild=False)
        wait_until_ready("127.0.0.1", first.port)
        with ServiceClient("127.0.0.1", first.port) as client:
            client.ingest([(6, 0)])
            first.config.rebuild_time_limit = 1e-9
            client.rebuild()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.health()["state"] == "read_only":
                    break
                time.sleep(0.05)
        first.stop()
        # The manifest still records the in-flight generation; a fresh
        # process serves stale immediately and resumes the build.
        second = served(auto_rebuild=False)
        health = wait_until_ready("127.0.0.1", second.port)
        deadline = time.monotonic() + 30
        with ServiceClient("127.0.0.1", second.port) as client:
            while time.monotonic() < deadline:
                health = client.health()
                if health["state"] == "serving" and health["generation"] == 1:
                    break
                time.sleep(0.05)
            assert health["generation"] == 1
            assert client.reach(6, 0)


class TestObservability:
    def test_health_and_readiness_endpoints(self, served):
        from repro.obs.sampler import PrometheusEndpoint

        server = served()
        wait_until_ready("127.0.0.1", server.port)
        with PrometheusEndpoint(
            server.registry, port=0, health=server.health_payload
        ) as endpoint:
            base = f"http://{endpoint.host}:{endpoint.port}"
            healthz = json.loads(urllib.request.urlopen(base + "/healthz").read())
            assert healthz["state"] == "serving" and healthz["ready"]
            assert urllib.request.urlopen(base + "/readyz").status == 200
            text = urllib.request.urlopen(base + "/metrics").read().decode()
            for series in (
                "repro_service_state",
                "repro_service_queue_depth",
                "repro_service_stale",
                "repro_service_requests_total",
            ):
                assert series in text
