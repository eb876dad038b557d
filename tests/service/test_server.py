"""The HTTP service tier: endpoints, backpressure, readiness, drain."""

import http.client
import json
import random
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.controlplane import ControlPlane
from repro.service import ServiceConfig, TicketService
from repro.service import server

MACHINES = ("ws-01", "ws-02")
USERS = ("alice", "bob")
TEXT = "matlab license expired"


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read().decode()


def _post(url, payload, headers=None):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read().decode()


def _exchange(service, method, path, body=b"", headers=None):
    """One raw ``Connection: close`` request; the full reply bytes."""
    head = {"Host": service.config.host, "Connection": "close",
            "Content-Length": str(len(body)), **(headers or {})}
    request = f"{method} {path} HTTP/1.1\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in head.items()) + "\r\n"
    with socket.create_connection((service.config.host, service.port),
                                  timeout=10) as sock:
        sock.sendall(request.encode() + body)
        return _read_to_eof(sock)


def _read_to_eof(sock):
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _handler_threads():
    return sum(thread.name.endswith("(process_request_thread)")
               for thread in threading.enumerate())


def _ticket_body(**fields):
    return json.dumps({"reporter": "alice", "text": TEXT,
                       "machine": "ws-01", **fields}).encode()


def make_service(tmp_factory=None, *, shards=1, pool_size=1, queue_depth=8,
                 workers="thread", default_ops=None, **config_kwargs):
    plane = ControlPlane(machines=MACHINES, users=USERS, shards=shards,
                         pool_size=pool_size, queue_depth=queue_depth,
                         workers=workers)
    config = ServiceConfig(port=0, **config_kwargs)
    return TicketService(plane, config, default_ops=default_ops)


@pytest.fixture(scope="module")
def service():
    svc = make_service(prewarm_classes=("T-1",))
    svc.start()
    yield svc
    svc.close()


class TestEndpoints:
    def test_healthz(self, service):
        status, _, body = _get(service.url + "/healthz")
        assert status == 200 and json.loads(body) == {"status": "ok"}

    def test_readyz_when_serving(self, service):
        status, _, body = _get(service.url + "/readyz")
        checks = json.loads(body)
        assert status == 200
        assert checks["ready"] and checks["workers_alive"]
        assert checks["pools_warm"] and not checks["draining"]

    def test_single_ticket_waited(self, service):
        status, _, body = _post(service.url + "/tickets", {
            "reporter": "alice", "text": TEXT, "machine": "ws-01",
            "wait": True})
        payload = json.loads(body)
        assert status == 200 and payload["accepted"] == 1
        result = payload["results"]
        assert result["resolved"] and result["ticket_class"] == "T-1"
        assert result["machine"] == "ws-01"

    def test_bulk_tickets_accepted(self, service):
        rows = [{"reporter": "bob", "text": TEXT, "machine": m}
                for m in MACHINES * 2]
        status, _, body = _post(service.url + "/tickets",
                                {"tickets": rows, "wait": True})
        payload = json.loads(body)
        assert status == 200
        assert payload["accepted"] == len(rows) and payload["rejected"] == 0
        assert all(r["resolved"] for r in payload["results"])

    def test_fire_and_forget_returns_202(self, service):
        status, _, body = _post(service.url + "/tickets", {
            "reporter": "alice", "text": TEXT, "machine": "ws-02"})
        assert status == 202 and json.loads(body)["accepted"] == 1
        service.plane.drain()

    def test_unknown_machine_is_400(self, service):
        status, _, body = _post(service.url + "/tickets", {
            "reporter": "alice", "text": TEXT, "machine": "ws-99"})
        assert status == 400
        assert "ws-01" in json.loads(body)["machines"]

    def test_malformed_json_is_400(self, service):
        request = urllib.request.Request(
            service.url + "/tickets", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_bad_content_length_is_400_without_reading(self, service,
                                                        length):
        host = service.config.host
        with socket.create_connection((host, service.port),
                                      timeout=10) as sock:
            sock.sendall((f"POST /tickets HTTP/1.1\r\nHost: {host}\r\n"
                          "Content-Type: application/json\r\n"
                          f"Content-Length: {length}\r\n\r\n").encode())
            # no body follows and the socket stays open: a handler that
            # tried to read one would never answer
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")

    def test_unknown_route_is_404(self, service):
        assert _get(service.url + "/nope")[0] == 404
        assert _post(service.url + "/nope", {})[0] == 404

    def test_metrics_exposition(self, service):
        # the shared registry is reset between tests; generate traffic
        # in-test so the scrape has something to expose
        assert _get(service.url + "/healthz")[0] == 200
        assert _post(service.url + "/tickets", {
            "reporter": "alice", "text": TEXT, "machine": "ws-01",
            "wait": True})[0] == 200
        status, headers, body = _get(service.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "# TYPE service_http_requests_total counter" in body
        assert "service_tickets_accepted_total" in body
        # control-plane series carry this plane's scope label
        assert f'plane="{service.plane.plane_id}"' in body

    def test_metrics_prefix_filter(self, service):
        assert _get(service.url + "/healthz")[0] == 200
        _, _, body = _get(service.url + "/metrics?prefix=service_")
        assert body and all(
            line.startswith(("service_", "# TYPE service_"))
            for line in body.splitlines())


class TestAdmissionOverHTTP:
    def test_rate_limit_maps_to_429_with_retry_after(self):
        svc = make_service(rate_limit=0.001, burst=1).start()
        try:
            ok = _post(svc.url + "/tickets", {
                "reporter": "alice", "text": TEXT, "machine": "ws-01",
                "wait": True})
            assert ok[0] == 200
            status, headers, body = _post(svc.url + "/tickets", {
                "reporter": "alice", "text": TEXT, "machine": "ws-01"})
            payload = json.loads(body)
            assert status == 429 and payload["reason"] == "rate_limit"
            assert int(headers["Retry-After"]) >= 1
            # the rejection is visible in the exposition
            _, _, metrics = _get(svc.url + "/metrics")
            assert 'service_tickets_rejected_total{' in metrics
            assert 'reason="rate_limit"' in metrics
        finally:
            svc.close()

    def test_orgs_are_limited_independently(self):
        svc = make_service(rate_limit=0.001, burst=1).start()
        try:
            first = _post(svc.url + "/tickets",
                          {"reporter": "alice", "text": TEXT,
                           "machine": "ws-01", "wait": True},
                          headers={"X-Org": "acme"})
            assert first[0] == 200
            limited = _post(svc.url + "/tickets",
                            {"reporter": "alice", "text": TEXT,
                             "machine": "ws-01"},
                            headers={"X-Org": "acme"})
            assert limited[0] == 429
            other = _post(svc.url + "/tickets",
                          {"reporter": "bob", "text": TEXT,
                           "machine": "ws-01", "wait": True},
                          headers={"X-Org": "globex"})
            assert other[0] == 200
        finally:
            svc.close()

    def test_queue_full_maps_to_429_backpressure(self):
        occupied = threading.Event()
        release = threading.Event()

        def slow_ops(shell, client):
            occupied.set()
            release.wait(timeout=30)

        svc = make_service(queue_depth=1, default_ops=slow_ops).start()
        try:
            assert _post(svc.url + "/tickets", {
                "reporter": "alice", "text": TEXT,
                "machine": "ws-01"})[0] == 202
            assert occupied.wait(timeout=30)  # worker is pinned in ops
            assert _post(svc.url + "/tickets", {
                "reporter": "bob", "text": TEXT,
                "machine": "ws-01"})[0] == 202  # fills the depth-1 queue
            status, headers, body = _post(svc.url + "/tickets", {
                "reporter": "bob", "text": TEXT, "machine": "ws-01"})
            payload = json.loads(body)
            assert status == 429 and payload["reason"] == "backpressure"
            assert int(headers["Retry-After"]) >= 1
            _, _, metrics = _get(svc.url + "/metrics")
            assert 'reason="backpressure"' in metrics
            assert "controlplane_rejected_total" in metrics
        finally:
            release.set()
            svc.close()

    def test_inflight_ceiling_maps_to_429(self):
        release = threading.Event()

        def slow_ops(shell, client):
            release.wait(timeout=30)

        svc = make_service(max_inflight=1, default_ops=slow_ops).start()
        try:
            assert _post(svc.url + "/tickets", {
                "reporter": "alice", "text": TEXT,
                "machine": "ws-01"})[0] == 202
            status, _, body = _post(svc.url + "/tickets", {
                "reporter": "bob", "text": TEXT, "machine": "ws-01"})
            assert status == 429
            assert json.loads(body)["reason"] == "inflight"
        finally:
            release.set()
            svc.close()

    def test_inflight_slots_return_after_completion(self):
        svc = make_service(max_inflight=2).start()
        try:
            for _ in range(3):  # would exceed the ceiling if slots leaked
                status, _, _ = _post(svc.url + "/tickets", {
                    "reporter": "alice", "text": TEXT,
                    "machine": "ws-01", "wait": True})
                assert status == 200
            assert svc.admission.inflight == 0
        finally:
            svc.close()


class TestLifecycle:
    def test_draining_service_rejects_with_503(self):
        svc = make_service().start()
        try:
            svc._draining = True
            status, headers, _ = _post(svc.url + "/tickets", {
                "reporter": "alice", "text": TEXT, "machine": "ws-01"})
            assert status == 503 and "Retry-After" in headers
            ready_status, _, body = _get(svc.url + "/readyz")
            assert ready_status == 503
            assert json.loads(body)["draining"]
            # liveness is unaffected by the drain
            assert _get(svc.url + "/healthz")[0] == 200
        finally:
            svc._draining = False
            svc.close()

    def test_graceful_drain_completes_accepted_tickets(self):
        svc = make_service().start()
        rows = [{"reporter": "alice", "text": TEXT, "machine": m}
                for m in MACHINES * 3]
        status, _, _ = _post(svc.url + "/tickets", {"tickets": rows})
        assert status == 202
        svc.close(drain=True)
        stats = svc.plane.stats()
        assert stats["completed"] == stats["submitted"] == len(rows)

    def test_three_start_drain_shutdown_cycles_leave_nothing_hung(self):
        for _ in range(3):
            svc = make_service(shards=2, prewarm_classes=("T-1",)).start()
            rows = [{"reporter": "bob", "text": TEXT, "machine": m}
                    for m in MACHINES * 4]
            status, _, body = _post(svc.url + "/tickets",
                                    {"tickets": rows, "wait": True})
            payload = json.loads(body)
            assert status == 200 and payload["accepted"] == len(rows)
            assert all(r["resolved"] for r in payload["results"])
            svc.close(drain=True)
            stats = svc.plane.stats()
            assert stats["completed"] == stats["submitted"]
            assert stats["inflight"] == 0

    def test_close_is_idempotent_and_context_manager_works(self):
        with make_service() as svc:
            url = svc.url
            assert _get(url + "/healthz")[0] == 200
        svc.close()  # second close is a no-op
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/healthz", timeout=2)


class TestProcessWorkerService:
    """The service tier over process-mode workers: same endpoints, and a
    crashed worker flips /readyz to 503 while /healthz stays live."""

    def test_tickets_served_over_process_workers(self):
        svc = make_service(shards=2, workers="process",
                           prewarm_classes=("T-1",)).start()
        try:
            status, _, body = _post(svc.url + "/tickets", {
                "reporter": "alice", "text": TEXT, "machine": "ws-01",
                "wait": True})
            payload = json.loads(body)
            assert status == 200 and payload["results"]["resolved"]
            ready_status, _, ready_body = _get(svc.url + "/readyz")
            checks = json.loads(ready_body)
            assert ready_status == 200
            assert checks["workers"] == "process"
            assert checks["crashed_shards"] == []
        finally:
            svc.close()

    def test_worker_crash_flips_readyz_unready(self):
        import os
        import signal
        import time

        svc = make_service(shards=2, workers="process",
                           prewarm_classes=("T-1",)).start()
        try:
            assert _get(svc.url + "/readyz")[0] == 200
            pids = svc.plane.worker_pids()
            victim = min(pids)
            os.kill(pids[victim], signal.SIGKILL)
            deadline = time.monotonic() + 10
            while not svc.plane.crashed_shards():
                assert time.monotonic() < deadline, "crash never detected"
                time.sleep(0.02)
            status, _, body = _get(svc.url + "/readyz")
            checks = json.loads(body)
            assert status == 503
            assert not checks["workers_alive"]
            assert checks["crashed_shards"] == [victim]
            # liveness is about the listener, not the fleet
            assert _get(svc.url + "/healthz")[0] == 200
        finally:
            svc.close()


class TestWireSchemaOverHTTP:
    """The versioned wire format at the HTTP boundary."""

    def test_responses_are_schema_stamped(self, service):
        status, _, body = _post(service.url + "/tickets", {
            "reporter": "alice", "text": TEXT, "machine": "ws-01",
            "wait": True})
        assert status == 200
        assert json.loads(body)["schema"] == "watchit-ticket/v1"

    def test_v1_request_shape_is_accepted(self, service):
        status, _, body = _post(service.url + "/tickets", {
            "schema": "watchit-ticket/v1",
            "tickets": [{"reporter": "alice", "text": TEXT,
                         "machine": "ws-01"}],
            "wait": True})
        payload = json.loads(body)
        assert status == 200 and payload["accepted"] == 1
        assert payload["results"][0]["resolved"]

    def test_unknown_schema_version_is_400(self, service):
        status, _, body = _post(service.url + "/tickets", {
            "schema": "watchit-ticket/v2",
            "tickets": [{"reporter": "alice", "text": TEXT,
                         "machine": "ws-01"}]})
        payload = json.loads(body)
        assert status == 400
        assert "watchit-ticket/v1" in payload["error"]


class TestSessionsOverHTTP:
    """GET /sessions and /sessions/<id> read the plane's event store."""

    def _served_session_id(self, service, org=None):
        headers = {"X-Org": org} if org else None
        _, _, body = _post(service.url + "/tickets", {
            "reporter": "alice", "text": TEXT, "machine": "ws-01",
            "wait": True}, headers=headers)
        return json.loads(body)["results"]["session_id"]

    def test_sessions_listing_contains_served_sessions(self, service):
        session_id = self._served_session_id(service)
        status, _, body = _get(service.url + "/sessions?limit=100")
        payload = json.loads(body)
        assert status == 200
        assert session_id in [s["session_id"]
                              for s in payload["sessions"]]

    def test_session_trail_replays_with_verified_chains(self, service):
        session_id = self._served_session_id(service)
        status, _, body = _get(service.url + "/sessions/" + session_id)
        payload = json.loads(body)
        assert status == 200
        assert payload["chain_verified"] is True
        assert payload["session"]["session_id"] == session_id
        assert payload["ticket"]["text"] == TEXT
        assert payload["certificates"][0]["revoked"] is True

    def test_unknown_session_is_404(self, service):
        assert _get(service.url + "/sessions/nope-b1-0")[0] == 404

    def test_bad_limit_is_400(self, service):
        assert _get(service.url + "/sessions?limit=ten")[0] == 400

    def test_x_org_header_labels_the_persisted_session(self, service):
        session_id = self._served_session_id(service, org="tenant-7")
        status, _, body = _get(service.url + "/sessions?org=tenant-7")
        payload = json.loads(body)
        assert status == 200
        rows = payload["sessions"]
        assert session_id in [s["session_id"] for s in rows]
        assert all(s["org"] == "tenant-7" for s in rows)


class TestFinalMetricsSnapshot:
    """Regression: a gracefully drained service left no record of what
    it served — close() now persists the last snapshot to bench_runs."""

    def test_graceful_drain_persists_final_metrics(self):
        svc = make_service().start()
        status, _, _ = _post(svc.url + "/tickets", {
            "reporter": "alice", "text": TEXT, "machine": "ws-01",
            "wait": True})
        assert status == 200
        svc.close(drain=True)
        runs = svc.plane.store.bench_runs(name="service-final-metrics")
        assert len(runs) == 1
        assert runs[0].metrics["completed"] >= 1
        assert runs[0].metrics["submitted"] == runs[0].metrics["completed"]
        assert "metrics_snapshot" in runs[0].artifacts


class _CountingWriter:
    """A handler's ``wfile`` that logs the size of every write."""

    def __init__(self, inner, log):
        self._inner, self._log = inner, log

    def write(self, data):
        self._log.append(len(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture()
def writes(monkeypatch):
    """Sizes of every socket write any handler makes, in order."""
    log = []
    setup = server._Handler.setup

    def counting_setup(handler):
        setup(handler)
        handler.wfile = _CountingWriter(handler.wfile, log)

    monkeypatch.setattr(server._Handler, "setup", counting_setup)
    return log


class TestOneWritePerResponse:
    """Regression: headers and body went out in two writes, so Nagle held
    every body for the client's delayed ACK (a ~40 ms floor a request)."""

    def test_every_status_is_a_single_write(self, writes):
        svc = make_service(rate_limit=0.001, burst=1).start()
        too_long = str(server.MAX_BODY_BYTES + 1)
        cases = [
            (200, "GET", "/healthz", b"", None),
            (200, "GET", "/metrics", b"", None),
            (404, "GET", "/nope", b"", None),
            (400, "POST", "/tickets", _ticket_body(machine="ws-99"), None),
            (202, "POST", "/tickets", _ticket_body(), None),
            (429, "POST", "/tickets", _ticket_body(), None),
            (413, "POST", "/tickets", b"", {"Content-Length": too_long}),
            (501, "PUT", "/tickets", b"", None),
        ]
        try:
            for status, method, path, body, headers in cases:
                before = len(writes)
                reply = _exchange(svc, method, path, body, headers)
                assert reply.startswith(f"HTTP/1.1 {status} ".encode())
                assert writes[before:] == [len(reply)], (status, path)
            svc._draining = True
            before = len(writes)
            reply = _exchange(svc, "POST", "/tickets", _ticket_body())
            assert reply.startswith(b"HTTP/1.1 503 ")
            assert writes[before:] == [len(reply)]
        finally:
            svc._draining = False
            svc.close()

    def test_keepalive_round_trip_is_under_the_delayed_ack_floor(self,
                                                                 service):
        conn = http.client.HTTPConnection(service.config.host, service.port,
                                          timeout=30)
        body = _ticket_body(wait=True)
        round_trips = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                conn.request("POST", "/tickets", body,
                             {"Content-Type": "application/json"})
                resp = conn.getresponse()
                resp.read()
                round_trips.append(time.perf_counter() - start)
                assert resp.status == 200
        finally:
            conn.close()
        assert statistics.median(round_trips) < 0.020, round_trips


class TestBoundedPathLabel:
    ALLOWED = {"/tickets", "/healthz", "/readyz", "/metrics", "/statz",
               "/sessions", "/sessions/{id}", "other"}

    def _series(self, service):
        return service.plane.metrics.series("service_http_requests_total")

    def test_random_paths_leave_the_series_count_fixed(self, service):
        rng = random.Random(13)

        def junk_burst():
            for _ in range(10):
                junk = "".join(rng.choice("abcdefgh0123456789")
                               for _ in range(12))
                assert _get(f"{service.url}/{junk}")[0] == 404
                assert _get(f"{service.url}/sessions/{junk}")[0] == 404
                assert _post(f"{service.url}/{junk}", {})[0] == 404
            return len(self._series(service))

        first = junk_burst()
        assert junk_burst() == first
        paths = {dict(s.labels)["path"] for s in self._series(service)}
        assert paths <= self.ALLOWED
        assert {"other", "/sessions/{id}"} <= paths


class TestHostileConnections:
    """A body too large, or one that never arrives, and an idle
    keep-alive connection all end with the handler thread free."""

    def test_oversize_body_is_413_without_reading(self, service):
        host = service.config.host
        with socket.create_connection((host, service.port),
                                      timeout=10) as sock:
            sock.sendall((f"POST /tickets HTTP/1.1\r\nHost: {host}\r\n"
                          f"Content-Length: {server.MAX_BODY_BYTES + 1}"
                          "\r\n\r\n").encode())
            # no body follows: the answer must not wait for one, and the
            # connection closes behind it
            reply = _read_to_eof(sock)
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in reply
        payload = json.loads(reply.split(b"\r\n\r\n", 1)[1])
        assert payload["max_bytes"] == server.MAX_BODY_BYTES

    def test_answer_before_the_body_closes_the_connection(self, service):
        conn = http.client.HTTPConnection(service.config.host, service.port,
                                          timeout=10)
        try:
            conn.request("POST", "/nope", _ticket_body())
            resp = conn.getresponse()
            resp.read()
            # the unread body must not be parsed as the next request
            assert resp.status == 404 and resp.will_close
        finally:
            conn.close()

    def test_stalled_body_and_idle_connection_time_out(self, monkeypatch):
        monkeypatch.setattr(server._Handler, "timeout", 0.3)
        svc = make_service().start()
        baseline = _handler_threads()
        host = svc.config.host
        try:
            with socket.create_connection((host, svc.port),
                                          timeout=10) as stalled, \
                    socket.create_connection((host, svc.port),
                                             timeout=10) as idle:
                stalled.sendall((f"POST /tickets HTTP/1.1\r\nHost: {host}"
                                 "\r\nContent-Length: 100\r\n\r\n{\"rep")
                                .encode())
                reply = _read_to_eof(stalled)
                assert reply.startswith(b"HTTP/1.1 408 ")
                assert b"Connection: close" in reply
                assert _read_to_eof(idle) == b""
            deadline = time.monotonic() + 10
            while _handler_threads() > baseline:
                assert time.monotonic() < deadline, "handler threads leaked"
                time.sleep(0.02)
            # the listener still serves after both gave up
            assert _get(svc.url + "/healthz")[0] == 200
        finally:
            svc.close()
