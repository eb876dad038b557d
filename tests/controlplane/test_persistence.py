"""Plane-level durability: every served ticket leaves a full trail in
the event store — thread and process workers alike."""

import pytest

from repro.controlplane import ControlPlane
from repro.errors import IntegrityError
from repro.store import MemoryStore, SQLiteStore, verify_trail

MACHINES = ("ws-01", "ws-02", "ws-03", "ws-04")
USERS = ("alice", "bob")
ADMIN = "it-bob"
TEXT = "matlab license expired"


def make_plane(**kwargs):
    kwargs.setdefault("machines", MACHINES)
    kwargs.setdefault("users", USERS)
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("pool_size", 1)
    plane = ControlPlane(**kwargs).start()
    plane.register_admin(ADMIN)
    return plane


def _self_terminating_ops(shell, client):
    """A session whose container dies partway (a watchdog, say)."""
    shell.read_file("/home/alice/matlab/license.lic")
    client.pb("ps -a")
    shell.container.terminate("watchdog")
    shell.hostname()  # the dead container refuses the rest


class _ExplodingStore(MemoryStore):
    """A store whose writes always fail — serving must shrug it off."""

    def put_trail(self, trail):
        raise RuntimeError("disk on fire")


class TestThreadModePersistence:
    def test_every_result_has_a_persisted_trail(self, tmp_path):
        store = SQLiteStore(tmp_path / "plane.db")
        plane = make_plane(store=store, org="acme")
        try:
            futures = plane.submit_many(
                [("alice", TEXT, m) for m in MACHINES], ADMIN)
            results = [f.result(timeout=30) for f in futures]
            for result in results:
                assert result.session_id is not None
                trail = store.get_trail(result.session_id)
                assert trail is not None
                assert trail.session.org == "acme"
                assert trail.session.boot == plane.boot
                assert trail.session.resolved
                assert trail.ticket is not None
                assert trail.ticket.status == "RESOLVED"
                assert trail.ticket.text == TEXT
                assert all(c.revoked for c in trail.certificates)
                verify_trail(trail)
        finally:
            plane.close()
            store.close()

    def test_session_ids_embed_org_and_boot(self):
        plane = make_plane(org="acme")
        try:
            result = plane.submit("alice", TEXT, "ws-01",
                                  ADMIN).result(timeout=30)
            assert result.session_id.startswith(f"acme-b{plane.boot}-")
        finally:
            plane.close()

    def test_default_plane_persists_into_memory_store(self):
        plane = make_plane()
        try:
            plane.submit("alice", TEXT, "ws-01", ADMIN).result(timeout=30)
            assert isinstance(plane.store, MemoryStore)
            assert plane.store.counts()["sessions"] == 1
        finally:
            plane.close()

    def test_errored_session_is_persisted_unresolved(self):
        def exploding_ops(shell, client):
            raise IntegrityError("session aborted mid-ops")

        plane = make_plane(shards=1)
        try:
            result = plane.submit("alice", TEXT, "ws-01", ADMIN,
                                  ops=exploding_ops).result(timeout=30)
            trail = plane.store.get_trail(result.session_id)
            assert trail is not None
            assert not trail.session.resolved
            assert "IntegrityError" in trail.session.error
            assert trail.ticket.status != "RESOLVED"
        finally:
            plane.close()

    def test_terminated_mid_lease_session_keeps_its_trail(self):
        plane = make_plane(shards=1)
        try:
            result = plane.submit("alice", TEXT, "ws-01", ADMIN,
                                  ops=_self_terminating_ops).result(timeout=30)
            assert not result.resolved
            assert "SessionTerminated" in (result.error or "")
            trail = plane.store.get_trail(result.session_id)
            # the records written before the container died were captured,
            # though the pool discarded the container instead of rotating
            assert ("fs", "read", "/home/alice/matlab/license.lic") in \
                [(e.stream, e.op, e.path) for e in trail.events]
            assert ("broker", "pb-exec") in \
                [(e.stream, e.op) for e in trail.events]
            verify_trail(trail)
            assert len(trail.events) == result.audit_records
            assert plane.metrics.total("controlplane_pool_releases",
                                       outcome="discarded") == 1
        finally:
            plane.close()

    def test_store_failure_degrades_forensics_not_serving(self):
        plane = make_plane(shards=1, store=_ExplodingStore())
        try:
            result = plane.submit("alice", TEXT, "ws-01",
                                  ADMIN).result(timeout=30)
            assert result.resolved  # the ticket was still served
            assert plane.metrics.total(
                "controlplane_store_errors_total") == 1
        finally:
            plane.close()

    def test_per_org_submission_overrides_the_plane_org(self):
        plane = make_plane(org="acme")
        try:
            result = plane.submit("alice", TEXT, "ws-01", ADMIN,
                                  org="beta").result(timeout=30)
            trail = plane.store.get_trail(result.session_id)
            assert trail.session.org == "beta"
            assert [s.org for s in plane.store.sessions(org="beta")] \
                == ["beta"]
        finally:
            plane.close()


class TestProcessModePersistence:
    def test_trails_ride_envelopes_and_land_in_the_parent_store(
            self, tmp_path):
        store = SQLiteStore(tmp_path / "proc.db")
        plane = make_plane(workers="process", store=store, org="acme")
        try:
            futures = plane.submit_many(
                [("alice", TEXT, m) for m in MACHINES * 2], ADMIN)
            results = [f.result(timeout=60) for f in futures]
            plane.drain()
            for result in results:
                trail = store.get_trail(result.session_id)
                assert trail is not None
                # boot and latency are re-stamped parent-side
                assert trail.session.boot == plane.boot
                assert trail.session.latency_s == result.latency_s
                verify_trail(trail)
            assert store.counts()["sessions"] == len(results)
        finally:
            plane.close()
            store.close()


class TestBootEpochs:
    def test_restarted_plane_never_collides_with_prior_sessions(
            self, tmp_path):
        path = tmp_path / "epochs.db"
        store = SQLiteStore(path)
        first = make_plane(store=store, org="acme")
        first.submit("alice", TEXT, "ws-01", ADMIN).result(timeout=30)
        boot_a = first.boot
        first.close()

        second = make_plane(store=store, org="acme")
        try:
            second.submit("alice", TEXT, "ws-01", ADMIN).result(timeout=30)
            assert second.boot > boot_a
            boots = {s.boot for s in store.sessions()}
            assert boots == {boot_a, second.boot}
            assert store.counts()["sessions"] == 2
        finally:
            second.close()
            store.close()


class TestGracefulCloseFlushes:
    def test_close_checkpoints_the_database(self, tmp_path):
        path = tmp_path / "flushed.db"
        store = SQLiteStore(path)
        plane = make_plane(store=store)
        plane.submit("alice", TEXT, "ws-01", ADMIN).result(timeout=30)
        plane.close()  # plane close flushes the store (keeps it open)
        reader = SQLiteStore(path)
        try:
            assert reader.counts()["sessions"] == 1
        finally:
            reader.close()
        store.close()
