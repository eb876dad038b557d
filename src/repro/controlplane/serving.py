"""The mode-agnostic shard server: one full Figure 3 session per call.

Thread-mode and process-mode workers serve every ticket through one
:class:`ShardServer` per shard, and the server is a thin caller of the
shard organization's :meth:`~repro.framework.orchestrator.WatchITDeployment.handle`
/ :meth:`~repro.framework.orchestrator.WatchITDeployment.resolve` — the
same session lifecycle the serial orchestrator and the ``repro.api``
facade run. The shard's org leases its containers from the shard's
warm pool instead of deploying them, which is the only difference. The
executor owns queues, futures, and lifecycle; this module owns the
plane's metrics and the write of each session's trail.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Protocol, cast

from repro.api import TicketResult, session_record
from repro.broker import BrokerClient
from repro.containit.container import AdminShell
from repro.controlplane._types import MetricScope
from repro.controlplane.pool import PooledDeployment
from repro.controlplane.sharding import KernelShard
from repro.errors import ReproError
from repro.framework.orchestrator import HandledSession, describe_error
from repro.store.protocol import SessionTrail

__all__ = ["ShardServer", "LATENCY_BUCKETS", "TrailWriter",
           "default_session_ops"]


def default_session_ops(shell: AdminShell, client: BrokerClient) -> None:
    """The minimal universally-valid session: one syscall, one escalation.

    Valid for every ticket class including the fully-isolated T-11
    catch-all, which has no filesystem shares and no network. Module-level
    (hence picklable) by design: it is the default session body in both
    worker modes.
    """
    shell.hostname()
    client.pb("ps -a")

#: End-to-end (admission -> completion) latency buckets: finer than the
#: decade-wide defaults so the histogram supports meaningful percentile
#: reads at storm rates.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, float("inf"))


class TrailWriter(Protocol):
    """Where a shard server writes each served session's trail: the
    plane's :class:`~repro.store.EventStore` in thread mode, the result
    envelope's outbox in a worker process."""

    def put_trail(self, trail: SessionTrail) -> None:
        ...


class ShardServer:
    """Serves tickets end-to-end on one shard (thread or process worker).

    ``registry`` is the worker's metric scope: the plane-scoped registry
    in thread mode, the worker's private fold-back registry in process
    mode — the series names and labels are identical either way.

    Every served session's trail — session row, ticket row, revoked
    certificate, every audit event — goes to ``store``.
    """

    def __init__(self, shard: KernelShard, registry: MetricScope,
                 store: TrailWriter) -> None:
        self.shard = shard
        self.store = store
        self.m_latency = registry.histogram(
            "controlplane_session_seconds", shard=shard.index)
        self.m_e2e = registry.histogram(
            "controlplane_ticket_latency_seconds",
            buckets=LATENCY_BUCKETS, shard=shard.index)
        self.m_resolved = registry.counter(
            "controlplane_tickets_served", shard=shard.index,
            outcome="resolved")
        self.m_errored = registry.counter(
            "controlplane_tickets_served", shard=shard.index,
            outcome="errored")
        self.m_store_errors = registry.counter(
            "controlplane_store_errors_total")

    def serve(self, reporter: str, text: str, machine: str, admin: str,
              ops: Optional[Callable[[AdminShell, BrokerClient], None]],
              enqueued_at: Optional[float] = None,
              session_id: Optional[str] = None, org_name: str = "default",
              boot: int = 0) -> TicketResult:
        """One full Figure 3 session on a pooled container.

        A :class:`~repro.errors.ReproError` from the session becomes the
        result's ``error``; any other exception propagates once the
        session is resolved. ``enqueued_at`` (the producer's per-ticket
        admission clock read) turns into ``latency_s`` — meaningful
        in-process; process mode overwrites it parent-side so the
        measurement never mixes clocks across processes.
        """
        org = self.shard.org
        started = time.perf_counter()
        ticket = org.submit_ticket(reporter, text, machine=machine)
        if session_id is None:
            # direct serve() callers (no plane minting boot-scoped ids)
            # still get a per-run-unique key: org ticket ids are monotonic
            session_id = (f"{org_name}-shard{self.shard.index}"
                          f"-t{ticket.ticket_id}")
        handled: Optional[HandledSession] = None
        error: Optional[str] = None
        try:
            handled = org.handle(ticket, admin)
            (ops or default_session_ops)(handled.shell, handled.client)
        except BaseException as exc:
            error = describe_error(exc)
            if not isinstance(exc, ReproError):
                raise
        finally:
            # handle() resolves a session it failed to open by itself
            if handled is not None:
                org.resolve(handled, error=error)
        pool_hit = None
        if handled is not None:
            # the shard's org leases from the shard's pool
            pool_hit = cast(PooledDeployment, handled.deployment).pool_hit
        result, trail = session_record(
            ticket, admin, handled, session_id=session_id, org=org_name,
            boot=boot, error=error, started=started, enqueued_at=enqueued_at,
            shard=self.shard.index, pool_hit=pool_hit)
        (self.m_resolved if error is None else self.m_errored).inc()
        self.m_latency.observe(result.duration_s)
        self.m_e2e.observe(result.latency_s)
        # a sick store must degrade forensics, never ticket serving
        try:
            self.store.put_trail(trail)
        except Exception:  # noqa: BLE001 - worker must survive
            self.m_store_errors.inc()
        return result
