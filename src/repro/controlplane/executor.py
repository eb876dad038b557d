"""The bounded ticket-serving executor over the shard fleet.

:class:`ControlPlane` is the front door of the concurrent control plane:
``submit`` routes a ticket to the shard owning its workstation and
enqueues it on that shard's bounded queue (a full queue blocks the
producer — per-shard backpressure), one worker per shard drives the full
Figure 3 session (classify → lease a pooled container → login → session
ops → resolve → scrubbed release), and ``drain`` waits until every
accepted ticket has completed.

One worker per shard is deliberate: a simulated organization is not
internally thread-safe, so the parallelism axis is the *number of
shards*, and within a shard everything stays single-threaded — the same
reasoning real control planes use when they partition state instead of
locking it.

Workers come in two modes (``workers=`` at construction):

* ``"thread"`` — one worker thread per shard in this process. Cheap to
  start, shares the classifier memo, but LDA fold-in and ITFS signature
  checks are pure-Python CPU work, so true parallelism is capped by the
  GIL at ~1 core.
* ``"process"`` — one worker *process* per shard. Per-shard state is
  fully partitioned by CRC-32 hostname routing, so each worker
  bootstraps its own organization from a pickled
  :class:`~repro.controlplane.sharding.ShardPlan` and the only traffic
  across the boundary is the envelope protocol of
  :mod:`repro.controlplane.channel`. CPU-bound serving scales with
  cores. A worker that dies mid-ticket is detected by a monitor; every
  stranded future fails fast with :class:`~repro.errors.WorkerCrashed`
  (never hangs), the plane stays drainable, and ``workers_alive`` flips
  false so ``/readyz`` goes unready.

Everything is observable through :mod:`repro.obs`:
``controlplane_queue_depth`` (gauge, per shard),
``controlplane_session_seconds`` / ``controlplane_ticket_latency_seconds``
(histograms, per shard), ``controlplane_pool_acquires`` /
``controlplane_pool_releases`` (counters; hit rate),
``controlplane_tickets_served`` (counter, per shard and outcome), and
``controlplane_worker_crashes_total``. Process-mode workers accumulate
into a private registry and fold back into the plane scope — per ticket
for outcome/latency series, at exit for everything else.
"""

from __future__ import annotations

import dataclasses
import itertools
import queue
import sys
import threading
import time
from concurrent.futures import Future
from multiprocessing.process import BaseProcess
from multiprocessing.queues import Queue as MpQueue
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.api import TicketResult
from repro.broker.policy import BrokerPolicy
from repro.controlplane._types import ClassifierLike
from repro.controlplane.batching import BatchingClassifier
from repro.controlplane.channel import (
    ControlReply,
    ControlRequest,
    ResultEnvelope,
    TicketEnvelope,
    WorkerExit,
    unmarshal_error,
)
from repro.controlplane.serving import (
    LATENCY_BUCKETS,
    ShardServer,
    default_session_ops,
)
from repro.controlplane.sharding import KernelShard, ShardPlan, ShardRouter
from repro.errors import (
    InvalidArgument,
    ShuttingDown,
    WorkerCrashed,
)
from repro.framework.classifier import KeywordClassifier
from repro.framework.orchestrator import DEFAULT_MACHINES, DEFAULT_USERS
from repro.framework.tickets import Role
from repro.store.memory import MemoryStore
from repro.store.protocol import EventStore, SessionTrail

__all__ = ["ControlPlane", "SessionOps", "WORKER_MODES",
           "default_session_ops"]

#: A session body: receives the admin shell and the broker client.
SessionOps = Callable[[object, object], None]

WORKER_MODES = ("thread", "process")

_SENTINEL = None

#: How long close() waits for a worker process before escalating to
#: terminate(); generous because a worker may be mid-session.
_JOIN_TIMEOUT = 60.0

#: Control-RPC ceiling: covers a cold worker bootstrapping its whole
#: simulated organization before it can answer.
_CONTROL_TIMEOUT = 300.0

#: Process-wide plane ids: every ControlPlane stamps its series with a
#: unique ``plane`` label so co-resident instances never blend metrics.
_PLANE_SEQ = itertools.count(1)


class _WorkerProc:
    """Parent-side handle for one shard worker process."""

    __slots__ = ("plan", "process", "submit_q", "result_q", "collector",
                 "crashed", "exit_seen")

    def __init__(self, plan: ShardPlan, process: BaseProcess,
                 submit_q: "MpQueue[object]",
                 result_q: "MpQueue[object]") -> None:
        self.plan = plan
        self.process = process
        self.submit_q = submit_q
        self.result_q = result_q
        self.collector: Optional[threading.Thread] = None
        self.crashed = False
        self.exit_seen = False


class ControlPlane:
    """Multi-tenant ticket-serving over N shards with pooled containers."""

    def __init__(self, machines: Sequence[str] = DEFAULT_MACHINES,
                 users: Sequence[str] = DEFAULT_USERS,
                 shards: int = 4, pool_size: int = 2,
                 queue_depth: int = 64,
                 classifier: Optional[ClassifierLike] = None,
                 broker_policy: Optional[BrokerPolicy] = None,
                 workers: str = "thread",
                 store: Optional[EventStore] = None,
                 org: str = "default") -> None:
        if queue_depth < 1:
            raise InvalidArgument(
                f"queue depth must be >= 1, got {queue_depth}")
        if workers not in WORKER_MODES:
            raise InvalidArgument(
                f"workers must be one of {WORKER_MODES}, got {workers!r}")
        #: worker mode: "thread" or "process"
        self.workers = workers
        #: durable event store; every served ticket's trail lands here.
        #: The default MemoryStore keeps pre-store semantics (history dies
        #: with the process) while making every plane uniformly queryable.
        self.store: EventStore = store if store is not None else MemoryStore()
        #: tenant label stamped on every session/ticket row
        self.org = org
        #: store boot epoch (minted in start()); part of every session id
        #: so ids never collide across restarts on the same database
        self.boot = 0
        #: unique per-instance metric scope (the ``plane`` label)
        self.plane_id = f"plane-{next(_PLANE_SEQ)}"
        self.metrics = obs.registry().scoped(plane=self.plane_id)
        self.classifier = BatchingClassifier(classifier or KeywordClassifier(),
                                             registry=self.metrics)
        #: worker-process bootstrap material (must survive pickling under
        #: a spawn start method; under fork it is simply inherited)
        self._base_classifier = classifier
        self._users = tuple(users)
        self._pool_size = pool_size
        self._queue_depth = queue_depth
        self._broker_policy = broker_policy
        self.router = ShardRouter(machines, shards, users=users,
                                  pool_capacity=pool_size,
                                  classifier=self.classifier,
                                  broker_policy=broker_policy,
                                  registry=self.metrics,
                                  build=(workers == "thread"))
        self._started = False
        self._closed = False
        self._lock = threading.Lock()
        #: admissions between the closed-check and the enqueue; close()
        #: waits for this to reach zero before it may send the shutdown
        #: sentinel, so no ticket is ever enqueued *behind* the sentinel
        self._admitting = 0
        self._quiesced = threading.Condition(self._lock)
        self.submitted = 0
        self.completed = 0
        #: per-ticket envelope sequence (the future key in process mode)
        self._seq = itertools.count(1)
        self._depth_gauges = {
            plan.index: self.metrics.gauge("controlplane_queue_depth",
                                           shard=plan.index)
            for plan in self.router.plans}
        # -- thread mode state ----------------------------------------
        self._queues: Dict[int, "queue.Queue[object]"] = {}
        self._threads: List[threading.Thread] = []
        self._servers: Dict[int, ShardServer] = {}
        # -- process mode state ---------------------------------------
        self._proc: Dict[int, _WorkerProc] = {}
        #: seq -> (future, enqueued_at, shard index); guarded by _lock
        self._pending: Dict[int, Tuple["Future[TicketResult]", float, int]] = {}
        self._drained = threading.Condition(self._lock)
        self._ctrl_seq = itertools.count(1)
        #: req_id -> (future, shard index); guarded by _lock
        self._ctrl_pending: Dict[int, Tuple["Future[object]", int]] = {}
        #: admin/user registrations issued before start() (process mode
        #: has no workers to talk to yet); flushed on start
        self._deferred_controls: List[Tuple[str, Tuple[object, ...]]] = []
        if workers == "thread":
            for shard in self.router.shards:
                self._queues[shard.index] = queue.Queue(maxsize=queue_depth)
                self._servers[shard.index] = ShardServer(
                    shard, self.metrics, self.store)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ControlPlane":
        if self._started:
            return self
        self._started = True
        # a fresh boot epoch per start: session ids minted by this plane
        # are unique across every restart against the same store
        self.boot = self.store.begin_boot()
        if self.workers == "thread":
            # shorter GIL slices keep the producer responsive while
            # workers grind through CPU-bound sessions; restored on close
            self._saved_switchinterval = sys.getswitchinterval()
            sys.setswitchinterval(0.005)
            for shard in self.router.shards:
                worker = threading.Thread(
                    target=self._thread_worker, args=(shard,),
                    name=f"shard-{shard.index}", daemon=True)
                self._threads.append(worker)
                worker.start()
        else:
            self._start_processes()
        return self

    def _start_processes(self) -> None:
        import multiprocessing as mp

        from repro.controlplane.procworker import worker_main

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        for plan in self.router.plans:
            submit_q = ctx.Queue(maxsize=self._queue_depth)
            result_q = ctx.Queue()
            process = ctx.Process(
                target=worker_main,
                args=(plan, self._users, self._pool_size,
                      self._base_classifier, self._broker_policy,
                      self.plane_id, submit_q, result_q),
                name=f"{self.plane_id}-shard-{plan.index}", daemon=True)
            wp = _WorkerProc(plan, process, submit_q, result_q)
            self._proc[plan.index] = wp
            process.start()
        for wp in self._proc.values():
            collector = threading.Thread(
                target=self._collector, args=(wp,),
                name=f"collector-{wp.plan.index}", daemon=True)
            wp.collector = collector
            collector.start()
        for op, payload in self._deferred_controls:
            self._control_all(op, payload)
        self._deferred_controls.clear()

    def prewarm(self, ticket_classes: Sequence[str],
                count: Optional[int] = None) -> int:
        """Warm pools for ``ticket_classes`` on every shard's machines."""
        if self.workers == "thread":
            return sum(shard.prewarm(cls, count=count)
                       for shard in self.router.shards
                       for cls in ticket_classes)
        if not self._started:
            raise InvalidArgument(
                "process-mode prewarm needs started workers")
        return sum(sum(int(v) for v in self._control_all(
                       "prewarm", (cls, count)))
                   for cls in ticket_classes)

    def drain(self) -> None:
        """Block until every accepted ticket has completed."""
        if self.workers == "thread":
            for q in self._queues.values():
                q.join()
        else:
            with self._drained:
                self._drained.wait_for(lambda: not self._pending)

    def close(self) -> None:
        """Graceful shutdown: drain, stop workers, tear down pools.

        Admission and close coordinate under the plane lock: ``close``
        flips ``_closed`` (so no new admission can pass the gate), then
        waits out admissions already past the gate before draining and
        enqueueing the shutdown sentinels — so no future is ever enqueued
        *behind* a sentinel. Any future still stranded after the workers
        exit fails with :class:`ShuttingDown` rather than hanging its
        waiter; a crashed worker's futures were already failed with
        :class:`WorkerCrashed` by the monitor, so ``drain`` terminates
        either way.
        """
        with self._quiesced:
            if self._closed:
                return
            self._closed = True
            while self._admitting:
                self._quiesced.wait()
        if self._started:
            self.drain()
            if self.workers == "thread":
                for q in self._queues.values():
                    q.put(_SENTINEL)
                for worker in self._threads:
                    worker.join()
                sys.setswitchinterval(self._saved_switchinterval)
                self._fail_stranded()
            else:
                self._close_processes()
        self.router.close()
        # checkpoint (not close) the store: callers routinely query the
        # trail history after the plane itself has shut down
        self.store.flush()

    def _close_processes(self) -> None:
        for wp in self._proc.values():
            if not wp.crashed:
                try:
                    wp.submit_q.put_nowait(_SENTINEL)
                except queue.Full:
                    # drain() emptied pending, so a full queue means the
                    # worker died with envelopes it will never serve;
                    # the monitor has (or will have) failed them
                    pass
        for wp in self._proc.values():
            wp.process.join(timeout=_JOIN_TIMEOUT)
            if wp.process.is_alive():
                wp.process.terminate()
                wp.process.join(timeout=10)
            if wp.collector is not None:
                wp.collector.join(timeout=_JOIN_TIMEOUT)
            # never let a queue feeder thread block interpreter exit on
            # a pipe nobody will read again
            wp.submit_q.cancel_join_thread()
            wp.submit_q.close()
            wp.result_q.cancel_join_thread()
            wp.result_q.close()
        with self._lock:
            stranded = list(self._pending.values())
            self._pending.clear()
            ctrl = list(self._ctrl_pending.values())
            self._ctrl_pending.clear()
        for future, _enqueued, _shard in stranded:
            if not future.done():
                future.set_exception(ShuttingDown(
                    "control plane closed before the ticket was served"))
        for future, _shard in ctrl:
            if not future.done():
                future.set_exception(ShuttingDown(
                    "control plane closed before the command ran"))

    def _fail_stranded(self) -> None:
        """Fail (never strand) any future still queued after worker exit."""
        for q in self._queues.values():
            while True:
                try:
                    chunk = q.get_nowait()
                except queue.Empty:
                    break
                if chunk is _SENTINEL:
                    continue
                for _env, future in chunk:
                    if not future.done():
                        future.set_exception(ShuttingDown(
                            "control plane closed before the ticket "
                            "was served"))

    def workers_alive(self) -> bool:
        """True when every shard worker is running (readiness feed)."""
        if self.workers == "thread":
            return bool(self._threads) and all(w.is_alive()
                                               for w in self._threads)
        return bool(self._proc) and all(
            wp.process.is_alive() and not wp.crashed
            for wp in self._proc.values())

    def crashed_shards(self) -> List[int]:
        """Shard indexes whose worker process died (process mode)."""
        return sorted(index for index, wp in self._proc.items()
                      if wp.crashed)

    def worker_pids(self) -> Dict[int, Optional[int]]:
        """Shard index -> worker process pid (process mode only)."""
        return {index: wp.process.pid for index, wp in self._proc.items()}

    def stats(self) -> Dict[str, object]:
        """A point-in-time lifecycle snapshot (the service readiness feed)."""
        with self._lock:
            submitted, completed = self.submitted, self.completed
        if self.workers == "thread":
            depths = {shard.index: self._queues[shard.index].qsize()
                      for shard in self.router.shards}
            pool_idle: Optional[int] = sum(shard.pool.idle_count()
                                           for shard in self.router.shards)
        else:
            depths = {index: self._queue_size(wp)
                      for index, wp in self._proc.items()}
            # the pools live inside the worker processes; a live count
            # would need an RPC per stats() call, so it is not reported
            pool_idle = None
        return {
            "plane": self.plane_id,
            "workers": self.workers,
            "started": self._started,
            "closed": self._closed,
            "submitted": submitted,
            "completed": completed,
            "inflight": submitted - completed,
            "workers_alive": self.workers_alive(),
            "crashed_shards": self.crashed_shards(),
            "shards": len(self.router.plans),
            "queue_depths": depths,
            "pool_idle": pool_idle,
        }

    @staticmethod
    def _queue_size(wp: _WorkerProc) -> int:
        try:
            return wp.submit_q.qsize()
        except NotImplementedError:  # pragma: no cover - macOS sem_getvalue
            return -1

    def __enter__(self) -> "ControlPlane":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def register_admin(self, name: str) -> None:
        if self.workers == "thread":
            for shard in self.router.shards:
                shard.org.register_admin(name)
        else:
            self._control_or_defer("register_admin", (name,))

    def register_user(self, name: str) -> None:
        if self.workers == "thread":
            for shard in self.router.shards:
                shard.org.tickets.register_person(name, Role.END_USER)
        else:
            self._control_or_defer("register_user", (name,))

    def _begin_admission(self) -> None:
        """Pass the admission gate; pairs with :meth:`_end_admission`.

        The closed-check and the in-flight admission count move together
        under the plane lock: once :meth:`close` flips ``_closed`` no new
        admission passes, and close itself waits for the count to reach
        zero — so every admitted ticket is enqueued strictly before the
        shutdown sentinel.
        """
        with self._lock:
            if self._closed:
                raise InvalidArgument("control plane is closed")
            if not self._started:
                raise InvalidArgument("control plane is not started")
            self._admitting += 1

    def _end_admission(self, accepted: int) -> None:
        with self._quiesced:
            self._admitting -= 1
            self.submitted += accepted
            if self._admitting == 0:
                self._quiesced.notify_all()

    def _envelope(self, reporter: str, text: str, machine: str, admin: str,
                  ops: Optional[SessionOps],
                  org: Optional[str] = None) -> TicketEnvelope:
        """One envelope, with its own admission clock read (never shared
        per chunk — chunked admission must not skew latency percentiles).

        The session id is minted here, at admission: it embeds the store's
        boot epoch, so a restarted plane over the same database can never
        collide with sessions persisted by an earlier life.
        """
        seq = next(self._seq)
        org = org if org is not None else self.org
        return TicketEnvelope(seq=seq, reporter=reporter,
                              text=text, machine=machine, admin=admin,
                              ops=ops, enqueued_at=time.perf_counter(),
                              org=org,
                              session_id=f"{org}-b{self.boot}-{seq}")

    def submit(self, reporter: str, text: str, machine: str, admin: str,
               ops: Optional[SessionOps] = None,
               org: Optional[str] = None) -> "Future[TicketResult]":
        """Route + enqueue one ticket; blocks when the shard is backlogged."""
        self._begin_admission()
        accepted = 0
        try:
            index = self.router.route_index(machine)
            env = self._envelope(reporter, text, machine, admin, ops, org=org)
            future: "Future[TicketResult]" = Future()
            if self.workers == "thread":
                self._queues[index].put([(env, future)])
                accepted = 1
            else:
                accepted = self._process_enqueue(index, [(env, future)],
                                                 block=True)
        finally:
            self._end_admission(accepted)
        self._set_depth(index)
        return future

    def submit_many(self, tickets: Sequence[Tuple[str, str, str]], admin: str,
                    ops: Optional[SessionOps] = None,
                    chunk_size: int = 32,
                    org: Optional[str] = None) -> List["Future[TicketResult]"]:
        """Bulk admission: route, pre-classify, and enqueue a whole storm.

        ``tickets`` is a sequence of ``(reporter, text, machine)``. Tickets
        are enqueued in per-shard chunks, so the queue/handoff cost is paid
        once per ``chunk_size`` tickets instead of once per ticket; each
        envelope still records its *own* admission timestamp. In thread
        mode the storm is pre-classified in one :meth:`classify_batch`
        pass (one inference per unique text, shared memo); process-mode
        workers each memoize their own shard's texts instead — that is
        exactly the CPU work the fork exists to parallelize. Returns one
        future per ticket, in submission order.
        """
        self._begin_admission()
        accepted = 0
        try:
            if self.workers == "thread":
                self.classify_batch([text for _, text, _ in tickets])
            futures: List["Future[TicketResult]"] = []
            chunks: Dict[int, List[Tuple[TicketEnvelope, "Future[TicketResult]"]]] = {}
            for reporter, text, machine in tickets:
                index = self.router.route_index(machine)
                env = self._envelope(reporter, text, machine, admin, ops,
                                     org=org)
                future: "Future[TicketResult]" = Future()
                futures.append(future)
                chunk = chunks.setdefault(index, [])
                chunk.append((env, future))
                if len(chunk) >= chunk_size:
                    accepted += self._flush_chunk(index, chunk)
                    chunks[index] = []
            for index, chunk in chunks.items():
                if chunk:
                    accepted += self._flush_chunk(index, chunk)
        finally:
            self._end_admission(accepted)
        for plan in self.router.plans:
            self._set_depth(plan.index)
        return futures

    def _flush_chunk(self, index: int,
                     chunk: List[Tuple[TicketEnvelope, "Future[TicketResult]"]]) -> int:
        if self.workers == "thread":
            self._queues[index].put(chunk)
            return len(chunk)
        return self._process_enqueue(index, chunk, block=True)

    def try_submit(self, reporter: str, text: str, machine: str, admin: str,
                   ops: Optional[SessionOps] = None,
                   org: Optional[str] = None
                   ) -> Optional["Future[TicketResult]"]:
        """Non-blocking submit: None when the shard queue is full."""
        self._begin_admission()
        accepted = 0
        try:
            index = self.router.route_index(machine)
            env = self._envelope(reporter, text, machine, admin, ops, org=org)
            future: "Future[TicketResult]" = Future()
            if self.workers == "thread":
                try:
                    self._queues[index].put_nowait([(env, future)])
                except queue.Full:
                    self.metrics.counter("controlplane_rejected_total",
                                         shard=index).inc()
                    return None
                accepted = 1
            else:
                accepted = self._process_enqueue(index, [(env, future)],
                                                 block=False)
                if accepted == 0 and not future.done():
                    # queue full (not a crash): backpressure, not failure
                    self.metrics.counter("controlplane_rejected_total",
                                         shard=index).inc()
                    return None
        finally:
            self._end_admission(accepted)
        self._set_depth(index)
        return future

    def classify_batch(self, texts: Sequence[str]) -> List[str]:
        """Bulk pre-classification (one inference per unique text)."""
        return self.classifier.classify_batch(texts)

    # ------------------------------------------------------------------
    # the thread-mode shard worker
    # ------------------------------------------------------------------

    def _set_depth(self, index: int) -> None:
        gauge = self._depth_gauges.get(index)
        if gauge is None:
            return
        if self.workers == "thread":
            gauge.set(self._queues[index].qsize())
        else:
            gauge.set(self._queue_size(self._proc[index]))

    def _thread_worker(self, shard: KernelShard) -> None:
        server = self._servers[shard.index]
        q = self._queues[shard.index]
        while True:
            chunk = q.get()
            if chunk is _SENTINEL:
                q.task_done()
                return
            self._set_depth(shard.index)
            served = 0
            try:
                for env, future in chunk:
                    try:
                        result = server.serve(env.reporter, env.text,
                                              env.machine, env.admin,
                                              env.ops,
                                              enqueued_at=env.enqueued_at,
                                              session_id=env.session_id,
                                              org_name=env.org,
                                              boot=self.boot)
                        future.set_result(result)
                    except BaseException as exc:  # noqa: BLE001 - boundary
                        future.set_exception(exc)
                    served += 1
            finally:
                with self._lock:
                    self.completed += served
                q.task_done()

    # ------------------------------------------------------------------
    # process mode: admission, collection, crash handling
    # ------------------------------------------------------------------

    def _process_enqueue(self, index: int,
                         chunk: List[Tuple[TicketEnvelope, "Future[TicketResult]"]],
                         block: bool) -> int:
        """Register pending futures, then ship the envelopes.

        Registration happens *before* the put so a fast worker can never
        answer a seq the collector does not know yet. A crash detected
        while blocked on a full queue fails the chunk fast with
        :class:`WorkerCrashed` instead of waiting on a consumer that no
        longer exists.
        """
        wp = self._proc[index]
        if wp.crashed:
            self._fail_chunk(chunk, self._crash_error(wp))
            return 0
        with self._lock:
            for env, future in chunk:
                self._pending[env.seq] = (future, env.enqueued_at, index)
        envelopes = [env for env, _future in chunk]
        try:
            if block:
                while True:
                    if wp.crashed:
                        raise WorkerCrashed(
                            str(self._crash_error(wp)),
                            shard=index, exitcode=wp.process.exitcode)
                    try:
                        wp.submit_q.put(envelopes, timeout=0.1)
                        break
                    except queue.Full:
                        continue
            else:
                wp.submit_q.put_nowait(envelopes)
        except (queue.Full, WorkerCrashed) as exc:
            with self._lock:
                for env, _future in chunk:
                    self._pending.pop(env.seq, None)
            if isinstance(exc, WorkerCrashed):
                self._fail_chunk(chunk, exc)
            return 0
        return len(chunk)

    def _crash_error(self, wp: _WorkerProc) -> WorkerCrashed:
        return WorkerCrashed(
            f"shard {wp.plan.index} worker process died "
            f"(exitcode {wp.process.exitcode})",
            shard=wp.plan.index, exitcode=wp.process.exitcode)

    @staticmethod
    def _fail_chunk(chunk: List[Tuple[TicketEnvelope, "Future[TicketResult]"]],
                    error: Exception) -> None:
        for _env, future in chunk:
            if not future.done():
                future.set_exception(error)

    def _collector(self, wp: _WorkerProc) -> None:
        """Drain one worker's result queue; detect its death.

        Exits on the worker's :class:`WorkerExit` goodbye (clean path,
        metrics folded back) or after crash handling (dirty path). The
        poll timeout doubles as the liveness check interval.
        """
        while True:
            try:
                item = wp.result_q.get(timeout=0.1)
            except queue.Empty:
                if not wp.process.is_alive():
                    self._on_worker_death(wp)
                    return
                continue
            if isinstance(item, WorkerExit):
                wp.exit_seen = True
                obs.registry().fold(item.metrics)
                return
            if isinstance(item, ControlReply):
                self._resolve_control(item)
            else:
                self._resolve_result(item)

    def _resolve_result(self, envelope: ResultEnvelope) -> None:
        with self._lock:
            entry = self._pending.pop(envelope.seq, None)
        if entry is None:
            return  # already failed by the crash monitor
        future, enqueued_at, index = entry
        if envelope.error is not None:
            if not future.done():
                future.set_exception(unmarshal_error(envelope.error))
        else:
            result: TicketResult = envelope.result  # type: ignore[assignment]
            # end-to-end latency is measured entirely on parent clocks:
            # admission read at enqueue, completion read here
            latency = time.perf_counter() - enqueued_at
            result = dataclasses.replace(result, latency_s=latency)
            self._fold_ticket(result, index)
            if envelope.trail is not None:
                self._persist_trail(envelope.trail, latency)
            if not future.done():
                future.set_result(result)
        with self._drained:
            self.completed += 1
            if not self._pending:
                self._drained.notify_all()

    def _persist_trail(self, trail: object, latency: float) -> None:
        """Persist a worker-captured trail (process-mode fold-back).

        The parent owns the single store connection, so process workers'
        writes are single-writer by construction. Boot and latency are
        re-stamped parent-side: the worker knows neither the store's boot
        epoch nor the parent's admission clock. A store failure must
        never kill the collector thread — it is counted, not raised.
        """
        assert isinstance(trail, SessionTrail)
        stamped = dataclasses.replace(
            trail, session=dataclasses.replace(
                trail.session, boot=self.boot, latency_s=latency))
        try:
            self.store.put_trail(stamped)
        except Exception:  # noqa: BLE001 - collector must survive
            self.metrics.counter("controlplane_store_errors_total").inc()

    def _fold_ticket(self, result: TicketResult, index: int) -> None:
        """Fold one served ticket's metrics into the plane scope."""
        outcome = "resolved" if result.resolved else "errored"
        self.metrics.counter("controlplane_tickets_served",
                             shard=index, outcome=outcome).inc()
        self.metrics.histogram("controlplane_session_seconds",
                               shard=index).observe(result.duration_s)
        self.metrics.histogram("controlplane_ticket_latency_seconds",
                               buckets=LATENCY_BUCKETS,
                               shard=index).observe(result.latency_s)
        if result.pool_hit is not None:
            self.metrics.counter(
                "controlplane_pool_acquires",
                outcome="hit" if result.pool_hit else "miss").inc()

    def _resolve_control(self, reply: ControlReply) -> None:
        with self._lock:
            entry = self._ctrl_pending.pop(reply.req_id, None)
        if entry is None:
            return
        future, _index = entry
        if future.done():
            return
        if reply.error is not None:
            future.set_exception(unmarshal_error(reply.error))
        else:
            future.set_result(reply.value)

    def _on_worker_death(self, wp: _WorkerProc) -> None:
        """Fail-closed cleanup after a worker died without a goodbye."""
        # give results already in the pipe a moment to surface, then
        # fail everything that will never be answered; the blocking get
        # parks on the queue's internal condition instead of sleep-polling
        deadline = time.perf_counter() + 0.25
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                item = wp.result_q.get(timeout=remaining)
            except queue.Empty:
                break
            except (OSError, EOFError):
                # queue torn down with the dead worker: nothing more can
                # ever arrive, so waiting out the deadline is pointless
                break
            if isinstance(item, ControlReply):
                self._resolve_control(item)
            elif not isinstance(item, WorkerExit):
                self._resolve_result(item)
        wp.crashed = True
        error = self._crash_error(wp)
        self.metrics.counter("controlplane_worker_crashes_total",
                             shard=wp.plan.index).inc()
        with self._lock:
            stranded = [(seq, entry) for seq, entry in self._pending.items()
                        if entry[2] == wp.plan.index]
            for seq, _entry in stranded:
                del self._pending[seq]
            ctrl = [(req_id, entry) for req_id, entry
                    in self._ctrl_pending.items()
                    if entry[1] == wp.plan.index]
            for req_id, _entry in ctrl:
                del self._ctrl_pending[req_id]
        for _seq, (future, _enqueued, _index) in stranded:
            if not future.done():
                future.set_exception(error)
        for _req_id, (future, _index) in ctrl:
            if not future.done():
                future.set_exception(error)
        with self._drained:
            self.completed += len(stranded)
            if not self._pending:
                self._drained.notify_all()

    # ------------------------------------------------------------------
    # process mode: control RPCs
    # ------------------------------------------------------------------

    def _control_or_defer(self, op: str, payload: Tuple[object, ...]) -> None:
        if not self._started:
            self._deferred_controls.append((op, payload))
            return
        self._control_all(op, payload)

    def _control_all(self, op: str,
                     payload: Tuple[object, ...]) -> List[object]:
        """Run one control op on every live worker; collect the answers."""
        if self._closed:
            raise InvalidArgument("control plane is closed")
        issued: List[Tuple[_WorkerProc, "Future[object]"]] = []
        for wp in self._proc.values():
            if wp.crashed:
                continue
            req_id = next(self._ctrl_seq)
            future: "Future[object]" = Future()
            with self._lock:
                self._ctrl_pending[req_id] = (future, wp.plan.index)
            wp.submit_q.put(ControlRequest(req_id=req_id, op=op,
                                           payload=payload))
            issued.append((wp, future))
        return [future.result(timeout=_CONTROL_TIMEOUT)
                for _wp, future in issued]

    # ------------------------------------------------------------------

    def pool_hit_rate(self) -> float:
        """Warm-lease fraction for *this* plane's pools only.

        The series carry this plane's ``plane`` label, so two co-resident
        control planes report independent rates instead of blending each
        other's acquire counters through the process-global registry. In
        process mode the counters are folded back per ticket from the
        result envelopes, so the rate is equally live.
        """
        hits = self.metrics.total("controlplane_pool_acquires",
                                  outcome="hit")
        misses = self.metrics.total("controlplane_pool_acquires",
                                    outcome="miss")
        total = hits + misses
        return hits / total if total else 0.0
