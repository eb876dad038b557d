"""Synthetic ticket storms for the control-plane throughput benchmark.

A *storm* models an outage aftermath: within minutes, many users report
the same few incidents in nearly the same words. ``duplicate_rate``
controls how duplicate-heavy the storm is — at the default 0.9, a
200-ticket storm contains only ~20 distinct report texts, which is the
regime the control plane's memoized classification and pre-warmed pools
are built for.

Two drivers run the *same* storm through the *same* classifier:

* :func:`run_storm_serial` — the naive baseline: one
  :class:`~repro.framework.orchestrator.WatchITDeployment`, one ticket at
  a time, full deploy / classify / login / teardown per ticket.
* :func:`run_storm_sharded` — the concurrent control plane
  (:class:`~repro.controlplane.ControlPlane`): hash-routed shards, warm
  container pools with scrub-on-release, batched + memoized
  classification.

Both run the identical minimal session body
(:func:`~repro.controlplane.executor.default_session_ops`) through the
same session core (``WatchITDeployment.handle``/``resolve``), so the
reported ratio isolates the serving machinery: warm pools instead of a
deploy per ticket, shards, and batched classification.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.controlplane import ControlPlane
from repro.controlplane.executor import default_session_ops
from repro.errors import ReproError
from repro.framework.classifier import LDAClassifier
from repro.framework.orchestrator import WatchITDeployment
from repro.workload.corpus import generate_corpus

__all__ = [
    "STORM_MACHINES",
    "STORM_USERS",
    "StormReport",
    "StormTicket",
    "generate_storm",
    "run_storm_serial",
    "run_storm_sharded",
    "train_storm_classifier",
]

#: An eight-workstation office: enough machines that four shards all
#: own some, small enough that pools stay warm.
STORM_MACHINES: Tuple[str, ...] = tuple(f"ws-{i:02d}" for i in range(1, 9))
STORM_USERS: Tuple[str, ...] = ("alice", "bob", "carol", "dave")


@dataclass(frozen=True)
class StormTicket:
    """One report in the storm."""

    reporter: str
    text: str
    machine: str
    true_class: str


@dataclass
class StormReport:
    """What one storm run measured.

    ``latency_p50_s``/``p95``/``p99`` are end-to-end per-ticket session
    latencies (admission to completion — queue wait included for the
    sharded drivers, exact per-ticket values, not histogram-bucket
    estimates). ``tickets_per_s_per_core`` normalizes throughput by the
    cores the driver could actually occupy, so thread mode's GIL ceiling
    and process mode's scaling are directly comparable on one chart.
    """

    mode: str                    # "serial" | "sharded"
    tickets: int
    unique_texts: int
    elapsed_s: float
    tickets_per_s: float
    errors: int
    shards: int = 1
    pool_hit_rate: float = 0.0
    workers: str = "inline"      # "inline" | "thread" | "process"
    n_workers: int = 1
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    latency_p99_s: float = 0.0
    tickets_per_s_per_core: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def _percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of raw samples (0 when there are none)."""
    if not values:
        return 0.0
    ranked = sorted(values)
    rank = max(0, min(len(ranked) - 1,
                      int(round(pct / 100.0 * len(ranked) + 0.5)) - 1))
    return ranked[rank]


def _cores_used(n_workers: int) -> int:
    """Cores a driver with ``n_workers`` parallel workers can occupy."""
    return max(1, min(n_workers, os.cpu_count() or 1))


def generate_storm(n: int = 200, seed: int = 11,
                   duplicate_rate: float = 0.9,
                   machines: Sequence[str] = STORM_MACHINES,
                   users: Sequence[str] = STORM_USERS) -> List[StormTicket]:
    """A duplicate-heavy storm of ``n`` reports.

    ``duplicate_rate`` is the fraction of reports that repeat an earlier
    report verbatim (users pasting the same error); the rest are distinct
    texts drawn from the corpus generator. Reporters and machines cycle
    so load spreads across every workstation.
    """
    import random
    if not 0.0 <= duplicate_rate < 1.0:
        raise ValueError(
            f"duplicate_rate must be in [0, 1), got {duplicate_rate}")
    rng = random.Random(seed)
    n_unique = max(1, round(n * (1.0 - duplicate_rate)))
    base = generate_corpus(n_tickets=n_unique, seed=seed)
    storm: List[StormTicket] = []
    for i in range(n):
        source = base[i] if i < n_unique else rng.choice(base)
        storm.append(StormTicket(
            reporter=users[i % len(users)],
            text=source.text,
            machine=machines[i % len(machines)],
            true_class=source.true_class or "T-11"))
    rng.shuffle(storm)
    return storm


def train_storm_classifier(seed: int = 7, history: int = 300,
                           n_topics: int = 10,
                           n_iter: int = 40) -> LDAClassifier:
    """The paper's LDA pipeline, trained on a labelled ticket history."""
    tickets = generate_corpus(n_tickets=history, seed=seed)
    return LDAClassifier(n_topics=n_topics, n_iter=n_iter,
                         seed=seed).train(tickets)


def _storm_population(storm: Sequence[StormTicket]
                      ) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    machines = tuple(sorted({t.machine for t in storm}))
    users = tuple(sorted({t.reporter for t in storm}))
    return machines, users


def run_storm_serial(storm: Sequence[StormTicket], classifier=None,
                     admin: str = "it-duty",
                     warmup: int = 0) -> StormReport:
    """Baseline: one orchestrator, one full Figure-3 workflow per ticket.

    The first ``warmup`` tickets are served but not timed, mirroring the
    sharded driver's steady-state measurement (the serial path has no
    caches, so warmup only excludes interpreter/allocator noise).
    """
    machines, users = _storm_population(storm)
    org = WatchITDeployment.bootstrap(machines=machines, users=users,
                                      classifier=classifier)
    org.register_admin(admin)
    errors = 0
    latencies: List[float] = []

    def _serve_one(item: StormTicket) -> int:
        ticket = org.submit_ticket(item.reporter, item.text,
                                   machine=item.machine)
        try:
            handled = org.handle(ticket, admin)
            try:
                default_session_ops(handled.shell, handled.client)
            finally:
                org.resolve(handled)
        except ReproError:
            return 1
        return 0

    for item in storm[:warmup]:
        _serve_one(item)
    measured = storm[warmup:]
    started = time.perf_counter()
    for item in measured:
        ticket_started = time.perf_counter()
        errors += _serve_one(item)
        latencies.append(time.perf_counter() - ticket_started)
    elapsed = time.perf_counter() - started
    rate = len(measured) / elapsed
    return StormReport(
        mode="serial", tickets=len(measured),
        unique_texts=len({t.text for t in measured}),
        elapsed_s=elapsed, tickets_per_s=rate,
        errors=errors, workers="inline", n_workers=1,
        latency_p50_s=_percentile(latencies, 50),
        latency_p95_s=_percentile(latencies, 95),
        latency_p99_s=_percentile(latencies, 99),
        tickets_per_s_per_core=rate / _cores_used(1))


def run_storm_sharded(storm: Sequence[StormTicket], classifier=None,
                      shards: int = 4, pool_size: int = 2,
                      queue_depth: int = 64, admin: str = "it-duty",
                      prewarm: bool = True, warmup: int = 0,
                      workers: str = "thread",
                      plane: Optional[ControlPlane] = None,
                      store=None, org: str = "default") -> StormReport:
    """The concurrent control plane serving the same storm.

    ``workers`` picks the shard worker mode (``"thread"`` or
    ``"process"``); with an externally supplied ``plane`` its own mode is
    reported instead. Pool prewarming (by the storm's incident classes)
    happens *before* the clock starts — that is the "warm pool"
    configuration the benchmark reports. The first ``warmup`` tickets are
    served untimed; with ``warmup=0`` the timed region includes every
    cold classification of the storm's unique texts.
    """
    machines, users = _storm_population(storm)
    own_plane = plane is None
    if own_plane:
        plane = ControlPlane(machines=machines, users=users, shards=shards,
                             pool_size=pool_size, queue_depth=queue_depth,
                             classifier=classifier, workers=workers,
                             store=store, org=org)
    plane.register_admin(admin)
    plane.start()
    if prewarm:
        plane.prewarm(sorted({t.true_class for t in storm}))
    items = [(t.reporter, t.text, t.machine) for t in storm]
    if warmup:
        plane.submit_many(items[:warmup], admin)
        plane.drain()
    measured = items[warmup:]
    started = time.perf_counter()
    futures = plane.submit_many(measured, admin)
    plane.drain()
    elapsed = time.perf_counter() - started
    results = [f.result() for f in futures]
    errors = sum(1 for r in results if not r.resolved)
    latencies = [r.latency_s for r in results]
    n_workers = len(plane.router.plans)
    rate = len(measured) / elapsed
    report = StormReport(
        mode="sharded", tickets=len(measured),
        unique_texts=len({text for _, text, _ in measured}),
        elapsed_s=elapsed, tickets_per_s=rate,
        errors=errors, shards=n_workers,
        pool_hit_rate=plane.pool_hit_rate(),
        workers=plane.workers, n_workers=n_workers,
        latency_p50_s=_percentile(latencies, 50),
        latency_p95_s=_percentile(latencies, 95),
        latency_p99_s=_percentile(latencies, 99),
        tickets_per_s_per_core=rate / _cores_used(n_workers))
    if own_plane:
        plane.close()
    return report
