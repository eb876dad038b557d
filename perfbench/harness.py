"""One workload, end to end: set-up, timed phases, output checks, metrics.

Every workload runs the control plane in its default configuration:
thread workers, one shard per core, ``pool_size=2``, a ``SQLiteStore``
file in a fresh directory (the ``repro serve --db`` configuration), and
the classifier ``train_storm_classifier(seed=7)`` builds. Tickets come
from ``generate_storm``, seeded by the benchmark.

Run layout (``S`` = ``--seconds``):

* untraced (``--trace 0``): warm-up; open loop for 0.75 S at the
  workload's rate (latency); saturation for 0.25 S (throughput). A
  closed-loop workload runs its clients for S instead.
* traced (``--trace 1``): warm-up; an untraced saturation phase (closed
  loop: 0.25 S of the loop); then, with spans on, the open loop and a
  second saturation phase (closed loop: S of the loop). Per-layer
  numbers come from the traced open or closed loop; the ratio of the
  traced to the untraced rate is the tracing overhead.

Checks run after the timed phases, outside every timed region.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.containit.container import PerforatedContainer
from repro.controlplane import ControlPlane
from repro.controlplane.serving import ShardServer
from repro.errors import IntegrityError
from repro.experiments.schema import ExperimentReport
from repro.service import server as service_server
from repro.service.server import ServiceConfig, TicketService
from repro.store.replay import verify_trail
from repro.store.sqlite import SQLiteStore
from repro.workload.corpus import CLASS_IDS
from repro.workload.storm import (
    STORM_MACHINES,
    STORM_USERS,
    StormTicket,
    generate_storm,
    train_storm_classifier,
)

from loadgen import (
    closed_loop,
    closed_loop_plane,
    open_loop,
    poisson_offsets,
    saturate,
)
from tracer import GcRecorder, Tracer, patched, self_times
from workloads import (
    ADMIN,
    SESSION_OPS,
    SESSION_OPS_TABLE,
    DecisionTally,
    Workload,
    run_op,
)

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: share of ``--seconds`` given to the open-loop (latency) phase
OPEN_SHARE = 0.75
#: tickets served untimed before the first timed phase
WARMUP_TICKETS = 200
WARMUP_HTTP_TICKETS = 40
POOL_SIZE = 2
#: latency percentiles are taken per window of at least this length
#: holding at least this many samples (so that a window's p99 has ten
#: samples beyond it), and the median over windows is reported
LATENCY_WINDOW_S = 3.0
LATENCY_WINDOW_SAMPLES = 1000
#: tickets per generated storm (``generate_storm``'s own default size)
STORM_BLOCK = 200


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ranked = sorted(values)
    rank = min(len(ranked), max(1, -(-len(ranked) * pct // 100)))
    return ranked[int(rank) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mean(total: float, n: int) -> float:
    return total / n if n else 0.0


def windowed(stamps: Sequence[float], values: Sequence[float], start: float,
             width: float, count: int, stat) -> List[float]:
    """``stat`` of the values whose stamp falls in each of ``count`` windows."""
    bins: List[List[float]] = [[] for _ in range(count)]
    for stamp, value in zip(stamps, values):
        k = int((stamp - start) // width)
        if 0 <= k < count:
            bins[k].append(value)
    return [stat(b) for b in bins if b]


def latency_stats(stamps: Sequence[float], latencies: Sequence[float],
                  start: float, seconds: float) -> Dict[str, float]:
    """Latency percentiles: the median over windows of each window's."""
    count = max(1, min(int(seconds // LATENCY_WINDOW_S),
                       len(latencies) // LATENCY_WINDOW_SAMPLES))
    width = seconds / count
    out = {}
    for pct in (50, 99):
        per_window = windowed(stamps, latencies, start, width, count,
                              lambda b, p=pct: percentile(b, p))
        out[f"latency_p{pct}_ms"] = 1e3 * statistics.median(per_window)
    return out


def rate_stats(done_at: Sequence[float], start: float,
               seconds: float) -> float:
    """Completions per second: the median over 1-s windows.

    A window's rate is taken between its first and last completion, not
    as a whole count per second, so that it is not rounded to an integer.
    """
    count = max(1, int(seconds))
    return statistics.median(windowed(
        done_at, done_at, start, seconds / count, count,
        lambda b: (len(b) - 1) / (max(b) - min(b)) if len(b) > 1 else 0.0))


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

class Rig:
    """One set-up system: classifier, store, plane (and daemon)."""

    def __init__(self, workload: Workload, workdir: Path,
                 shards: int) -> None:
        started = time.perf_counter()
        self.classifier = train_storm_classifier(seed=7)
        self.dir = tempfile.mkdtemp(prefix="rig-", dir=workdir)
        self.store = SQLiteStore(os.path.join(self.dir, "watchit.db"))
        self.plane = ControlPlane(
            machines=STORM_MACHINES, users=STORM_USERS, shards=shards,
            pool_size=POOL_SIZE, classifier=self.classifier,
            store=self.store, workers="thread")
        self.service: Optional[TicketService] = None
        if workload.http:
            self.service = TicketService(self.plane, ServiceConfig(
                port=0, default_admin=ADMIN,
                prewarm_classes=CLASS_IDS)).start()
        else:
            self.plane.register_admin(ADMIN)
            self.plane.start()
            self.plane.prewarm(CLASS_IDS)
        self.setup_s = time.perf_counter() - started

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        else:
            self.plane.close()
        self.store.close()
        shutil.rmtree(self.dir, ignore_errors=True)


# ----------------------------------------------------------------------
# session bodies and counters
# ----------------------------------------------------------------------

def session_body(workload: Workload, tally: DecisionTally,
                 tracer: Optional[Tracer] = None):
    """The ops callable a phase submits with (None = program default)."""
    def span(name: str):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    if workload.body == "default":
        if tracer is None:
            return None

        def traced_default(shell, client) -> None:
            # the program's default_session_ops, one span per op
            with span("session.ops"):
                with span("kernel.op"):
                    shell.hostname()
                with span("broker.call"):
                    client.pb("ps -a")
        return traced_default

    def sessions(shell, client) -> None:
        outcomes = []
        with span("session.ops"):
            for _op, span_name, action in SESSION_OPS_TABLE:
                with span(span_name):
                    outcomes.append(run_op(action, shell, client))
        tally.record(client.ticket_class, tuple(outcomes))
    return sessions


def counters(plane: ControlPlane) -> Dict[str, float]:
    """The program's own ``repro.obs`` counters this benchmark reads."""
    reg = obs.registry()
    return {
        "memo_hit": plane.metrics.total("controlplane_classify_memo",
                                        outcome="hit"),
        "memo_miss": plane.metrics.total("controlplane_classify_memo",
                                         outcome="miss"),
        "pool_hit": plane.metrics.total("controlplane_pool_acquires",
                                        outcome="hit"),
        "pool_miss": plane.metrics.total("controlplane_pool_acquires",
                                         outcome="miss"),
        "scrub_rebuild": plane.metrics.total("controlplane_pool_scrubs",
                                             outcome="rebuild"),
        "deployments": reg.total("containit_deployments"),
        "itfs_ops": reg.total("itfs_ops_total"),
        "netmon_packets": reg.total("netmon_packets_total"),
        "broker_requests": reg.total("broker_requests_total"),
        "syscalls": reg.total("syscall_total"),
    }


def delta(after: Dict[str, float], before: Dict[str, float]
          ) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in after}


# ----------------------------------------------------------------------
# tracing: spans around public calls, from outside the program
# ----------------------------------------------------------------------

@contextlib.contextmanager
def instrumented(rig: Rig, tracer: Tracer, service_ops=None):
    """Wrap the public calls of each layer in spans for the block.

    ``service_ops`` is the traced session body the daemon runs instead of
    its default while the block lasts.
    """
    plane = rig.plane
    with contextlib.ExitStack() as stack:
        def session_of(_self, *_args, **kwargs):
            return kwargs.get("session_id")
        stack.enter_context(patched(ShardServer, "serve", tracer.wrap(
            "controlplane.serve", ShardServer.serve, trace_of=session_of)))
        stack.enter_context(patched(plane.classifier, "classify", tracer.wrap(
            "batching.classify", plane.classifier.classify)))
        stack.enter_context(patched(rig.classifier, "classify", tracer.wrap(
            "classifier.classify", rig.classifier.classify)))
        for shard in plane.router.shards:
            pool = shard.pool
            stack.enter_context(patched(pool, "acquire", tracer.wrap(
                "pool.acquire", pool.acquire)))
            stack.enter_context(patched(pool, "release", tracer.wrap(
                "pool.release", pool.release)))
        stack.enter_context(patched(PerforatedContainer, "login", tracer.wrap(
            "containit.login", PerforatedContainer.login)))
        stack.enter_context(patched(
            PerforatedContainer, "deploy", classmethod(tracer.wrap(
                "containit.deploy", PerforatedContainer.deploy.__func__))))
        stack.enter_context(patched(rig.store, "put_trail", tracer.wrap(
            "store.put_trail", rig.store.put_trail)))
        stack.enter_context(patched(rig.store, "flush", tracer.wrap(
            "store.flush", rig.store.flush)))
        if rig.service is not None:
            stack.enter_context(patched(
                service_server, "parse_ticket_request", tracer.wrap(
                    "service.parse", service_server.parse_ticket_request)))
            submit_batch = rig.service.submit_batch

            def traced_submit_batch(*args, **kwargs):
                # the handler parsed the request just before admitting it
                parsed = tracer.last_finished()
                with tracer.span("service.submit_batch") as record:
                    outcome = submit_batch(*args, **kwargs)
                owned = [record]
                if parsed is not None and parsed[3] == "service.parse":
                    owned.append(parsed)
                for future in outcome.futures:
                    future.add_done_callback(
                        lambda f, r=owned: _adopt_trace(f, r))
                return outcome
            stack.enter_context(patched(rig.service, "submit_batch",
                                        traced_submit_batch))
            stack.enter_context(patched(rig.service, "default_ops",
                                        service_ops))
        yield


def _adopt_trace(future, records: List[list]) -> None:
    """Key HTTP handler spans by their ticket's session id."""
    if not future.cancelled() and future.exception() is None:
        for record in records:
            record[0] = future.result().session_id


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------

def make_storm(workload: Workload, seed: int, n: int) -> List[StormTicket]:
    """``n`` tickets as a run of 200-ticket storms, each its own seed.

    One long storm would hold 10% of ``n`` distinct texts, clustered
    near its start by the shuffle, so the memo hit ratio of a phase would
    depend on how much of the storm the run consumes. Back-to-back short
    storms keep it at about ``duplicate_rate`` throughout.
    """
    tickets: List[StormTicket] = []
    for block in range(-(-n // STORM_BLOCK)):
        tickets += generate_storm(n=STORM_BLOCK, seed=seed * 7919 + block,
                                  duplicate_rate=workload.duplicate_rate)
    return tickets[:n]


class Ledger:
    """Every ticket the run sent, with how it ended."""

    def __init__(self) -> None:
        self.results: List[object] = []      # TicketResult or dict
        self.failures: Dict[str, int] = {}
        self.attempted = 0

    def fail(self, reason: str, n: int = 1) -> None:
        if n:
            self.failures[reason] = self.failures.get(reason, 0) + n

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def settle(self, futures: Sequence[concurrent.futures.Future]
               ) -> List[object]:
        """Collect the futures' results; count what did not end well."""
        self.attempted += len(futures)
        done, not_done = concurrent.futures.wait(futures, timeout=60)
        self.fail("unsettled", len(not_done))
        results = []
        for future in futures:
            if future not in done:
                results.append(None)
                continue
            if future.exception() is not None:
                self.fail("exception")
                results.append(None)
                continue
            result = future.result()
            self.results.append(result)
            if not result.resolved:
                self.fail("unresolved")
            results.append(result)
        return results

    def settle_http(self, exchanges) -> List[Optional[dict]]:
        self.attempted += len(exchanges)
        results = []
        for ex in exchanges:
            if ex.status != 200 or ex.result is None:
                self.fail("http" if ex.error is None else "http_error")
                results.append(None)
                continue
            if "error" in ex.result and "resolved" not in ex.result:
                self.fail("exception")
                results.append(None)
                continue
            self.results.append(ex.result)
            if not ex.result.get("resolved"):
                self.fail("unresolved")
            results.append(ex.result)
        return results


def _field(result, name: str):
    return result[name] if isinstance(result, dict) else getattr(result, name)


def accuracy(tickets: Sequence[StormTicket],
             results: Sequence[object]) -> Tuple[int, int]:
    """(correct, graded) over tickets that came back with a result."""
    graded = right = 0
    for ticket, result in zip(tickets, results):
        if result is None:
            continue
        graded += 1
        right += _field(result, "ticket_class") == ticket.true_class
    return right, graded


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def check_outputs(rig: Rig, ledger: Ledger) -> Dict[str, object]:
    """Store contents against what the run was told, outside the clock."""
    counts = rig.store.counts()
    completed = len(ledger.results)
    events = sum(int(_field(r, "audit_records")) for r in ledger.results)
    report: Dict[str, object] = {
        "completed": completed, "sessions": counts["sessions"],
        "audit_records": events, "audit_events": counts["audit_events"]}
    ledger.fail("sessions_vs_completed", abs(counts["sessions"] - completed))
    if counts["audit_events"] != events:
        ledger.fail("audit_events_vs_records")
    bad = 0
    for row in rig.store.sessions():
        trail = rig.store.get_trail(row.session_id)
        try:
            if trail is None:
                raise IntegrityError(f"no trail for {row.session_id}")
            verify_trail(trail)
        except IntegrityError:
            bad += 1
    ledger.fail("trail_verify", bad)
    report["trails_failed"] = bad
    return report


def code_digest(root: Path) -> str:
    """Hash of the program and benchmark sources (``same code`` key)."""
    digest = hashlib.sha256()
    for path in sorted(list((root / "src").rglob("*.py"))
                       + list(Path(__file__).parent.glob("*.py"))):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_decisions(root: Path, results_dir: Path, workload: Workload,
                    seed: int, tally: DecisionTally, tickets: int,
                    ledger: Ledger, all_tallies: Sequence[DecisionTally]
                    ) -> Dict[str, object]:
    """Decision counts must repeat exactly across runs of the same code.

    The warm-up serves the same ``tickets`` tickets whatever the timing
    or ``--seconds``, so its allow/deny counts are compared with the
    first run of this seed, ticket count and code (kept under
    ``results/``). Within the run, every session of one ticket class must
    decide alike.
    """
    counts = tally.as_dict()
    inconsistent = sorted({c for t in all_tallies
                           for c in t.inconsistent_classes()})
    ledger.fail("decisions_inconsistent_by_class", len(inconsistent))
    ref_path = (results_dir / "decisions"
                / f"{workload.name}-seed{seed}-n{tickets}"
                  f"-{code_digest(root)}.json")
    if ref_path.exists():
        reference = json.loads(ref_path.read_text(encoding="utf-8"))
        matches = reference == counts
        if not matches:
            ledger.fail("decisions_changed_between_runs")
    else:
        ref_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = ref_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
        os.replace(tmp, ref_path)
        matches = True
    return {"counts": counts, "inconsistent_classes": inconsistent,
            "matches_reference": matches, "reference": ref_path.name}


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def run(workload: Workload, seed: int, seconds: float, trace: bool,
        root: Path, results_dir: Path) -> Dict[str, object]:
    """Run one workload; returns the benchmark result document.

    The plane gets one shard per CPU the process was given, and a closed
    loop the workload's clients (as many as shards, unless it fixes them).
    """
    shards = len(os.sched_getaffinity(0))
    clients = workload.clients or shards
    workdir = results_dir / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    setups: List[float] = []
    for _ in range(SETUPS - 1):
        spare = Rig(workload, workdir, shards)
        setups.append(spare.setup_s)
        spare.close()
    rig = Rig(workload, workdir, shards)
    setups.append(rig.setup_s)
    try:
        with GcRecorder() as gc_rec:
            if workload.loop == "open":
                out = _run_open(rig, workload, seed, seconds, trace, gc_rec,
                                root, results_dir)
            else:
                out = _run_closed(rig, workload, seed, seconds, trace,
                                  gc_rec, clients, root, results_dir)
    finally:
        rig.close()
    out["e2e"]["setup_s"] = statistics.median(setups)
    out["setups_s"] = setups
    out["shards"] = shards
    out["clients"] = clients if workload.loop == "closed" else 0
    return out


def _phase_seeds(seed: int) -> Tuple[int, int]:
    """(storm seed, arrival seed), both derived from ``--seed`` alone."""
    return 1_000_003 * seed + 11, 1_000_003 * seed + 29


def _run_open(rig: Rig, workload: Workload, seed: int, seconds: float,
              trace: bool, gc_rec: GcRecorder, root: Path,
              results_dir: Path) -> Dict[str, object]:
    open_s = OPEN_SHARE * seconds
    sat_s = seconds - open_s
    storm_seed, arrival_seed = _phase_seeds(seed)
    offsets = poisson_offsets(workload.rate, open_s, arrival_seed)
    sat_n = int(workload.ticket_cap_per_s * sat_s) + 1
    storm = make_storm(workload, storm_seed, WARMUP_TICKETS + len(offsets)
                       + sat_n * (2 if trace else 1))
    warm = storm[:WARMUP_TICKETS]
    measured = storm[WARMUP_TICKETS:WARMUP_TICKETS + len(offsets)]
    rest = storm[WARMUP_TICKETS + len(offsets):]
    sat_a, sat_b = rest[:sat_n], rest[sat_n:]

    ledger = Ledger()
    tallies: List[DecisionTally] = []

    def body(tracer: Optional[Tracer] = None):
        tallies.append(DecisionTally())
        return session_body(workload, tallies[-1], tracer)

    # untimed back-to-back pass: fills the classifier memo and pools
    ledger.settle(saturate(rig.plane, warm, float("inf"), ADMIN,
                           body()).futures)
    warm_tally = tallies[-1]
    tracer = Tracer() if trace else None
    untraced_tps = 0.0
    if trace:
        gc.collect()
        untraced = saturate(rig.plane, sat_a, sat_s, ADMIN, body())
        untraced_tps = (_resolved(ledger.settle(untraced.futures))
                        / untraced.elapsed)
        sat_tickets = sat_b
    else:
        sat_tickets = sat_a

    open_ops = body(tracer)
    gc.collect()
    before = counters(rig.plane)
    gc_mark = gc_rec.mark()
    with (instrumented(rig, tracer) if trace else contextlib.nullcontext()):
        phase = open_loop(rig.plane, measured, offsets, ADMIN, open_ops)
        # after a fixed ticket list, before the rate-bound saturation
        rss_mb = peak_rss_mb()
        gc_pauses = gc_rec.since(gc_mark)
        open_counts = delta(counters(rig.plane), before)
        gc.collect()
        sat = saturate(rig.plane, sat_tickets, sat_s, ADMIN, body(tracer))
        rig.store.flush()
    open_results = ledger.settle(phase.futures)
    sat_results = ledger.settle(sat.futures)

    right, graded = (sum(x) for x in zip(
        accuracy(measured, open_results), accuracy(sat_tickets, sat_results)))
    latencies = phase.latencies()
    e2e = latency_stats(phase.intended, latencies, phase.started, open_s)
    e2e["throughput_tps"] = rate_stats(
        [d for d, r in zip(sat.done, sat_results) if r is not None
         and r.resolved], sat.started, sat_s)
    e2e["class_accuracy"] = _mean(right, graded)
    e2e["peak_rss_mb"] = rss_mb
    checks = check_outputs(rig, ledger)
    decisions = None
    if workload.body == "sessions":
        decisions = check_decisions(root, results_dir, workload, seed,
                                    warm_tally, len(warm), ledger, tallies)
    out: Dict[str, object] = {
        "e2e": e2e, "ledger": ledger, "checks": checks,
        "decisions": decisions,
        "phases": {"open": {"offered_rate": workload.rate,
                            "tickets": len(measured),
                            "elapsed_s": phase.elapsed},
                   "saturation": {"tickets": len(sat.futures),
                                  "elapsed_s": sat.elapsed}},
        "samples": {"latency": len(latencies)},
    }
    if trace:
        out["layers"] = layer_metrics(
            tracer, open_results, open_counts, gc_pauses,
            e2e["latency_p50_ms"], untraced_tps,
            _resolved(sat_results) / sat.elapsed,
            warm_tally if decisions is not None else None,
            send_lags=phase.send_lags(), submit_times=phase.submit_times())
        out["tracer"] = tracer
    return out


def _resolved(results: Sequence[object]) -> int:
    return sum(1 for r in results
               if r is not None and _field(r, "resolved"))


def _run_closed(rig: Rig, workload: Workload, seed: int, seconds: float,
                trace: bool, gc_rec: GcRecorder, clients: int, root: Path,
                results_dir: Path) -> Dict[str, object]:
    storm_seed, _ = _phase_seeds(seed)
    warm_n = WARMUP_HTTP_TICKETS if workload.http else WARMUP_TICKETS
    cap = int(workload.ticket_cap_per_s * seconds) + 1
    pre_s = (1.0 - OPEN_SHARE) * seconds if trace else 0.0
    pre_n = int(workload.ticket_cap_per_s * pre_s) + 1 if trace else 0
    storm = make_storm(workload, storm_seed, warm_n + pre_n + cap)
    warm = storm[:warm_n]
    pre = storm[warm_n:warm_n + pre_n]
    measured = storm[warm_n + pre_n:]

    ledger = Ledger()
    tallies: List[DecisionTally] = []

    def body(tracer: Optional[Tracer] = None):
        tallies.append(DecisionTally())
        return session_body(workload, tallies[-1], tracer)

    def loop(tickets: Sequence[StormTicket], secs: float, ops, mark=None):
        """One closed loop: (exchanges, results, start, elapsed)."""
        if rig.service is not None:
            # the daemon runs its own session body (``ops`` is installed
            # as its default while a traced block lasts)
            exchanges, start, elapsed = closed_loop(
                rig.service.config.host, rig.service.port, tickets, clients,
                secs, ADMIN, mark)
            return exchanges, ledger.settle_http(exchanges), start, elapsed
        exchanges, start, elapsed = closed_loop_plane(
            rig.plane, tickets, clients, secs, ADMIN, ops, mark)
        return (exchanges, ledger.settle([ex.future for ex in exchanges]),
                start, elapsed)

    # untimed pass over a fixed ticket list: fills the memo and pools
    loop(warm, float("inf"), body())
    warm_tally = tallies[-1]
    tracer = Tracer() if trace else None
    untraced_tps = 0.0
    if trace:
        gc.collect()
        _, pre_results, _, elapsed = loop(pre, pre_s, body())
        untraced_tps = _resolved(pre_results) / elapsed
    ops = body(tracer)
    rss_at = int(workload.rss_tickets_per_s * seconds)
    rss_mb: List[float] = []
    gc.collect()
    before = counters(rig.plane)
    gc_mark = gc_rec.mark()
    with (instrumented(rig, tracer, ops) if trace
          else contextlib.nullcontext()):
        exchanges, results, loop_start, elapsed = loop(
            measured, seconds, ops,
            mark=(rss_at, lambda: rss_mb.append(peak_rss_mb())))
        gc_pauses = gc_rec.since(gc_mark)
        loop_counts = delta(counters(rig.plane), before)
        rig.store.flush()
    right, graded = accuracy([ex.ticket for ex in exchanges], results)
    ok = [ex for ex, r in zip(exchanges, results) if r is not None]
    trips = [ex.round_trip for ex in ok]
    e2e = latency_stats([ex.sent for ex in ok], trips, loop_start, seconds)
    e2e["throughput_tps"] = rate_stats([ex.sent + ex.round_trip
                                        for ex in ok], loop_start, seconds)
    e2e["class_accuracy"] = _mean(right, graded)
    # a program too slow to reach the mark reads its peak at the end
    e2e["peak_rss_mb"] = rss_mb[0] if rss_mb else peak_rss_mb()
    checks = check_outputs(rig, ledger)
    decisions = None
    if workload.body == "sessions":
        decisions = check_decisions(root, results_dir, workload, seed,
                                    warm_tally, len(warm), ledger, tallies)
    out: Dict[str, object] = {
        "e2e": e2e, "ledger": ledger, "checks": checks,
        "decisions": decisions,
        "phases": {"closed": {"clients": clients, "http": workload.http,
                              "tickets": len(exchanges),
                              "elapsed_s": elapsed,
                              "rss_read_at_tickets": (
                                  rss_at if rss_mb else len(exchanges))}},
        "samples": {"latency": len(trips)},
    }
    if trace:
        overhead = ([ex.round_trip - r["latency_s"]
                     for ex, r in zip(exchanges, results) if r is not None]
                    if workload.http else ())
        out["layers"] = layer_metrics(
            tracer, results, loop_counts, gc_pauses, e2e["latency_p50_ms"],
            untraced_tps, _resolved(results) / elapsed,
            warm_tally if decisions is not None else None,
            submit_times=[ex.submit_s for ex in exchanges],
            http_overhead=overhead)
        out["tracer"] = tracer
    return out


# ----------------------------------------------------------------------
# per-layer metrics from the traced run
# ----------------------------------------------------------------------

#: span name -> the per-call duration metric it feeds
SPAN_METRICS = {
    "pool.acquire": "pool.acquire_ms",
    "pool.release": "pool.release_ms",
    "containit.login": "containit.login_ms",
    "session.ops": "session.ops_ms",
    "itfs.op": "itfs.op_ms",
    "netmon.connect": "netmon.connect_ms",
    "broker.call": "broker.call_ms",
    "store.put_trail": "store.put_trail_ms",
    "store.flush": "store.flush_ms",
}

#: every span the traced run records; each gets a self-time metric
SPAN_NAMES = ("controlplane.serve", "batching.classify",
              "classifier.classify", "pool.acquire", "pool.release",
              "containit.deploy", "containit.login", "session.ops",
              "itfs.op", "netmon.connect", "broker.call", "kernel.op",
              "store.put_trail", "store.flush", "service.parse",
              "service.submit_batch")


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    names = [
        "loadgen.send_lag_p99_ms",
        "service.http_overhead_p50_ms", "service.handler_ms",
        "controlplane.queue_wait_p50_ms", "controlplane.queue_wait_p99_ms",
        "controlplane.session_p50_ms", "controlplane.submit_p99_ms",
        "batching.memo_hit_ratio",
        "classifier.calls", "classifier.self_ms",
        "pool.acquire_ms", "pool.release_ms", "pool.hit_ratio",
        "pool.scrub_rebuilds",
        "containit.login_ms", "containit.deployments",
        "session.ops_ms", "itfs.op_ms", "itfs.ops", "netmon.connect_ms",
        "netmon.packets", "broker.call_ms", "broker.requests",
        "kernel.syscalls_per_ticket",
        "store.put_trail_ms", "store.flush_ms", "store.events_per_trail",
        "runtime.gc_pause_max_ms", "runtime.gc_gen2_collections",
        "trace.latency_p50_ms", "trace.unaccounted_share",
        "trace.overhead_ratio", "trace.spans_per_ticket",
    ]
    names += [f"self_ms.{span}" for span in SPAN_NAMES]
    names += [f"decisions.{kind}.{op}" for kind in ("allowed", "denied")
              for op in SESSION_OPS]
    return names


def layer_metrics(tracer: Tracer, results: Sequence[object],
                  counts: Dict[str, float],
                  gc_pauses: List[Tuple[int, float]], latency_p50_ms: float,
                  untraced_tps: float, traced_tps: float,
                  tally: Optional[DecisionTally],
                  send_lags: Sequence[float] = (),
                  submit_times: Sequence[float] = (),
                  http_overhead: Sequence[float] = ()) -> Dict[str, float]:
    """Per-layer numbers of the traced phase (open or closed loop).

    ``tally`` holds the warm-up's decisions, which repeat exactly.
    """
    done = [r for r in results if r is not None]
    n = len(done)
    ids = {_field(r, "session_id") for r in done}
    traces = {t: spans for t, spans in tracer.by_trace().items() if t in ids}
    spans = [s for t in traces.values() for s in t]
    flushes = [s for s in tracer.spans if s[3] == "store.flush"]
    calls: Dict[str, List[float]] = {}
    for s in spans + flushes:
        calls.setdefault(s[3], []).append(s[5] - s[4])
    selfs = self_times(spans)

    def per_call_ms(name: str) -> float:
        durations = calls.get(name, [])
        return 1e3 * _mean(sum(durations), len(durations))

    waits = [_field(r, "latency_s") - _field(r, "duration_s") for r in done]
    m: Dict[str, float] = {name: 0.0 for name in per_layer_names()}
    if send_lags:
        m["loadgen.send_lag_p99_ms"] = 1e3 * percentile(send_lags, 99)
    if submit_times:
        m["controlplane.submit_p99_ms"] = 1e3 * percentile(submit_times, 99)
    if http_overhead:
        m["service.http_overhead_p50_ms"] = 1e3 * percentile(
            http_overhead, 50)
        m["service.handler_ms"] = 1e3 * _mean(
            selfs.get("service.parse", 0.0)
            + selfs.get("service.submit_batch", 0.0), n)
    m["controlplane.queue_wait_p50_ms"] = 1e3 * percentile(waits, 50)
    m["controlplane.queue_wait_p99_ms"] = 1e3 * percentile(waits, 99)
    m["controlplane.session_p50_ms"] = 1e3 * percentile(
        [_field(r, "duration_s") for r in done], 50)
    memo = counts["memo_hit"] + counts["memo_miss"]
    m["batching.memo_hit_ratio"] = _mean(counts["memo_hit"], int(memo))
    m["classifier.calls"] = float(len(calls.get("classifier.classify", [])))
    m["classifier.self_ms"] = 1e3 * _mean(
        selfs.get("classifier.classify", 0.0),
        len(calls.get("classifier.classify", [])))
    for span, metric in SPAN_METRICS.items():
        m[metric] = per_call_ms(span)
    leases = counts["pool_hit"] + counts["pool_miss"]
    m["pool.hit_ratio"] = _mean(counts["pool_hit"], int(leases))
    m["pool.scrub_rebuilds"] = counts["scrub_rebuild"]
    m["containit.deployments"] = counts["deployments"]
    m["itfs.ops"] = counts["itfs_ops"]
    m["netmon.packets"] = counts["netmon_packets"]
    m["broker.requests"] = counts["broker_requests"]
    m["kernel.syscalls_per_ticket"] = _mean(counts["syscalls"], n)
    m["store.events_per_trail"] = _mean(
        sum(int(_field(r, "audit_records")) for r in done), n)
    m["runtime.gc_pause_max_ms"] = 1e3 * max(
        (p for _g, p in gc_pauses), default=0.0)
    m["runtime.gc_gen2_collections"] = float(
        sum(1 for g, _p in gc_pauses if g == 2))
    m["trace.latency_p50_ms"] = latency_p50_ms
    if untraced_tps:
        m["trace.overhead_ratio"] = traced_tps / untraced_tps
    m["trace.spans_per_ticket"] = _mean(len(spans), n)
    for span in SPAN_NAMES:
        m[f"self_ms.{span}"] = 1e3 * _mean(selfs.get(span, 0.0), n)
    # what queue wait plus per-layer self time leave of each ticket's
    # latency, taken at the median ticket
    accounted = []
    for r in done:
        own = traces.get(_field(r, "session_id"), [])
        wait = _field(r, "latency_s") - _field(r, "duration_s")
        accounted.append(wait + sum(self_times(own).values()))
    if latency_p50_ms:
        m["trace.unaccounted_share"] = (
            latency_p50_ms - 1e3 * percentile(accounted, 50)) / latency_p50_ms
    if tally is not None:
        for kind, table in tally.as_dict().items():
            for op, value in table.items():
                m[f"decisions.{kind}.{op}"] = float(value)
    return m


def write_report(out: Dict[str, object], workload: Workload, seed: int,
                 seconds: float, trace: bool, metrics: Dict[str, float],
                 results_dir: Path) -> Path:
    """The run as a ``watchit-experiment-report/v1`` ledger document."""
    ledger: Ledger = out["ledger"]  # type: ignore[assignment]
    flat: Dict[str, object] = dict(metrics)
    flat.update({k: v for k, v in out["e2e"].items() if k not in flat})
    flat.update({"attempted": ledger.attempted, "failed": ledger.failed,
                 "failed_ratio": _mean(ledger.failed, ledger.attempted)})
    report = ExperimentReport(
        name=f"perfbench-{workload.name}{'-traced' if trace else ''}",
        params={"workload": workload.name, "seed": seed,
                "seconds": seconds, "trace": trace, "loop": workload.loop,
                "offered_rate": workload.rate,
                "clients": out["clients"],
                "http": workload.http,
                "duplicate_rate": workload.duplicate_rate,
                "body": workload.body, "shards": out["shards"],
                "pool_size": POOL_SIZE, "workers": "thread",
                "store": "sqlite"},
        metrics=flat,
        artifacts={"failures": dict(ledger.failures),
                   "checks": out["checks"], "decisions": out["decisions"],
                   "phases": out["phases"], "samples": out["samples"],
                   "setups_s": out["setups_s"]})
    path = results_dir / (f"{workload.name}-seed{seed}"
                          f"{'-traced' if trace else ''}.json")
    report.write(path)
    tracer = out.get("tracer")
    if tracer is not None:
        tracer.write(results_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    return path
