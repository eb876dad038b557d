"""Load generators: open-loop arrivals, back-to-back saturation, HTTP clients.

Open loop: one generator thread sends each ticket at its scheduled time
whatever the state of the system, and each ticket is timed from that
*intended* time, so a stall is charged to every ticket it delays.

Saturation: the same thread submits back to back; ``ControlPlane.submit``
blocks on the bounded shard queue, so the plane sets the pace.

Closed loop: ``n`` client threads, each with one ticket in flight, send
the next only when the previous one is done. The clients either speak
HTTP over one keep-alive connection each, or call ``ControlPlane.submit``
in process and wait on the future.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import http.client
import itertools
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.service.wire import WIRE_SCHEMA
from repro.workload.storm import StormTicket


def poisson_offsets(rate: float, seconds: float, seed: int) -> List[float]:
    """Arrival offsets (s) of a Poisson process over ``seconds``."""
    rng = random.Random(seed)
    offsets: List[float] = []
    t = rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


@dataclass
class Phase:
    """What one load phase sent and when it completed (per ticket)."""

    tickets: Sequence[StormTicket]
    futures: list = field(default_factory=list)
    intended: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    returned: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    started: float = 0.0
    elapsed: float = 0.0

    def _stamp(self, index: int):
        def on_done(_future) -> None:
            self.done[index] = time.perf_counter()
        return on_done

    def submit(self, plane, index: int, admin: str, ops) -> None:
        ticket = self.tickets[index]
        self.sent.append(time.perf_counter())
        future = plane.submit(ticket.reporter, ticket.text, ticket.machine,
                              admin, ops=ops)
        self.returned.append(time.perf_counter())
        self.done.append(0.0)
        future.add_done_callback(self._stamp(index))
        self.futures.append(future)

    def latencies(self) -> List[float]:
        return [done - due for due, done in zip(self.intended, self.done)]

    def send_lags(self) -> List[float]:
        return [sent - due for due, sent in zip(self.intended, self.sent)]

    def submit_times(self) -> List[float]:
        return [r - s for s, r in zip(self.sent, self.returned)]


def open_loop(plane, tickets: Sequence[StormTicket],
              offsets: Sequence[float], admin: str, ops) -> Phase:
    """Send ``tickets[i]`` at ``offsets[i]``; returns once all are done."""
    phase = Phase(tickets=tickets)
    start = time.perf_counter() + 0.005
    phase.started = start
    for index, offset in enumerate(offsets):
        due = start + offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        phase.intended.append(due)
        phase.submit(plane, index, admin, ops)
    plane.drain()
    phase.elapsed = time.perf_counter() - start
    return phase


def saturate(plane, tickets: Sequence[StormTicket], seconds: float,
             admin: str, ops) -> Phase:
    """Submit back to back for ``seconds``, then drain."""
    phase = Phase(tickets=tickets)
    start = phase.started = time.perf_counter()
    deadline = start + seconds
    index = 0
    while index < len(tickets) and time.perf_counter() < deadline:
        phase.intended.append(time.perf_counter())
        phase.submit(plane, index, admin, ops)
        index += 1
    plane.drain()
    phase.elapsed = time.perf_counter() - start
    return phase


@dataclass
class Exchange:
    """One ticket of a closed loop: an HTTP request or an in-process call."""

    ticket: StormTicket
    sent: float = 0.0
    round_trip: float = 0.0
    #: HTTP: status and the decoded result (or the client-side error)
    status: int = 0
    result: Optional[dict] = None
    error: Optional[str] = None
    #: in process: the plane's future and how long ``submit`` took
    future: Optional[concurrent.futures.Future] = None
    submit_s: float = 0.0


def request_body(ticket: StormTicket, admin: str) -> bytes:
    return json.dumps({
        "schema": WIRE_SCHEMA, "admin": admin, "wait": True,
        "tickets": [{"reporter": ticket.reporter, "text": ticket.text,
                     "machine": ticket.machine}]}).encode("utf-8")


def _run_clients(n: int, clients: int, seconds: float, sender,
                 mark: Optional[Tuple[int, Callable[[], None]]] = None
                 ) -> "tuple[List[Exchange], float, float]":
    """``clients`` threads, each with one ticket in flight.

    Client ``c`` sends tickets ``c, c + clients, ...`` so the request
    stream is fixed by the ticket list. ``sender(c)`` is a context
    manager that yields the client's ``send(index) -> Exchange``.
    ``mark = (k, fn)`` calls ``fn()`` once ``k`` exchanges are done.
    Returns every exchange, the start time and the elapsed time.
    """
    per_client: List[List[Exchange]] = [[] for _ in range(clients)]
    start_gate = threading.Barrier(clients + 1)
    deadline = [0.0]
    finished = itertools.count(1)

    def client(c: int) -> None:
        with sender(c) as send:
            start_gate.wait()
            for index in range(c, n, clients):
                if time.perf_counter() >= deadline[0]:
                    break
                per_client[c].append(send(index))
                if mark is not None and next(finished) == mark[0]:
                    mark[1]()

    threads = [threading.Thread(target=client, args=(c,),
                                name=f"bench-client-{c}")
               for c in range(clients)]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    deadline[0] = start + seconds
    start_gate.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return [ex for mine in per_client for ex in mine], start, elapsed


def closed_loop(host: str, port: int, tickets: Sequence[StormTicket],
                clients: int, seconds: float, admin: str, mark=None
                ) -> "tuple[List[Exchange], float, float]":
    """``clients`` keep-alive HTTP connections, each one request at a time.

    Bodies are encoded before the clock starts; ``http.client`` sends
    headers and a bytes body in one write.
    """
    bodies = [request_body(t, admin) for t in tickets]
    headers = {"Content-Type": "application/json"}

    @contextlib.contextmanager
    def sender(_c: int):
        conn = http.client.HTTPConnection(host, port, timeout=60)

        def send(index: int) -> Exchange:
            nonlocal conn
            ex = Exchange(ticket=tickets[index], sent=time.perf_counter())
            try:
                conn.request("POST", "/tickets", bodies[index], headers)
                resp = conn.getresponse()
                payload = resp.read()
                ex.round_trip = time.perf_counter() - ex.sent
                ex.status = resp.status
                if resp.status == 200:
                    ex.result = json.loads(payload)["results"][0]
            except (OSError, http.client.HTTPException,
                    ValueError, KeyError, IndexError) as exc:
                ex.error = f"{type(exc).__name__}: {exc}"
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=60)
            return ex
        try:
            yield send
        finally:
            conn.close()

    return _run_clients(len(tickets), clients, seconds, sender, mark)


def closed_loop_plane(plane, tickets: Sequence[StormTicket], clients: int,
                      seconds: float, admin: str, ops, mark=None
                      ) -> "tuple[List[Exchange], float, float]":
    """``clients`` in-process submitters, each waiting for its ticket."""
    def send(index: int) -> Exchange:
        ticket = tickets[index]
        ex = Exchange(ticket=ticket, sent=time.perf_counter())
        try:
            ex.future = plane.submit(ticket.reporter, ticket.text,
                                     ticket.machine, admin, ops=ops)
        except Exception as exc:  # a refused submit is a failed ticket
            ex.future = concurrent.futures.Future()
            ex.future.set_exception(exc)
        ex.submit_s = time.perf_counter() - ex.sent
        concurrent.futures.wait([ex.future], timeout=60)
        ex.round_trip = time.perf_counter() - ex.sent
        return ex

    return _run_clients(len(tickets), clients, seconds,
                        lambda _c: contextlib.nullcontext(send), mark)
