"""The benchmark workloads and the session bodies they run.

Each workload fixes its loop type, its offered rate (open loop) or client
count (closed loop), its duplicate rate and its session body. The ticket
generator and its seed belong to the benchmark: the program under test
only ever sees the generated tickets.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ReproError

#: Administrator every session runs as.
ADMIN = "it-duty"


@dataclass(frozen=True)
class Workload:
    """One traffic mix."""

    name: str
    #: "open" (Poisson arrivals at ``rate``) or "closed" (``clients``
    #: clients, each with one ticket in flight)
    loop: str
    #: closed-loop clients speak HTTP to the daemon (else they call
    #: ``ControlPlane.submit`` in process)
    http: bool
    #: offered tickets/s of the open-loop phase; 0 for the closed loop
    rate: float
    duplicate_rate: float
    #: "default" (the program's own minimal body) or "sessions"
    body: str
    #: upper bound on tickets/s the saturation phase could ever reach;
    #: sizes the generated storm so that it never runs dry
    ticket_cap_per_s: int
    why: str
    #: closed loop: ``peak_rss_mb`` is read once this many tickets per
    #: second of the run are done, about half of what the seed serves, so
    #: that it measures a fixed amount of work (the program's memory grows
    #: with every ticket served) and a faster program does not read larger
    rss_tickets_per_s: int = 0
    #: closed loop: client threads; 0 means one per core
    clients: int = 0


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("storm-rich", "open", False, 250.0, 0.9, "default", 4000,
             "open loop, Poisson 250/s, 90% duplicate reports: executor "
             "queues, warm pool leases and store commits; LDA mostly "
             "skipped by the memo"),
    Workload("tickets-unique", "open", False, 60.0, 0.0, "default", 1500,
             "open loop, Poisson 60/s, every report distinct: each ticket "
             "pays a full LDA fold-in, so a classifier gain shows here "
             "alone"),
    Workload("sessions-work", "open", False, 110.0, 0.9, "sessions", 1200,
             "open loop, Poisson 110/s, 11-op admin session: kernel, ITFS, "
             "netmon and broker monitors, rebuild scrub and ~5 audit "
             "events per trail"),
    Workload("sessions-closed", "closed", False, 0.0, 0.9, "sessions", 1200,
             "closed loop in process, one submitter, one ticket in flight, "
             "the 11-op admin session of sessions-work: kernel, ITFS, "
             "netmon, broker, rebuild scrub, ~5 audit events per trail",
             rss_tickets_per_s=110, clients=1),
    Workload("front-door", "closed", True, 0.0, 0.9, "default", 200,
             "closed loop over HTTP, one keep-alive client per core, "
             "90% duplicates: the only workload crossing repro.service",
             rss_tickets_per_s=22),
)}


class DecisionTally:
    """Allow/deny counts per session-op kind, shared by worker threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.allowed: Dict[str, int] = {op: 0 for op in SESSION_OPS}
        self.denied: Dict[str, int] = {op: 0 for op in SESSION_OPS}
        #: ticket class -> the tuple of per-op outcomes its sessions had
        self.by_class: Dict[str, set] = {}

    def record(self, ticket_class: str, outcomes: Tuple[bool, ...]) -> None:
        with self._lock:
            for op, ok in zip(SESSION_OPS, outcomes):
                if ok:
                    self.allowed[op] += 1
                else:
                    self.denied[op] += 1
            self.by_class.setdefault(ticket_class, set()).add(outcomes)

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        return {"allowed": dict(self.allowed), "denied": dict(self.denied)}

    def inconsistent_classes(self) -> List[str]:
        """Classes whose sessions did not all decide alike.

        A session's decisions are a function of its ticket class (the
        class picks the perforation policy), so two sessions of one class
        that decided differently point at state leaking between leases.
        """
        return sorted(cls for cls, seen in self.by_class.items()
                      if len(seen) > 1)


def _home(shell) -> str:
    return f"/home/{shell.container.user}"


#: The fixed admin session of ``sessions-work`` and ``sessions-closed``:
#: (op kind, the span a traced run records around it, action). ``/tmp``
#: lives on conFS, so the write there dirties it and forces the pool's
#: rebuild scrub.
SESSION_OPS_TABLE = (
    ("ls_home", "itfs.op", lambda sh, cl: sh.listdir(_home(sh))),
    ("read_home", "itfs.op", lambda sh, cl: sh.read_file(
        f"{_home(sh)}/matlab/license.lic")),
    ("append_notes", "itfs.op", lambda sh, cl: sh.write_file(
        f"{_home(sh)}/notes.txt", b"checked by it-duty\n", append=True)),
    ("ls_etc", "itfs.op", lambda sh, cl: sh.listdir("/etc")),
    ("read_passwd", "itfs.op", lambda sh, cl: sh.read_file("/etc/passwd")),
    ("write_tmp", "itfs.op", lambda sh, cl: sh.write_file(
        "/tmp/diagnostics.txt", b"diagnostics\n")),
    ("connect_license", "netmon.connect", lambda sh, cl: sh.connect(
        "10.0.1.10", 27000)),
    ("ps", "kernel.op", lambda sh, cl: sh.ps()),
    ("pb_ps", "broker.call", lambda sh, cl: cl.pb("ps -a")),
    ("host_info", "broker.call", lambda sh, cl: cl.host_info()),
    ("hostname", "kernel.op", lambda sh, cl: sh.hostname()),
)
SESSION_OPS = tuple(op for op, _span, _fn in SESSION_OPS_TABLE)


def run_op(action, shell, client) -> bool:
    """Run one op; True when the monitors allowed it.

    A :class:`ReproError` is the monitors' deny (or a fail-closed
    refusal), and a broker reply with ``ok=False`` is the broker's deny:
    both are decisions, not failures of the session.
    """
    try:
        reply = action(shell, client)
    except ReproError:
        return False
    return getattr(reply, "ok", True) is not False
