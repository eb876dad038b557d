"""Serial/plane parity: a scrubbed pooled container decides exactly like a
fresh one.

The same storm is served twice with one multi-op session body: through
the ``repro.api`` facade (a fresh deployment per ticket) and through a
one-shard thread-mode control plane (warm pooled containers, scrubbed
between tenants). Both run the one Figure 3 session core, so every
ticket must be classified alike and leave the same ordered decision
trail in the store.
"""

from repro.api import Deployment
from repro.controlplane import ControlPlane
from repro.errors import ReproError
from repro.workload.storm import STORM_USERS, generate_storm

ADMIN = "it-duty"
#: three workstations for four users: each machine serves every user in
#: turn, so pooled containers change tenants between leases
MACHINES = ("ws-01", "ws-02", "ws-03")


def _attempt(action) -> None:
    try:
        action()
    except ReproError:
        pass  # a monitor's deny is a decision, recorded in the trail


def mixed_ops(shell, client) -> None:
    """Module-level session body touching every monitor."""
    home = f"/home/{shell.container.user}"
    _attempt(lambda: shell.listdir(home))
    _attempt(lambda: shell.read_file(f"{home}/matlab/license.lic"))
    _attempt(lambda: shell.write_file(f"{home}/notes.txt", b"seen\n",
                                      append=True))
    _attempt(lambda: shell.read_file("/etc/passwd"))
    _attempt(lambda: shell.write_file("/tmp/diagnostics.txt", b"diag\n"))
    _attempt(lambda: shell.connect("10.0.1.10", 27000))  # license-server
    _attempt(shell.ps)
    _attempt(lambda: client.pb("ps -a"))


def _decisions(trail):
    return [(e.stream, e.op, e.path, e.decision, e.rule)
            for e in trail.events]


def test_pooled_sessions_decide_like_fresh_ones():
    storm = generate_storm(n=48, seed=5, machines=MACHINES)

    serial = Deployment.create(machines=MACHINES, users=STORM_USERS)
    serial.register_admin(ADMIN)
    serial_trails = []
    for item in storm:
        ticket = serial.submit(item.reporter, item.text, machine=item.machine)
        result = serial.handle(
            ticket, admin=ADMIN,
            run=lambda s: mixed_ops(s.shell, s.client))
        serial_trails.append(serial.session_trail(result.session_id))

    with ControlPlane(machines=MACHINES, users=STORM_USERS, shards=1,
                      pool_size=1) as plane:
        plane.register_admin(ADMIN)
        futures = plane.submit_many(
            [(t.reporter, t.text, t.machine) for t in storm], ADMIN,
            ops=mixed_ops)
        plane_trails = [plane.store.get_trail(f.result(timeout=60).session_id)
                        for f in futures]
        hits = plane.pool_hit_rate()

    assert hits > 0.5  # most sessions really ran on a reused container
    for item, fresh, pooled in zip(storm, serial_trails, plane_trails):
        assert fresh.session.resolved and pooled.session.resolved
        assert fresh.session.ticket_class == pooled.session.ticket_class, \
            item.text
        assert _decisions(fresh) == _decisions(pooled), item.text
        assert fresh.events  # the body reached the monitors
