"""The concurrent multi-tenant control plane (the repo's scalability layer).

Serial :class:`~repro.framework.orchestrator.WatchITDeployment` handles one
ticket at a time on one simulated kernel. This package runs many Figure 3
sessions concurrently, each through that same orchestrator lifecycle:

* :mod:`repro.controlplane.sharding` — N independent simulated kernels
  (shards); tickets hash-route by workstation, so one workstation's state
  always lives on one shard.
* :mod:`repro.controlplane.pool` — pre-warmed per-ticket-class container
  pools with scrub-on-release isolation: a released container is reset
  (mounts, firewall, ITFS caches, audit epochs) and the reset is *verified*
  before the container may serve the next tenant; anything unverifiable is
  discarded, never reused.
* :mod:`repro.controlplane.batching` — memoized + batched classification:
  one model inference per unique preprocessed ticket text.
* :mod:`repro.controlplane.serving` — :class:`ShardServer`, the
  per-ticket caller of the shard org's Figure 3 session
  (:meth:`~repro.framework.orchestrator.WatchITDeployment.handle` /
  ``resolve``, the same lifecycle the serial path runs), identical under
  both worker modes. Each shard's org leases its containers from the
  shard's pool; that is the only difference from serial serving.
* :mod:`repro.controlplane.channel` — the pickle-safe envelope protocol
  (tickets, results, typed errors, control RPCs) that crosses the
  process boundary in ``workers="process"`` mode.
* :mod:`repro.controlplane.executor` — the bounded worker executor tying
  it together: per-shard backpressure queues, thread *or* process shard
  workers, crash detection with fail-fast stranded futures, graceful
  drain, and :mod:`repro.obs` instrumentation (queue depth, pool hit
  rate, session latency histograms).
"""

from repro.controlplane.batching import BatchingClassifier
from repro.controlplane.executor import (
    WORKER_MODES,
    ControlPlane,
    default_session_ops,
)
from repro.controlplane.pool import ContainerPool, PooledDeployment
from repro.controlplane.serving import ShardServer
from repro.controlplane.sharding import KernelShard, ShardPlan, ShardRouter

__all__ = [
    "BatchingClassifier",
    "ContainerPool",
    "ControlPlane",
    "KernelShard",
    "PooledDeployment",
    "ShardPlan",
    "ShardRouter",
    "ShardServer",
    "WORKER_MODES",
    "default_session_ops",
]
