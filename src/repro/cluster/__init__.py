"""Sharded multi-worker serving: a consistent-hash router over replicas.

One ``repro.serve`` process saturates a core; this package scales the
service out by content hash.  A front-end router supervises N replica
subprocesses (each a full serve instance on its own port and cache
shard) and consistent-hashes canonical :class:`~repro.runtime.SimJob`
keys across them, so identical jobs always land on the same replica's
single-flight dedup and warm caches:

* :mod:`.ring` — the hash ring with virtual nodes (balance and
  minimal-disruption properties pinned by tests);
* :mod:`.wire` — the async one-shot HTTP client the router uses to
  talk to replicas;
* :mod:`.replica` — subprocess lifecycle: spawn, ``/healthz`` probing
  (busy vs hung), restart with backoff, operator drain;
* :mod:`.router` — the asyncio front end: the replicas' cache shards
  read before any recompute, placement, per-replica bounded in-flight
  with ``Retry-After`` shedding, transport-failure failover, fleet-wide
  ``/stats`` + ``/metrics``, and the ``cluster_forever`` /
  :class:`~.router.ClusterThread` hosts.

CLI: ``repro cluster --replicas N``; see ``docs/serving.md``.
"""

from .replica import ReplicaConfig, ReplicaSpawnError, ReplicaSupervisor, SubprocessReplica
from .ring import DEFAULT_VNODES, HashRing, ring_point
from .router import ClusterRouter, ClusterThread, cluster_forever

__all__ = [
    "HashRing",
    "ring_point",
    "DEFAULT_VNODES",
    "ReplicaConfig",
    "ReplicaSpawnError",
    "ReplicaSupervisor",
    "SubprocessReplica",
    "ClusterRouter",
    "ClusterThread",
    "cluster_forever",
]
