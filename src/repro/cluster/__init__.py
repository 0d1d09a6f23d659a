"""Scatter-gather serving of reverse rank queries over worker processes.

The paper's answers compose exactly across any partition of ``W``
(RTK = union, RKR = k-smallest merge with the library tie-break), so a
cluster of workers each owning a weight slice answers byte-identically
to a single node over the full data — this package is that composition
across a process/HTTP boundary, the one place ``W`` is split:

* :mod:`~repro.cluster.topology` — the membership manifest, the
  ``range``/``mod`` weight partitioners, and rebalance plans;
* :mod:`~repro.cluster.coordinator` — concurrent fan-out, exact merge,
  per-shard circuit breakers, degraded-but-exact partial failure, and
  ownership-aware mutation routing;
* :mod:`~repro.cluster.router_server` — the HTTP front door (single-node
  JSON API plus ``/cluster/healthz`` and ``/cluster/topology``), with
  ``X-Trace-Id`` propagated into every shard sub-request;
* :mod:`~repro.cluster.launcher` — N local worker subprocesses + the
  coordinator, for dev, tests, and ``repro-rrq cluster``.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "coordinator": ["ClusterCoordinator"],
    "launcher": ["LocalCluster", "WorkerProcess"],
    "router_server": ["ClusterHTTPServer", "ClusterService",
                      "make_cluster_server", "serve_cluster_in_background"],
    "topology": ["PARTITIONERS", "ClusterTopology", "ShardSpec",
                 "partition_weight_indices"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "PARTITIONERS",
    "ClusterCoordinator",
    "ClusterHTTPServer",
    "ClusterService",
    "ClusterTopology",
    "LocalCluster",
    "ShardSpec",
    "WorkerProcess",
    "make_cluster_server",
    "partition_weight_indices",
    "serve_cluster_in_background",
]
