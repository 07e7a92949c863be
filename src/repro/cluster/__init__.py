"""Fault-tolerant replicated serving: cluster nodes, router, chaos.

Production serving replicates the single-node stack: N identical model
replicas behind a router that health-checks them, balances new work onto
the least-loaded healthy replica, and fails in-flight work over when a
node dies.  This package builds that tier on the existing simulator —
every replica is a full :class:`~repro.serving.server.Server` on a
**shared** engine (one simulated clock for the whole cluster):

* :mod:`repro.cluster.interconnect` — the cross-node network, priced
  alpha-beta (:class:`CrossNodeInterconnect`);
* :mod:`repro.cluster.node` — :class:`ClusterNode`: one replica with
  crash/recover (fresh-incarnation) semantics;
* :mod:`repro.cluster.router` — :class:`Router`: health sweeps,
  affinity + least-loaded dispatch, failover with a retry budget, and the
  exactly-once completion gate;
* :mod:`repro.cluster.cluster` — :class:`Cluster`: construction, fault
  scheduling, the run loop, and :class:`ClusterResult`;
* :mod:`repro.cluster.chaos` — the seeded chaos harness
  (:func:`run_chaos`) and the runnable zero-cost identity check; the
  ``chaos`` command of :mod:`repro.cli` (``python -m repro chaos``) and
  ``python -m repro telemetry --replicas N`` drive it.

Quickstart::

    from repro.cluster import Cluster
    from repro.faults import FaultPlan, NodeCrash
    from repro.hw import v100_nvlink_node
    from repro.models import OPT_30B
    from repro.serving.workload import general_trace

    cluster = Cluster(
        OPT_30B.scaled_layers(4), v100_nvlink_node(4), replicas=3,
        fault_plan=FaultPlan([NodeCrash(start=50_000, end=400_000, node=1)]),
        check_memory=False,
    )
    result = cluster.run(general_trace(24, 40.0, 2, seed=0))
    print(result.summary())
    print(result.resilience.describe())
"""

from repro.cluster.chaos import (
    ChaosConfig,
    ChaosReport,
    check_single_replica_identity,
    run_chaos,
)
from repro.cluster.cluster import Cluster, ClusterResult
from repro.cluster.interconnect import CrossNodeInterconnect, batch_payload_bytes
from repro.cluster.node import ClusterNode
from repro.cluster.router import Router

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "Cluster",
    "ClusterNode",
    "ClusterResult",
    "CrossNodeInterconnect",
    "Router",
    "batch_payload_bytes",
    "check_single_replica_identity",
    "run_chaos",
]
