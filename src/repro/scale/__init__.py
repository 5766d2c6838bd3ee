"""Horizontal scaling: sharded chain replicas with correct flow migration.

The paper's prototype runs one chain instance; serving millions of flows
means replicating the chain across cores and moving flows between
replicas without breaking stateful NFs.  This package supplies the three
pieces:

- :mod:`repro.scale.sharder` — RSS-style five-tuple sharding onto
  equal-share replicas through an indirection table, with per-flow
  pins and minimal-remap repartitioning.
- :mod:`repro.scale.cluster` — :class:`ScaleCluster`, N independent
  ``SpeedyBox``+``Platform`` chain copies driven on one shared sim
  engine (optionally contending for a physical core pool), plus the
  freeze/buffer/replay migration choreography.
- :mod:`repro.scale.migration` — :class:`FlowMigrator`, the atomic
  transfer of a flow's classifier entry, Local/Global MAT rules, events
  and NF per-flow state; the record names its handlers and the target
  resolves them on its own NFs.

See ``docs/scaling.md`` for the protocol walk-through.
"""

from repro.scale.cluster import ChainReplica, ClusterLoadResult, ScaleCluster
from repro.scale.migration import (
    FlowMigrator,
    MigrationError,
    MigrationReport,
    chain_state_snapshot,
    check_same_shape,
    flow_walk,
)
from repro.scale.sharder import FlowSharder, IndirectionTable, shard_hash

__all__ = [
    "ChainReplica",
    "ClusterLoadResult",
    "FlowMigrator",
    "FlowSharder",
    "IndirectionTable",
    "MigrationError",
    "MigrationReport",
    "ScaleCluster",
    "chain_state_snapshot",
    "check_same_shape",
    "flow_walk",
    "shard_hash",
]
