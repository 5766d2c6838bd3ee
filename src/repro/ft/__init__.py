"""Fault tolerance: checkpointed flow state, replay-based failover,
transactional shared state.

A :class:`~repro.scale.cluster.ScaleCluster` survives replica death
with the classic snapshot + log recovery pair, built on the migration
machinery the cluster already trusts:

- :mod:`repro.ft.checkpoint` — periodic per-flow snapshots (classifier
  entry, Local/Global MAT rows, events, NF state) captured by reading
  the tables in place and copying only what a packet can change, then
  refreshed — counters and NF state read, the copy reused — while the
  flow's table rows stay the same.
- :mod:`repro.ft.pktlog` — a bounded per-replica input-packet log,
  trimmed at each checkpoint; recovery = restore the snapshot, then
  replay the logged packets through the normal pipeline.
- :mod:`repro.ft.faults` + :mod:`repro.ft.failover` — deterministic
  fault injection on the packet-index clock, and the coordinator that
  buffers in-flight packets, re-pins the dead replica's flows onto
  peers via the sharder, restores, replays, and delivers in order.
- :mod:`repro.ft.txstate` — a TransNFV-style transactional store with
  per-key optimistic concurrency and idempotent commits, backing the
  state that must be shared *across* replicas (NAT port pool, monitor
  aggregates) so recovery replay commits exactly once.

Every step is an audit event; ``repro obs report`` reads a run's
recoveries, checkpoint cadence and failure timeline back from its
record.  See ``docs/fault_tolerance.md`` for the protocol walk-through.
"""

from repro.ft.checkpoint import (
    CheckpointManager,
    FlowCheckpoint,
    capture_flow,
    restore_flow,
)
from repro.ft.failover import (
    DeadReplica,
    FailoverError,
    FaultTolerance,
    RecoveryReport,
)
from repro.ft.faults import FaultInjector
from repro.ft.pktlog import LogEntry, PacketLog
from repro.ft.txstate import (
    PortPoolExhausted,
    SharedAggregate,
    SharedPortPool,
    Transaction,
    TransactionalStore,
    TxnConflict,
)
from repro.core.verification import verify_equivalence_failover

__all__ = [
    "CheckpointManager",
    "DeadReplica",
    "FailoverError",
    "FaultInjector",
    "FaultTolerance",
    "FlowCheckpoint",
    "LogEntry",
    "PacketLog",
    "PortPoolExhausted",
    "RecoveryReport",
    "SharedAggregate",
    "SharedPortPool",
    "Transaction",
    "TransactionalStore",
    "TxnConflict",
    "capture_flow",
    "restore_flow",
    "verify_equivalence_failover",
]
