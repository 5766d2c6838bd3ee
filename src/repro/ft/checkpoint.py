"""Per-flow state snapshots: capture by reading, restore anywhere.

A checkpoint is everything :class:`~repro.scale.migration.FlowMigrator`
would move for one flow — classifier connection entry, Local MAT rules,
the consolidated Global MAT rule, registered events, and each NF's
per-flow state — but *copied*, not moved: the flow keeps running on its
replica after capture.

Capture **reads the SpeedyBox tables in place**
(:meth:`~repro.core.framework.SpeedyBox.peek_flow`: same wire-direction
walk and same classifier lookup as a migration, but nothing detaches),
so the runtime cannot tell it happened: no LRU order moves, the flow's
compiled fast lane stays, and the runtime's audit journal records
nothing.  Only the NFs' own per-flow state still takes the migration
pair — ``export_flow_state`` → ``import_flow_state`` of the very same
value, which the checkpoint stores as it is (an exported state is
immutable) — because that opaque state has no read-only accessor.

What was read is then copied by
:meth:`~repro.core.framework.FlowRecord.copy`, which leaves the
handlers out: a stored record names each one (NF name + method name),
so a checkpoint is plain data that references no NF object and pickles
on its own.  It also keeps the source chain's shape
(:func:`~repro.scale.migration.chain_signature`).  Restoring onto a
peer is the migration's install step,
:func:`~repro.scale.migration.install_flow`: copy the stored records
(the checkpoint stays pristine for a second failure), import them —
which resolves every handler on the target's NFs — and import the NF
states (``checkpoint_restore`` in the audit log; the flow's next packet
compiles its lane on the new home).

:class:`CheckpointManager` holds the latest snapshot per flow across a
:class:`~repro.scale.cluster.ScaleCluster`, each stamped with the
replica's input-log position (:mod:`repro.ft.pktlog`) at capture —
recovery restores the snapshot and replays only log entries past it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.framework import FlowRecord, ServiceChain, SpeedyBox
from repro.net.flow import FiveTuple
from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.scale.migration import (
    ChainSignature,
    NFStateItem,
    chain_signature,
    check_same_shape,
    flow_walk,
    install_flow,
)

Runtime = Union[ServiceChain, SpeedyBox]


@dataclass
class FlowCheckpoint:
    """One flow's snapshot, detached from any replica's lifetime."""

    flow: FiveTuple  # canonical primary key
    replica_id: int  # home replica at capture time
    log_seq: int  # the replica input-log position at capture
    #: the source chain's shape, which a restore target must have
    chain: ChainSignature = ()
    directions: Tuple[FiveTuple, ...] = ()
    #: SpeedyBox table copies, one per live direction; handlers named,
    #: not held
    records: List[FlowRecord] = field(default_factory=list)
    nf_states: List[NFStateItem] = field(default_factory=list)

    def item_count(self) -> int:
        return len(self.records) + len(self.nf_states)


def capture_flow(
    runtime: Runtime,
    flow: FiveTuple,
    replica_id: int = 0,
    log_seq: int = 0,
) -> Optional[FlowCheckpoint]:
    """Snapshot one flow without disturbing it (read → copy).

    Returns ``None`` when the runtime holds nothing for the flow.  The
    SpeedyBox tables are only read; each NF's own state is exported and
    handed straight back to the same NF.
    """
    key = flow.canonical()
    nfs = list(runtime.nfs)
    walk = flow_walk(nfs, key)

    records: List[FlowRecord] = []
    if isinstance(runtime, SpeedyBox):
        for direction in walk:
            fid = runtime.classifier.fid_for(direction)
            if fid is not None:
                records.append(runtime.peek_flow(fid).copy())
    # Every state is exported before any is handed back: the walk above
    # read the mappings (NAT) that export removes, and a state handed
    # back early would be exported again on the flow's other direction.
    live_states = [
        (nf, observed_key, nf.export_flow_state(observed_key))
        for observed in walk.values()
        for nf, observed_key in zip(nfs, observed)
    ]
    nf_states: List[NFStateItem] = []
    for nf, observed_key, state in live_states:
        if state is not None:
            nf.import_flow_state(observed_key, state)
            nf_states.append((nf.name, observed_key, state))

    if not records and not nf_states:
        return None
    return FlowCheckpoint(
        flow=key,
        replica_id=replica_id,
        log_seq=log_seq,
        chain=chain_signature(nfs),
        directions=tuple(walk),
        records=records,
        nf_states=nf_states,
    )


def restore_flow(checkpoint: FlowCheckpoint, runtime: Runtime) -> None:
    """Install a checkpoint into ``runtime``.

    ``runtime`` must have the checkpointed chain's shape
    (:class:`~repro.scale.migration.MigrationError` otherwise, before
    anything is installed).  The stored records are copied first, so the
    checkpoint stays reusable (a second failure on the new home can
    restore from it again until a fresher snapshot replaces it).
    """
    check_same_shape(checkpoint.chain, runtime.nfs)
    install_flow(runtime, checkpoint.records, checkpoint.nf_states, reason="checkpoint_restore")


class CheckpointManager:
    """Latest-snapshot-per-flow index across a cluster's replicas."""

    def __init__(
        self,
        cluster,
        audit: AuditLog = NULL_AUDIT,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ):
        self.cluster = cluster
        self.audit = audit
        #: primary canonical key -> latest checkpoint
        self._snapshots: Dict[FiveTuple, FlowCheckpoint] = {}
        #: any direction's canonical key -> primary key
        self._by_direction: Dict[FiveTuple, FiveTuple] = {}
        self.checkpoints_taken = 0
        self.flows_captured = 0
        self._m_checkpoints = metrics.counter(
            "ft_checkpoints_total", "replica-wide checkpoint rounds taken"
        )
        self._m_flows = metrics.counter(
            "ft_flows_captured_total", "per-flow snapshots captured"
        )

    # -- capture -------------------------------------------------------------

    def snapshot_replica(self, replica_id: int, log_seq: int, cause: str = "interval") -> int:
        """Capture every flow homed on the replica; returns flows captured."""
        runtime = self.cluster.replicas[replica_id].runtime
        seen: set = set()
        captured = 0
        for key in sorted(self.cluster.flows_homed_on(replica_id)):
            if key in seen:
                continue
            checkpoint = capture_flow(
                runtime, key, replica_id=replica_id, log_seq=log_seq
            )
            if checkpoint is None:
                # The flow's state is gone (closed since last round): a
                # stale snapshot must not resurrect it at recovery.
                self.drop_flow(key)
                seen.add(key)
                continue
            for direction in checkpoint.directions:
                seen.add(direction.canonical())
            self.store(checkpoint)
            captured += 1
        self.checkpoints_taken += 1
        self._m_checkpoints.inc()
        self._m_flows.inc(captured)
        self.audit.emit(
            "ft_checkpoint",
            replica=replica_id,
            flows=captured,
            log_seq=log_seq,
            cause=cause,
        )
        return captured

    def snapshot_flow(
        self, replica_id: int, flow: FiveTuple, log_seq: int
    ) -> Optional[FlowCheckpoint]:
        """Capture one flow right after it migrates onto a replica."""
        runtime = self.cluster.replicas[replica_id].runtime
        checkpoint = capture_flow(runtime, flow, replica_id=replica_id, log_seq=log_seq)
        if checkpoint is not None:
            self.store(checkpoint)
            self._m_flows.inc()
            self.audit.emit(
                "ft_checkpoint",
                replica=replica_id,
                flows=1,
                flow=str(checkpoint.flow),
                log_seq=log_seq,
                cause="migrated_in",
            )
        return checkpoint

    def store(self, checkpoint: FlowCheckpoint) -> None:
        self.drop_flow(checkpoint.flow)
        self._snapshots[checkpoint.flow] = checkpoint
        for direction in checkpoint.directions:
            self._by_direction[direction.canonical()] = checkpoint.flow

    # -- lookup / lifecycle --------------------------------------------------

    def snapshot_for(self, key: FiveTuple) -> Optional[FlowCheckpoint]:
        """The checkpoint covering this wire direction, if any."""
        primary = self._by_direction.get(key.canonical())
        if primary is None:
            return None
        return self._snapshots.get(primary)

    def drop_flow(self, key: FiveTuple) -> Optional[FlowCheckpoint]:
        """Forget the checkpoint covering ``key`` (migrated / closed)."""
        primary = self._by_direction.get(key.canonical(), key.canonical())
        checkpoint = self._snapshots.pop(primary, None)
        if checkpoint is not None:
            for direction in checkpoint.directions:
                self._by_direction.pop(direction.canonical(), None)
        return checkpoint

    def __len__(self) -> int:
        return len(self._snapshots)

    def __repr__(self) -> str:
        return (
            f"<CheckpointManager {len(self._snapshots)} flows, "
            f"{self.checkpoints_taken} rounds>"
        )
