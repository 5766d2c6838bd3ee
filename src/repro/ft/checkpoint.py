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
pair — ``export_flow_state`` → copy → ``import_flow_state`` of the very
same object — because that opaque state has no read-only accessor.

What was read is then copied by one ``copy.deepcopy`` call, and the
classes in a :class:`~repro.core.framework.FlowRecord` declare what
that costs (their ``__deepcopy__``):

- *atomic* — ``FiveTuple``, ``FieldOp``, every ``HeaderAction``,
  ``ConsolidatedAction`` return themselves.  They are values: an NF
  builds one when it records, and from then on the MATs only ever
  *replace* them (an event swaps the action list, a reconsolidation
  installs a new rule).  Nothing a later packet does can reach into
  the snapshot through a shared one.
- *shells* — ``FlowEntry``, ``LocalRule``, ``StateFunction``,
  ``StateFunctionBatch``, ``ParallelSchedule``, ``GlobalRule`` and
  ``FlowRecord`` copy exactly the slots a packet, an event or a rebind
  can change (counters, connection flags, the action *list*, handlers)
  and pass the memo down, so a batch a Local MAT rule shares with the
  Global MAT schedule is still one batch in the copy.
- *generic* — handler ``args``, ``Event`` objects and NF state take
  ``copy``'s ordinary walk.

The memo is seeded ``id(nf) -> nf`` for every chain NF, so recorded
handlers in the *stored* copy remain bound methods of the source
replica's NF objects, exactly like a freshly exported migration record.
Restoring onto a peer is then literally the migration import path:
deep-copy the stored record (the checkpoint stays pristine for a second
failure), :func:`~repro.scale.migration.rebind_record` from the dead
replica's NFs to the target's, and import (``checkpoint_restore`` in
the audit log; the flow's next packet compiles its lane on the new
home).

:class:`CheckpointManager` holds the latest snapshot per flow across a
:class:`~repro.scale.cluster.ScaleCluster`, each stamped with the
replica's input-log position (:mod:`repro.ft.pktlog`) at capture —
recovery restores the snapshot and replays only log entries past it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.framework import FlowRecord, ServiceChain, SpeedyBox
from repro.net.flow import FiveTuple
from repro.nf.base import NetworkFunction
from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.scale.migration import (
    check_same_shape,
    observed_tuples,
    rebind_record,
    wire_directions,
)

Runtime = Union[ServiceChain, SpeedyBox]

#: (nf name, observed five-tuple, opaque NF state)
NFStateItem = Tuple[str, FiveTuple, object]


@dataclass
class FlowCheckpoint:
    """One flow's snapshot, detached from any replica's lifetime."""

    flow: FiveTuple  # canonical primary key
    replica_id: int  # home replica at capture time
    log_seq: int  # the replica input-log position at capture
    directions: Tuple[FiveTuple, ...] = ()
    #: SpeedyBox table copies, one per live direction; handlers still
    #: bound to the *source* replica's NF objects
    records: List[FlowRecord] = field(default_factory=list)
    nf_states: List[NFStateItem] = field(default_factory=list)

    def covers(self, key: FiveTuple) -> bool:
        return any(direction.canonical() == key for direction in self.directions)

    def item_count(self) -> int:
        return len(self.records) + len(self.nf_states)


def _identity_memo(nfs: Sequence[NetworkFunction]) -> Dict[int, object]:
    """A deepcopy memo that keeps every chain NF shared, not copied."""
    return {id(nf): nf for nf in nfs}


def capture_flow(
    runtime: Runtime,
    flow: FiveTuple,
    replica_id: int = 0,
    log_seq: int = 0,
) -> Optional[FlowCheckpoint]:
    """Snapshot one flow without disturbing it (read → copy).

    Returns ``None`` when the runtime holds nothing for the flow.  The
    SpeedyBox tables are only read; each NF's own state is exported,
    copied and handed straight back to the same NF.
    """
    key = flow.canonical()
    nfs = list(runtime.nfs)
    directions = tuple(wire_directions(nfs, key))

    records: List[FlowRecord] = []
    if isinstance(runtime, SpeedyBox):
        for direction in directions:
            fid = runtime.classifier.fid_for(direction)
            if fid is not None:
                records.append(runtime.peek_flow(fid))
    # Every observed key is derived before any NF state detaches: the
    # walk reads the mappings (NAT) that export removes.
    observed = [
        (nf, observed_key)
        for direction in directions
        for nf, observed_key in zip(nfs, observed_tuples(nfs, direction))
    ]
    live_states = []
    for nf, observed_key in observed:
        state = nf.export_flow_state(observed_key)
        if state is not None:
            live_states.append((nf, observed_key, state))

    if not records and not live_states:
        return None

    stored_records, stored_states = copy.deepcopy(
        (records, [state for __, __, state in live_states]), _identity_memo(nfs)
    )
    nf_states: List[NFStateItem] = []
    for (nf, observed_key, state), stored in zip(live_states, stored_states):
        nf.import_flow_state(observed_key, state)
        nf_states.append((nf.name, observed_key, stored))

    return FlowCheckpoint(
        flow=key,
        replica_id=replica_id,
        log_seq=log_seq,
        directions=directions,
        records=stored_records,
        nf_states=nf_states,
    )


def restore_flow(
    checkpoint: FlowCheckpoint,
    runtime: Runtime,
    src_nfs: Sequence[NetworkFunction],
) -> int:
    """Install a checkpoint into ``runtime``; returns handlers rebound.

    ``src_nfs`` are the NFs the stored handlers are bound to — the dead
    replica's chain, kept alive in the coordinator's graveyard precisely
    so this rebind has its source objects; they must pair up with
    ``runtime.nfs`` NF for NF (:class:`MigrationError` otherwise).  The
    checkpoint itself is deep-copied first and stays reusable (a second
    failure on the new home can restore from it again until a fresher
    snapshot replaces it).
    """
    check_same_shape(src_nfs, runtime.nfs)
    records, nf_states = copy.deepcopy(
        (checkpoint.records, checkpoint.nf_states), _identity_memo(src_nfs)
    )
    rebound = 0
    if isinstance(runtime, SpeedyBox):
        for record in records:
            rebound += rebind_record(record, src_nfs, runtime.nfs)
            runtime.import_flow(record, reason="checkpoint_restore")
    nf_by_name = {nf.name: nf for nf in runtime.nfs}
    for name, observed_key, state in nf_states:
        nf_by_name[name].import_flow_state(observed_key, state)
    return rebound


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
        self, replica_id: int, flow: FiveTuple, log_seq: int, cause: str = "single"
    ) -> Optional[FlowCheckpoint]:
        """Capture one flow (e.g. right after it migrates onto a replica)."""
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
                cause=cause,
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

    def snapshots_for_replica(self, replica_id: int) -> List[FlowCheckpoint]:
        return [
            checkpoint
            for checkpoint in self._snapshots.values()
            if checkpoint.replica_id == replica_id
        ]

    def __len__(self) -> int:
        return len(self._snapshots)

    def __repr__(self) -> str:
        return (
            f"<CheckpointManager {len(self._snapshots)} flows, "
            f"{self.checkpoints_taken} rounds>"
        )
