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
nothing.  The NFs' own per-flow state is read in place as well
(:meth:`~repro.nf.base.NetworkFunction.peek_flow_state`: the value
``export_flow_state`` would detach, which is immutable, so the
checkpoint stores it as it is).

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

**Refresh.**  A flow's Global MAT rule is built once and changes only
when an event fires or the flow re-records, so between two rounds an
established flow's tables stay the very same rows and only their
counters move.  The first capture of a flow (:func:`capture_flow`, the
full read and copy) therefore also keeps a *standing snapshot*: the
walk, the live rows it read per direction, and the copy (the
skeleton, which nothing mutates afterwards).  A later round on the same
replica checks that the rows are still the ones the tables hold — same
FIDs, same entry, Local MAT rules, action lists, batches and events, the
same rule version, no direction gained or lost a FID — and, when a packet
took the original path on the replica since, or a flow was torn down,
migrated or restored, that the walk is the same; then it reads only the
counters and the NF states into a checkpoint that shares the skeleton
and takes the old one's place.  Anything else takes the full capture
again.  Its ``records`` are materialized when first read.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.core.framework import FlowRecord, ServiceChain, SpeedyBox
from repro.core.state_function import StateFunction
from repro.net.flow import FiveTuple
from repro.nf.base import NetworkFunction
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

#: (NF, the five-tuple it observes) for every NF on every walked direction
ObservedKeys = List[Tuple[NetworkFunction, FiveTuple]]


def _counted(record: FlowRecord):
    """The objects of ``record`` whose counters move while its rows stay:
    the entry, each Local MAT rule, the Global MAT rule, each distinct
    state function (reached through the Local MAT batches, then the
    schedule, then the events' update functions) and each event.  A
    :meth:`FlowRecord.copy` lists them in the same order as its original.
    """
    batches = [local.sf_batch for local in record.local_rules.values()]
    if record.global_rule is not None:
        batches.extend(batch for wave in record.global_rule.schedule.waves for batch in wave)
    batches.extend(event.update_state_functions or () for event in record.events)
    # Keyed by identity; a function reached again keeps its first place.
    functions: Dict[int, StateFunction] = {
        id(function): function for batch in batches for function in batch
    }
    return (
        record.classifier_entry,
        list(record.local_rules.values()),
        record.global_rule,
        list(functions.values()),
        record.events,
    )


def _apply_counters(record: FlowRecord, counters: tuple) -> None:
    """Write a :meth:`_Rows.read` reading into a copied record."""
    entry, local_rules, rule, functions, events = _counted(record)
    entry_counts, local_counts, rule_hits, invocations, event_counts = counters
    entry.packets, entry.established, entry.closed = entry_counts
    for local, event_count in zip(local_rules, local_counts):
        local.event_count = event_count
    if rule is not None:
        rule.hits = rule_hits
    for function, count in zip(functions, invocations):
        function.invocations = count
    for event, (triggered, trigger_count) in zip(events, event_counts):
        event.triggered = triggered
        event.trigger_count = trigger_count


class _Rows:
    """One walked direction's live table rows, as a full capture read them."""

    __slots__ = ("fid", "entry", "shells", "version", "events", "functions")

    def __init__(self, fid: int, runtime: SpeedyBox, live: FlowRecord):
        self.fid = fid
        self.entry, __, rule, self.functions, self.events = _counted(live)
        #: every Local MAT with the rule it held (``None``: none), and
        #: that rule's action list and batch
        self.shells = []
        for name, local_mat in runtime.local_mats.items():
            local = live.local_rules.get(name)
            if local is None:
                self.shells.append((local_mat, None, None, None, None))
            else:
                batch = local.sf_batch
                self.shells.append((local_mat, local, local.header_actions, batch, len(batch)))
        self.version = None if rule is None else rule.version

    def read(self, runtime: SpeedyBox) -> Optional[tuple]:
        """The rows' counters, in :func:`_apply_counters`'s order, or
        ``None`` when the tables no longer hold these rows for the FID."""
        fid = self.fid
        rule = runtime.global_mat.peek(fid)
        if (
            # The very entry the capture read, still at its FID: the
            # classifier tracks a five-tuple at one FID, so the direction
            # still resolves to this one.
            runtime.classifier.flow(fid) is not self.entry
            or (None if rule is None else rule.version) != self.version
            # ``!=`` compares the events by identity (an Event defines no __eq__)
            or runtime.event_table.events_for(fid) != self.events
        ):
            return None
        local_counts = []
        for local_mat, local, actions, batch, length in self.shells:
            if local_mat.rule_for(fid) is not local:
                return None
            if local is not None:
                if (
                    local.header_actions is not actions
                    or local.sf_batch is not batch
                    or len(batch) != length
                ):
                    return None
                local_counts.append(local.event_count)
        entry = self.entry
        return (
            (entry.packets, entry.established, entry.closed),
            local_counts,
            None if rule is None else rule.hits,
            [function.invocations for function in self.functions],
            [(event.triggered, event.trigger_count) for event in self.events],
        )


class _Standing:
    """What a flow's last full capture read, kept to refresh it."""

    __slots__ = ("replica_id", "walk", "epoch", "keys", "observed", "rows", "fidless", "skeleton")

    def __init__(self, replica_id, walk, observed, rows, fidless, skeleton):
        self.replica_id = replica_id
        #: the :func:`~repro.scale.migration.flow_walk`, in its order
        self.walk: List[Tuple[FiveTuple, List[FiveTuple]]] = list(walk.items())
        #: what the walk was taken after (:meth:`CheckpointManager._epoch`);
        #: the manager sets it
        self.epoch: Optional[Tuple[int, int, int, int]] = None
        #: each walked direction's canonical key
        self.keys: List[FiveTuple] = [direction.canonical() for direction in walk]
        self.observed: ObservedKeys = observed
        self.rows: List[_Rows] = rows
        #: walked directions the classifier had no FID for
        self.fidless: List[FiveTuple] = fidless
        #: the copied records; never mutated after the capture
        self.skeleton: List[FlowRecord] = skeleton


class FlowCheckpoint:
    """One flow's snapshot, detached from any replica's lifetime.

    A refreshed checkpoint holds its tables as the standing snapshot's
    skeleton plus one counter reading, and materializes ``records`` the
    first time they are read; later rounds never change it.
    """

    __slots__ = (
        "flow", "replica_id", "log_seq", "chain", "directions", "nf_states",
        "_records", "_standing", "_counters",
    )

    def __init__(
        self,
        flow: FiveTuple,
        replica_id: int,
        log_seq: int,
        chain: ChainSignature = (),
        directions: Tuple[FiveTuple, ...] = (),
        records: Optional[List[FlowRecord]] = None,
        nf_states: Optional[List[NFStateItem]] = None,
        standing: Optional[_Standing] = None,
        counters: Optional[List[tuple]] = None,
    ):
        self.flow = flow  # canonical primary key
        self.replica_id = replica_id  # home replica at capture time
        self.log_seq = log_seq  # the replica input-log position at capture
        #: the source chain's shape, which a restore target must have
        self.chain = chain
        self.directions = directions
        self.nf_states: List[NFStateItem] = [] if nf_states is None else nf_states
        if records is None and counters is None:
            records = []
        self._records = records
        self._standing = standing
        self._counters = counters

    @property
    def records(self) -> List[FlowRecord]:
        """SpeedyBox table copies, one per live direction; handlers
        named, not held.  Read-only: a full capture's records are the
        skeleton its later refreshes copy, so a reader that changes them
        changes those checkpoints too (restore copies them first)."""
        if self._records is None:
            records = [record.copy() for record in self._standing.skeleton]
            for record, counters in zip(records, self._counters):
                _apply_counters(record, counters)
            self._records = records
        return self._records

    def item_count(self) -> int:
        records = self._records if self._records is not None else self._standing.skeleton
        return len(records) + len(self.nf_states)

    def __reduce__(self):
        # Plain data only: the records, never the live rows a refresh reads.
        return (
            FlowCheckpoint,
            (self.flow, self.replica_id, self.log_seq, self.chain, self.directions,
             self.records, self.nf_states),
        )

    def __repr__(self) -> str:
        return (
            f"FlowCheckpoint(flow={self.flow}, replica_id={self.replica_id}, "
            f"log_seq={self.log_seq}, directions={len(self.directions)}, "
            f"items={self.item_count()})"
        )


def _read_nf_states(observed: ObservedKeys) -> List[NFStateItem]:
    """What a migration's exports would take, read in place: a state two
    directions resolve to (a NAT mapping) at the first of them."""
    nf_states: List[NFStateItem] = []
    places = set()
    for nf, key in observed:
        place, state = nf.peek_flow_state(key)
        if state is not None and (nf, place) not in places:
            places.add((nf, place))
            nf_states.append((nf.name, key, state))
    return nf_states


def capture_flow(
    runtime: Runtime,
    flow: FiveTuple,
    replica_id: int = 0,
    log_seq: int = 0,
) -> Optional[FlowCheckpoint]:
    """Snapshot one flow without disturbing it (read → copy).

    Returns ``None`` when the runtime holds nothing for the flow.  The
    SpeedyBox tables and the NFs' own states are only read.  On a
    SpeedyBox the checkpoint also carries the standing snapshot later
    rounds refresh from.
    """
    key = flow.canonical()
    nfs = list(runtime.nfs)
    walk = flow_walk(nfs, key)

    records: List[FlowRecord] = []
    read: List[Tuple[int, FlowRecord]] = []
    fidless: List[FiveTuple] = []
    if isinstance(runtime, SpeedyBox):
        for direction in walk:
            fid = runtime.classifier.fid_for(direction)
            if fid is None:
                fidless.append(direction)
            else:
                live = runtime.peek_flow(fid)
                records.append(live.copy())
                read.append((fid, live))
    observed = [
        (nf, observed_key)
        for observed_keys in walk.values()
        for nf, observed_key in zip(nfs, observed_keys)
    ]
    nf_states = _read_nf_states(observed)

    if not records and not nf_states:
        return None
    standing = None
    if isinstance(runtime, SpeedyBox):
        rows = [_Rows(fid, runtime, live) for fid, live in read]
        standing = _Standing(replica_id, walk, observed, rows, fidless, records)
    return FlowCheckpoint(
        key,
        replica_id,
        log_seq,
        chain=chain_signature(nfs),
        directions=tuple(walk),
        records=records,
        nf_states=nf_states,
        standing=standing,
    )


def _refresh(
    previous: FlowCheckpoint, runtime: SpeedyBox, replica_id: int, log_seq: int, epoch
) -> Optional[FlowCheckpoint]:
    """The flow's next checkpoint from its standing snapshot, or ``None``
    when its rows or its walk changed (the caller captures it in full)."""
    standing = previous._standing
    if standing.replica_id != replica_id:
        return None
    classifier = runtime.classifier
    for direction in standing.fidless:
        if classifier.fid_for(direction) is not None:
            return None
    counters = []
    for rows in standing.rows:
        reading = rows.read(runtime)
        if reading is None:
            return None
        counters.append(reading)
    if epoch != standing.epoch:
        # Since the walk was taken a packet took the original path, or a
        # flow was torn down, migrated or restored: a mapping the walk
        # read may have changed without a row of this flow to show it (a
        # handshake, a flow without its rule, another connection's FIN,
        # migration or restore on a NAT port two replicas both handed out).
        if list(flow_walk(list(runtime.nfs), previous.flow).items()) != standing.walk:
            return None
        standing.epoch = epoch
    return FlowCheckpoint(
        previous.flow,
        replica_id,
        log_seq,
        chain=previous.chain,
        directions=previous.directions,
        nf_states=_read_nf_states(standing.observed),
        standing=standing,
        counters=counters,
    )


def _keys(checkpoint: FlowCheckpoint) -> List[FiveTuple]:
    """Each of the checkpoint's directions' canonical key."""
    standing = checkpoint._standing
    if standing is not None:
        return standing.keys
    return [direction.canonical() for direction in checkpoint.directions]


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
        #: keys a round found without state, skipped until dispatched
        #: again (the cluster never forgets a home)
        self._stateless: set = set()
        #: checkpoints restored through :meth:`restore` (a refresh's epoch)
        self._restores = 0
        self.checkpoints_taken = 0
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
        homed = self.cluster.flows_homed_on(replica_id)
        skipped = {key for key in homed if key in self._stateless} if self._stateless else set()
        seen: set = set()
        captured = 0
        for key in sorted(key for key in homed if key not in skipped):
            if key in seen:
                continue
            checkpoint = self._capture(runtime, key, replica_id, log_seq)
            if checkpoint is None:
                # The flow's state is gone (closed since last round): a
                # stale snapshot must not resurrect it at recovery.
                self.drop_flow(key)
                self._stateless.add(key)
                seen.add(key)
                continue
            keys = _keys(checkpoint)
            first = min(skipped.intersection(keys), default=key)
            if first < key:
                # A skipped key came back as one of the flow's directions:
                # capture the flow from it, as a round over every key
                # would (its store replaces the checkpoint just stored).
                recaptured = self._full_capture(runtime, first, replica_id, log_seq)
                if recaptured is not None:
                    keys = _keys(recaptured)
            seen.update(keys)
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

    def _epoch(self, runtime: SpeedyBox) -> Tuple[int, int, int, int]:
        """Moves whenever an NF may have changed a mapping other than on
        an unchanged flow's fast path: a packet down the original path, a
        migration or a restore (each moves a flow's entries and mappings)
        or a teardown (a FIN runs every NF's close handler, which may
        release a mapping another flow's walk reads).  Every count but the
        classifier's size only grows, and while they stand still no flow
        is placed or imported, so the size then only falls: by the flows
        torn down."""
        return (
            runtime.slow_packets,
            self.cluster.migrator.migrations,
            self._restores,
            len(runtime.classifier),
        )

    def _full_capture(
        self, runtime: Runtime, key: FiveTuple, replica_id: int, log_seq: int
    ) -> Optional[FlowCheckpoint]:
        checkpoint = capture_flow(runtime, key, replica_id=replica_id, log_seq=log_seq)
        if checkpoint is not None:
            if checkpoint._standing is not None:
                checkpoint._standing.epoch = self._epoch(runtime)
            self.store(checkpoint)
        return checkpoint

    def _capture(
        self, runtime: Runtime, key: FiveTuple, replica_id: int, log_seq: int
    ) -> Optional[FlowCheckpoint]:
        """Refresh the flow's standing snapshot, or capture it in full."""
        previous = self._snapshots.get(key)
        if previous is not None and previous._standing is not None:
            epoch = self._epoch(runtime)
            checkpoint = _refresh(previous, runtime, replica_id, log_seq, epoch)
            if checkpoint is not None:
                self._file_refresh(checkpoint)
                return checkpoint
        return self._full_capture(runtime, key, replica_id, log_seq)

    def _file_refresh(self, checkpoint: FlowCheckpoint) -> None:
        """:meth:`store` a refresh: it has its predecessor's flow and directions,
        so while each still indexes the flow, replacing the snapshot is all.
        None of those keys is in ``_stateless`` then: a key indexes a flow
        only through :meth:`store`, which clears it, and a round files a
        key stateless only after :meth:`drop_flow` unmapped it."""
        flow = checkpoint.flow
        for key in checkpoint._standing.keys:
            if self._by_direction.get(key) != flow:
                return self.store(checkpoint)
        self._snapshots[flow] = checkpoint

    def restore(self, checkpoint: FlowCheckpoint, runtime: Runtime) -> None:
        """:func:`restore_flow`, counted: the restored mappings may change
        the walk of a flow already on ``runtime``."""
        restore_flow(checkpoint, runtime)
        self._restores += 1

    def note_dispatched(self, key: FiveTuple) -> None:
        """A packet of ``key`` reached a replica: rounds try it again."""
        self._stateless.discard(key)

    def snapshot_flow(
        self, replica_id: int, flow: FiveTuple, log_seq: int
    ) -> Optional[FlowCheckpoint]:
        """Capture one flow right after it migrates onto a replica."""
        runtime = self.cluster.replicas[replica_id].runtime
        checkpoint = self._full_capture(runtime, flow, replica_id, log_seq)
        if checkpoint is not None:
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
            key = direction.canonical()
            self._by_direction[key] = checkpoint.flow
            self._stateless.discard(key)

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
