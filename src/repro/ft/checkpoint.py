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
walk, the live rows it read per direction, and the copy (the skeleton,
which nothing mutates afterwards).  A round is one pass over the
replica's flows.  It reads the runtime's table generation
(:attr:`~repro.core.framework.SpeedyBox.generation`) once: while it has
not moved since a flow's rows and walk were last checked, they still
stand, and the flow's refresh is one read of its counters.  Else the
round checks that the rows are still the ones the tables hold — same
FIDs, same entry, Local MAT rules, action lists, batches and events, the
same rule version, no direction gained or lost a FID — and that the walk
is the same, or takes the full capture again.  NF states are read as
one copy of each NF's row columns per round (:meth:`FlowRows.gather
<repro.nf.base.FlowRows.gather>`), each flow reading its rows of it.  A
refreshed flow is filed as its standing snapshot, pointing at the round;
its :class:`FlowCheckpoint` is built only when something reads it
(:meth:`CheckpointManager.snapshot_for`, recovery, pickling), and its
``records`` only when they are read.
"""

from __future__ import annotations

from operator import attrgetter, call
from typing import Dict, List, Optional, Tuple, Union

from repro.core.framework import FlowRecord, ServiceChain, SpeedyBox
from repro.core.state_function import StateFunction
from repro.net.flow import FiveTuple
from repro.nf.base import NetworkFunction, row_value
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

#: the attributes that move while a row stays, per kind of counted object
_ENTRY = ("packets", "established", "closed")
_LOCAL = ("event_count",)
_RULE = ("hits",)
_FUNCTION = ("invocations",)
_EVENT = ("triggered", "trigger_count")
_GETTER = {names: attrgetter(*names) for names in (_ENTRY, _LOCAL, _RULE, _FUNCTION, _EVENT)}


def _counted(records: List[FlowRecord]) -> Tuple[list, tuple]:
    """The objects of ``records`` whose counters move while their rows
    stay, and each one's counters: per record the entry, each Local MAT
    rule, the Global MAT rule, each distinct state function (reached
    through the Local MAT batches, then the schedule, then the events'
    update functions) and each event.  Copies made by
    :meth:`FlowRecord.copy` list them in the same order as their
    originals.
    """
    targets: list = []
    kinds: list = []
    for record in records:
        local_rules = list(record.local_rules.values())
        rule = record.global_rule
        batches = [local.sf_batch for local in local_rules]
        if rule is not None:
            batches.extend(batch for wave in rule.schedule.waves for batch in wave)
        batches.extend(event.update_state_functions or () for event in record.events)
        # Keyed by identity; a function reached again keeps its first place.
        functions: Dict[int, StateFunction] = {
            id(function): function for batch in batches for function in batch
        }
        targets.append(record.classifier_entry)
        targets += local_rules
        kinds += (_ENTRY,) + (_LOCAL,) * len(local_rules)
        if rule is not None:
            targets.append(rule)
            kinds.append(_RULE)
        targets += functions.values()
        targets += record.events
        kinds += (_FUNCTION,) * len(functions) + (_EVENT,) * len(record.events)
    return targets, tuple(kinds)


def _apply_counters(records: List[FlowRecord], counters: list) -> None:
    """Write a round's counter reading into copied records."""
    targets, kinds = _counted(records)
    for target, names, value in zip(targets, kinds, counters):
        if len(names) == 1:
            setattr(target, names[0], value)
        else:
            for name, part in zip(names, value):
                setattr(target, name, part)


class _Rows:
    """One walked direction's live table rows, as a full capture read them."""

    __slots__ = ("fid", "entry", "shells", "version", "events")

    def __init__(self, fid: int, runtime: SpeedyBox, live: FlowRecord):
        self.fid = fid
        self.entry = live.classifier_entry
        self.events = live.events
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
        rule = live.global_rule
        self.version = None if rule is None else rule.version

    def stand(self, runtime: SpeedyBox) -> bool:
        """Do the tables still hold these rows for the FID?"""
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
            return False
        for local_mat, local, actions, batch, length in self.shells:
            if local_mat.rule_for(fid) is not local:
                return False
            if local is not None and (
                local.header_actions is not actions
                or local.sf_batch is not batch
                or len(batch) != length
            ):
                return False
        return True


class _Round:
    """One replica round's shared reading: its input-log position and a
    copy of every NF's row columns, taken at the round's first refresh."""

    __slots__ = ("log_seq", "tables")

    def __init__(self, runtime: SpeedyBox, log_seq: int):
        self.log_seq = log_seq
        self.tables = {nf: nf.flow_rows.gather() for nf in runtime.nfs if nf.flow_rows is not None}


class _Standing:
    """What a flow's last full capture read, kept to refresh it; a
    refreshed flow is filed as this, pointing at its latest round."""

    __slots__ = (
        "flow", "replica_id", "chain", "directions", "walk", "generation", "keys",
        "rows", "fidless", "skeleton", "live", "targets", "readers", "items", "peeks",
        "round", "counters", "peeked", "_checkpoint",
    )

    def __init__(self, flow, replica_id, chain, walk, rows, fidless, skeleton, live):
        self.flow = flow
        self.replica_id = replica_id
        self.chain = chain
        self.directions = tuple(walk)
        #: the :func:`~repro.scale.migration.flow_walk`
        self.walk: Dict[FiveTuple, List[FiveTuple]] = walk
        #: the runtime generation the rows and walk were last checked at;
        #: the manager sets it
        self.generation: Optional[int] = None
        #: each walked direction's canonical key
        self.keys: List[FiveTuple] = [direction.canonical() for direction in walk]
        self.rows: List[_Rows] = rows
        #: walked directions the classifier had no FID for
        self.fidless = fidless or ()
        #: the copied records; never mutated after the capture
        self.skeleton: List[FlowRecord] = skeleton
        #: the live records read, until the first refresh finds in them
        #: the objects whose counters a round reads (``targets``, in the
        #: skeleton's order) and the getter of each (``readers``)
        self.live: Optional[List[FlowRecord]] = live
        self.targets: Optional[list] = None
        self.readers: list = []
        #: where each NF state lives: (NF name, observed key, NF, row), the
        #: row ``None`` for an NF without declared fields (peeked each
        #: round); located at the capture and whenever the rows are checked
        self.items: list = []
        #: (NF, observed key) of the items without a row, in their order
        self.peeks = ()
        self.round: Optional[_Round] = None
        self.counters: Optional[list] = None
        self.peeked: Optional[list] = None
        self._checkpoint: Optional[FlowCheckpoint] = None

    def locate(self, items: list) -> None:
        """File where the flow's NF states live (:func:`_places`)."""
        self.items = items
        self.peeks = tuple((nf, key) for __, key, nf, row in items if row is None)

    def refresh(self, rnd: _Round) -> None:
        """Read the counters (and the states of NFs without rows) into ``rnd``."""
        targets = self.targets
        if targets is None:
            targets, kinds = _counted(self.live)
            self.targets, self.readers, self.live = targets, [_GETTER[names] for names in kinds], None
        self.counters = list(map(call, self.readers, targets))
        self.round = rnd
        self._checkpoint = None
        if self.peeks:
            self.peeked = [nf.peek_flow_state(key)[1] for nf, key in self.peeks]

    def checkpoint(self) -> "FlowCheckpoint":
        """The flow's checkpoint as its latest round read it."""
        checkpoint = self._checkpoint
        if checkpoint is None:
            rnd = self.round
            peeked = iter(self.peeked or ())
            nf_states = [
                (name, key, next(peeked) if row is None else row_value(rnd.tables[nf], row))
                for name, key, nf, row in self.items
            ]
            checkpoint = self._checkpoint = FlowCheckpoint(
                self.flow, self.replica_id, rnd.log_seq, chain=self.chain,
                directions=self.directions, nf_states=nf_states, standing=self,
                counters=self.counters,
            )
        return checkpoint

    def __reduce__(self):
        return self.checkpoint().__reduce__()


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
        counters: Optional[list] = None,
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
            _apply_counters(records, self._counters)
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


def _observed(nfs: List[NetworkFunction], walk) -> ObservedKeys:
    """(NF, the key it observes) for every NF on every walked direction."""
    return [(nf, key) for keys in walk.values() for nf, key in zip(nfs, keys)]


def _checkpoint_of(filed: Union[FlowCheckpoint, _Standing]) -> FlowCheckpoint:
    """The checkpoint a filed entry stands for."""
    return filed.checkpoint() if isinstance(filed, _Standing) else filed


def _row(nf: NetworkFunction, key: FiveTuple) -> Optional[int]:
    """The row holding the state ``nf`` keeps for ``key`` (``None``: the
    NF declares no fields)."""
    rows = nf.flow_rows
    return None if rows is None else rows.index[nf.flow_place(key)]


def _places(observed: ObservedKeys) -> list:
    """Where each state :func:`_read_nf_states` would read lives, found
    without reading one: (NF name, observed key, NF, :func:`_row`)."""
    items = []
    places = set()
    for nf, key in observed:
        if nf.flow_rows is None:
            place, state = nf.peek_flow_state(key)
        else:
            place = state = nf.flow_place(key)
        if state is not None and (nf, place) not in places:
            places.add((nf, place))
            items.append((nf.name, key, nf, _row(nf, key)))
    return items


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
    live: List[FlowRecord] = []
    rows: List[_Rows] = []
    fidless: List[FiveTuple] = []
    if isinstance(runtime, SpeedyBox):
        for direction in walk:
            fid = runtime.classifier.fid_for(direction)
            if fid is None:
                fidless.append(direction)
            else:
                read = runtime.peek_flow(fid)
                records.append(read.copy())
                live.append(read)
                rows.append(_Rows(fid, runtime, read))
    nf_states = _read_nf_states(_observed(nfs, walk))

    if not records and not nf_states:
        return None
    chain = chain_signature(nfs)
    standing = None
    if isinstance(runtime, SpeedyBox):
        standing = _Standing(key, replica_id, chain, walk, rows, fidless, records, live)
        nf_by_name = runtime.nf_by_name
        standing.locate([
            (name, state_key, nf_by_name[name], _row(nf_by_name[name], state_key))
            for name, state_key, __ in nf_states
        ])
    return FlowCheckpoint(
        key,
        replica_id,
        log_seq,
        chain=chain,
        directions=standing.directions if standing is not None else tuple(walk),
        records=records,
        nf_states=nf_states,
        standing=standing,
    )


def _stands(standing: _Standing, runtime: SpeedyBox, generation: int) -> bool:
    """Do the flow's rows and walk still stand?  Asked only when the
    runtime's generation moved since they were last found standing."""
    classifier = runtime.classifier
    if any(classifier.fid_for(direction) is not None for direction in standing.fidless):
        return False
    if not all(rows.stand(runtime) for rows in standing.rows):
        return False
    # A mapping the walk read may have changed without a row of this flow
    # to show it (a handshake, a flow without its rule, another
    # connection's FIN, migration or restore on a NAT port two replicas
    # both handed out).
    walk = flow_walk(runtime.nfs, standing.flow)
    if list(walk.items()) != list(standing.walk.items()):
        return False
    standing.generation = generation
    # A state may have come or gone.  (Over the stored walk: equal to the
    # new one, and its keys are the objects the checkpoint already names.)
    standing.locate(_places(_observed(runtime.nfs, standing.walk)))
    return True


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
        #: primary canonical key -> latest checkpoint, or the standing
        #: snapshot a round refreshed it into (:func:`_checkpoint_of`)
        self._snapshots: Dict[FiveTuple, Union[FlowCheckpoint, _Standing]] = {}
        #: any direction's canonical key -> primary key
        self._by_direction: Dict[FiveTuple, FiveTuple] = {}
        #: keys a round found without state, skipped until dispatched
        #: again (the cluster never forgets a home)
        self._stateless: set = set()
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
        # One read of the generation and, at the first refresh, one copy
        # of every NF's row columns serve the whole round.
        generation = runtime.generation if isinstance(runtime, SpeedyBox) else None
        rounds: List[_Round] = []
        seen: set = set()
        captured = 0
        for key in sorted(key for key in homed if key not in skipped):
            if key in seen:
                continue
            filed = self._capture(runtime, key, replica_id, log_seq, generation, rounds)
            if filed is None:
                # The flow's state is gone (closed since last round): a
                # stale snapshot must not resurrect it at recovery.
                self.drop_flow(key)
                self._stateless.add(key)
                seen.add(key)
                continue
            keys = filed.keys if isinstance(filed, _Standing) else _keys(filed)
            if skipped and not skipped.isdisjoint(keys):
                first = min(skipped.intersection(keys))
                if first < key:
                    # A skipped key came back as one of the flow's
                    # directions: capture the flow from it, as a round
                    # over every key would (its store replaces the
                    # checkpoint just stored).
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

    def _full_capture(
        self, runtime: Runtime, key: FiveTuple, replica_id: int, log_seq: int
    ) -> Optional[FlowCheckpoint]:
        checkpoint = capture_flow(runtime, key, replica_id=replica_id, log_seq=log_seq)
        if checkpoint is not None:
            if checkpoint._standing is not None:
                checkpoint._standing.generation = runtime.generation
            self.store(checkpoint)
        return checkpoint

    def _capture(
        self, runtime: Runtime, key: FiveTuple, replica_id: int, log_seq: int,
        generation: Optional[int], rounds: List[_Round],
    ) -> Union[FlowCheckpoint, _Standing, None]:
        """Refresh the flow's standing snapshot into this round (the
        round's first refresh takes its reading, ``rounds[0]``), or
        capture it in full."""
        filed = self._snapshots.get(key)
        standing = filed if isinstance(filed, _Standing) or filed is None else filed._standing
        if (
            standing is not None
            and standing.replica_id == replica_id
            and (standing.generation == generation or _stands(standing, runtime, generation))
        ):
            if not rounds:
                rounds.append(_Round(runtime, log_seq))
            standing.refresh(rounds[0])
            self._file_refresh(standing)
            return standing
        return self._full_capture(runtime, key, replica_id, log_seq)

    def _file_refresh(self, standing: _Standing) -> None:
        """:meth:`store` a refresh: it has its predecessor's flow and directions,
        so while each still indexes the flow, replacing the snapshot is all.
        None of those keys is in ``_stateless`` then: a key indexes a flow
        only through :meth:`store`, which clears it, and a round files a
        key stateless only after :meth:`drop_flow` unmapped it."""
        flow = standing.flow
        for key in standing.keys:
            if self._by_direction.get(key) != flow:
                return self.store(standing)
        self._snapshots[flow] = standing

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

    def store(self, checkpoint: Union[FlowCheckpoint, _Standing]) -> None:
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
        filed = self._snapshots.get(primary)
        return None if filed is None else _checkpoint_of(filed)

    def drop_flow(self, key: FiveTuple) -> None:
        """Forget the checkpoint covering ``key`` (migrated / closed)."""
        primary = self._by_direction.get(key.canonical(), key.canonical())
        filed = self._snapshots.pop(primary, None)
        if filed is not None:
            for direction in filed.directions:
                self._by_direction.pop(direction.canonical(), None)

    def __len__(self) -> int:
        return len(self._snapshots)

    def __repr__(self) -> str:
        return (
            f"<CheckpointManager {len(self._snapshots)} flows, "
            f"{self.checkpoints_taken} rounds>"
        )
