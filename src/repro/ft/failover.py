"""The failover coordinator: checkpoint cadence, kill handling, recovery.

:class:`FaultTolerance` attaches to a
:class:`~repro.scale.cluster.ScaleCluster` (``cluster.ft``) and receives
one hook per packet, :meth:`note_dispatch`, which routes it in place of
the cluster: it advances the :class:`~repro.ft.faults.FaultInjector`
first, so an armed kill lands with traffic in flight; buffers packets
addressed to a dead replica's flows, delivered in arrival order when
recovery completes; and logs every other packet before processing
(:class:`~repro.ft.pktlog.PacketLog`), snapshotting all of a replica's
flows and trimming its log every ``checkpoint_interval`` packets.

Recovery (:meth:`recover`) follows Khalid & Akella's correctness bar —
loss-free, duplicate-free, state-identical — with the classic
snapshot+log protocol mapped onto the existing migration machinery:

1. the dead replica leaves the sharder (its buckets rebalance onto
   peers, its pins drop);
2. each orphaned flow's latest checkpoint is restored onto the replica
   the sharder now names (the checkpoint names its handlers; the
   target's import resolves them on its own NFs);
3. the dead replica's input log replays *through the normal pipeline* —
   only entries past each flow's checkpoint position; flows born after
   the last checkpoint have their whole history in the log and are
   rebuilt from scratch;
4. buffered in-flight packets are delivered in arrival order — these
   are live deliveries, not replays;
5. the recovered flows are immediately re-checkpointed on their new
   homes, so a second failure replays from *now*, not from the dead
   replica's era.

Recovery runs on the simulated clock, built only from what the run
already prices: the kill is stamped at the kill packet's offered
arrival, a recovery starts at the last arrival the coordinator saw (an
injected one: the recover packet's), and the clock then advances by
each replayed packet's and each buffered delivery's own latency, in
that order.  Restore and re-checkpoint take no simulated time.

Recovery reads nothing from the dead replica: a fail-stop replica's
memory is gone.  What survives it is the checkpoints, the input log the
coordinator holds, the buffered packets and the peers — and from the
first two alone recovery decides which orphaned flows had finished
before the kill (a FIN or RST in the log closes a direction; an
eviction closes nothing).

Replay re-runs packets whose effects partially happened (shared-state
updates committed before the crash): per-flow state is rebuilt from
zero so re-running is exact, and genuinely shared state (NAT port pool,
monitor aggregates) lives in a :class:`~repro.ft.txstate.TransactionalStore`
the replicas' NFs share (the chain builder owns it, not the coordinator),
whose idempotent transactions make the replayed updates commit exactly
once.

A replica that dies while one of its flows is frozen mid-migration has
that flow's freeze buffer *absorbed* into the dead-replica buffer at
kill time (and the migration cancelled), so the buffer is delivered
exactly once by recovery — never double-delivered by a later
``complete_migration``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.framework import is_closing_packet
from repro.net.packet import Packet
from repro.obs.audit import AuditLog
from repro.obs.forensics import StallCharge, emit_recovery_regime_shift
from repro.obs.trace import NULL_TRACER, PacketTracer
from repro.platform.base import LoadResult, PlanTable, load_result
from repro.scale.cluster import ScaleCluster
from repro.ft.checkpoint import CheckpointManager, restore_flow
from repro.ft.faults import FaultInjector
from repro.ft.pktlog import PacketLog
from repro.vector import np


#: entries a replica's input log holds before it forces a checkpoint
LOG_CAPACITY = 4096


class FailoverError(RuntimeError):
    """The cluster cannot recover from this failure."""


@dataclass
class DeadReplica:
    """What the coordinator holds for a killed replica: its in-flight buffer."""

    replica_id: int
    killed_at_index: int
    buffered: List[Packet] = field(default_factory=list)
    #: simulated arrival stamp of each buffered packet (parallel to
    #: ``buffered``); ``None`` for packets without an arrival clock
    #: (unloaded dispatch, absorbed freeze buffers)
    arrivals: List[Optional[float]] = field(default_factory=list)
    frozen_absorbed: int = 0
    #: simulated time of the kill: the kill packet's offered arrival
    killed_ns: float = 0.0


@dataclass
class RecoveryReport:
    """What one failover did, and how long it took."""

    replica: int
    flows_restored: int = 0  # from checkpoints
    flows_rebuilt: int = 0  # from log replay alone (born after last snapshot)
    packets_replayed: int = 0  # log entries re-run through the pipeline
    packets_charged: int = 0  # deliveries charged with recovery stall
    stall_charged_ns: float = 0.0  # total recovery stall charged to them
    duration_ns: float = 0.0  # simulated: recovery start to the last delivery's end
    #: one outcome per buffered packet processed live, dropped or not
    outcomes: List[object] = field(default_factory=list, repr=False)

    @property
    def packets_delivered(self) -> int:
        """Buffered in-flight packets delivered live: a drop is not one."""
        return sum(not outcome.dropped for outcome in self.outcomes)


class FaultTolerance:
    """Checkpointed, replay-based failover for a :class:`ScaleCluster`."""

    def __init__(
        self,
        cluster: ScaleCluster,
        checkpoint_interval: int = 32,
        injector: Optional[FaultInjector] = None,
        audit: Optional[AuditLog] = None,
        tracer: PacketTracer = NULL_TRACER,
        charge_recovery: bool = True,
        forensics=None,
    ):
        if checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be positive, got {checkpoint_interval!r}"
            )
        self.cluster = cluster
        self.checkpoint_interval = checkpoint_interval
        self.injector = injector or FaultInjector()
        self.audit = audit if audit is not None else cluster.audit
        metrics = cluster.metrics
        self.checkpoints = CheckpointManager(cluster, audit=self.audit, metrics=metrics)
        self.logs: Dict[int, PacketLog] = {}
        self.dead: Dict[int, DeadReplica] = {}
        self.recoveries: List[RecoveryReport] = []
        self.packets_buffered = 0
        self._in_recovery = False
        #: the last offered arrival :meth:`tick` saw: where a kill is
        #: stamped and a recovery starts on the simulated clock
        self._arrival_ns = 0.0
        #: charge each buffered delivery the simulated stall from its
        #: arrival to the start of its delivery; ``False`` leaves the
        #: deliveries' latencies uncharged
        self.charge_recovery = charge_recovery
        #: optional :class:`repro.obs.forensics.ForensicsEngine` fed one
        #: :class:`~repro.obs.forensics.StallCharge` per charged delivery
        self.forensics = forensics
        #: every charged delivery across all recoveries, in drain order
        self.charged: List["StallCharge"] = []
        self._m_kills = metrics.counter("ft_kills_total", "replicas killed")
        self._m_recoveries = metrics.counter("ft_recoveries_total", "failovers completed")
        self._m_buffered = metrics.counter(
            "ft_buffered_packets_total", "packets buffered against dead replicas"
        )
        self._m_replayed = metrics.counter(
            "ft_replayed_packets_total", "log entries replayed during recovery"
        )
        #: recovery-timeline spans land on track ``ft:r<id>`` and stitch
        #: into the same Chrome-trace export the packet spans use
        self.tracer = tracer
        cluster.ft = self

    # -- the cluster hook (ScaleCluster's dispatch path) ---------------------

    def note_dispatch(
        self, packet: Packet, key, arrival_ns: Optional[float] = None
    ) -> Optional[int]:
        """Route one packet (:meth:`~repro.scale.cluster.ScaleCluster._home`):
        the replica that takes it now, or ``None`` when it was buffered.
        Recovery's replays and deliveries are routed, not logged or
        ticked.  ``arrival_ns`` is the packet's offered arrival."""
        recovering = self._in_recovery
        if not recovering:
            self.tick(packet, arrival_ns)
        cluster = self.cluster
        rid = cluster._home(packet, key)
        if rid is None:
            return None
        dead = self.dead.get(rid)
        if dead is not None:
            # Don't record a home: a *new* flow hashed onto the dead
            # replica gets a fresh home after the sharder rebalances.
            # Recovery delivers the packet and counts its outcome.
            self._buffer(dead, packet, arrival_ns)
            return None
        cluster._flow_homes[key] = rid
        if not recovering:
            log = self._log_for(rid)
            if len(log) >= self.checkpoint_interval:
                self.checkpoint_replica(rid, cause="interval")
            log.append(packet, key)
        # Last: the packet is processed after this hook, so a round above
        # may have found its key without state.
        self.checkpoints._stateless.discard(key)
        return rid

    def tick(self, packet: Packet, arrival_ns: Optional[float] = None) -> None:
        """Advance the fault clock; execute an armed kill/recovery.

        ``arrival_ns`` is the packet's offered arrival (loaded runs pass
        it): an action this packet triggers lands at that time.
        """
        if arrival_ns is not None:
            self._arrival_ns = arrival_ns
        action = self.injector.tick()
        if action == "kill":
            self.injector.replica = self.kill(self.injector.replica)
        elif action == "recover":
            self.recover_all()

    def _buffer(self, dead: "DeadReplica", packet: Packet, arrival_ns: Optional[float]) -> None:
        """Hold an in-flight packet addressed to a dead replica's flow.

        ``arrival_ns`` is the packet's simulated arrival stamp (loaded
        runs pass it); recovery charges the stall from that arrival to
        the start of the packet's delivery when ``charge_recovery`` is
        on.
        """
        dead.buffered.append(packet)
        dead.arrivals.append(arrival_ns)
        self.packets_buffered += 1
        self._m_buffered.inc()
        self.audit.emit(
            "ft_buffer",
            replica=dead.replica_id,
            flow=str(packet.five_tuple().canonical()),
            buffered=len(dead.buffered),
        )

    def on_flow_migrated(self, key, src_rid: int, dst_rid: int) -> None:
        """A flow's state moved src→dst: its old snapshot is now wrong.

        Re-snapshot it on the destination immediately (stamped with the
        destination log's current position), so a destination failure
        between now and the next cadence checkpoint still recovers it —
        the migration's freeze-buffer replays bypassed the input log, so
        without this snapshot those packets would be unrecoverable.
        """
        if self._in_recovery:
            return
        self.checkpoints.drop_flow(key)
        if dst_rid in self.cluster.replicas:
            log = self._log_for(dst_rid)
            self.checkpoints.snapshot_flow(dst_rid, key, log_seq=log.last_seq)

    # -- checkpoint cadence --------------------------------------------------

    def _log_for(self, replica_id: int) -> PacketLog:
        log = self.logs.get(replica_id)
        if log is None:
            log = self.logs[replica_id] = PacketLog(
                capacity=LOG_CAPACITY,
                on_full=lambda rid=replica_id: self.checkpoint_replica(
                    rid, cause="log_full"
                ),
                audit=self.audit,
                metrics=self.cluster.metrics,
            )
        return log

    def checkpoint_replica(self, replica_id: int, cause: str = "manual") -> int:
        """Snapshot every flow on the replica and trim its input log."""
        log = self._log_for(replica_id)
        captured = self.checkpoints.snapshot_replica(
            replica_id, log_seq=log.last_seq, cause=cause
        )
        log.trim(log.last_seq)
        return captured

    # -- kill ----------------------------------------------------------------

    def _pick_victim(self) -> int:
        """Default victim: the alive replica homing the most flows."""
        homes = self.cluster.flow_homes()
        loads = {rid: 0 for rid in self.cluster.replicas}
        for home in homes.values():
            if home in loads:
                loads[home] += 1
        return max(sorted(loads), key=lambda rid: loads[rid])

    def kill(self, replica_id: Optional[int] = None) -> int:
        """Remove a replica abruptly; its flows' packets buffer until recovery."""
        cluster = self.cluster
        if len(cluster.replicas) <= 1:
            raise FailoverError("cannot kill the last alive replica")
        if replica_id is None:
            replica_id = self._pick_victim()
        if replica_id not in cluster.replicas:
            raise FailoverError(f"unknown or already-dead replica {replica_id!r}")
        del cluster.replicas[replica_id]
        dead = DeadReplica(
            replica_id=replica_id,
            killed_at_index=self.injector.packet_index,
            killed_ns=self._arrival_ns,
        )
        self.tracer.instant(
            "detect", f"ft:r{replica_id}", dead.killed_ns, reason="injected"
        )
        # Crash-during-migration guard: absorb the freeze buffers of any
        # flow homed here that is frozen mid-migration.  The migration is
        # cancelled (complete_migration will raise) and the buffered
        # packets join the dead-replica buffer — they arrived before the
        # kill, so they sit at its head and recovery delivers them
        # exactly once, in order.
        for key in list(cluster._freeze_groups):
            if cluster.home_of(key) != replica_id:
                continue
            group = cluster._freeze_groups.pop(key)
            buffer = cluster._frozen.get(key, [])
            for member in group:
                cluster._frozen.pop(member, None)
            dead.buffered.extend(buffer)
            dead.arrivals.extend([None] * len(buffer))
            dead.frozen_absorbed += len(buffer)
            self.audit.emit(
                "ft_freeze_absorbed",
                replica=replica_id,
                flow=str(key),
                packets=len(buffer),
            )
        self.dead[replica_id] = dead
        self._m_kills.inc()
        cluster._m_replicas.set(len(cluster.replicas))
        flows_orphaned = len(cluster.flows_homed_on(replica_id))
        self.audit.emit(
            "ft_kill",
            replica=replica_id,
            reason="injected",
            at_index=dead.killed_at_index,
            flows_orphaned=flows_orphaned,
            frozen_absorbed=dead.frozen_absorbed,
        )
        return replica_id

    # -- recovery ------------------------------------------------------------

    def _alive_home(self, key) -> int:
        """The alive replica ``key`` routes to — pinned off a dead peer.

        Under concurrent failures the sharder may still name a replica
        that is itself dead (it only leaves the table when *its* recovery
        runs).  Restoring or replaying onto it would strand the flow, so
        pin onto the least-loaded alive peer instead — the same
        indirection-table move the sharder makes once that replica is
        removed.
        """
        cluster = self.cluster
        target = cluster.sharder.replica_for(key)
        if target in cluster.replicas:
            return target
        loads = {rid: 0 for rid in cluster.replicas}
        for home in cluster.flow_homes().values():
            if home in loads:
                loads[home] += 1
        target = min(sorted(loads), key=lambda rid: loads[rid])
        cluster.sharder.pin(key, target)
        return target

    def recover(self, replica_id: int) -> RecoveryReport:
        """Fail the dead replica's flows over onto its peers."""
        dead = self.dead.pop(replica_id, None)
        if dead is None:
            raise FailoverError(f"replica {replica_id!r} is not dead")
        cluster = self.cluster
        if not cluster.replicas:
            self.dead[replica_id] = dead
            raise FailoverError("no alive replicas to fail over onto")
        report = RecoveryReport(replica=replica_id)
        self._in_recovery = True
        tracer = self.tracer
        track = f"ft:r{replica_id}"
        started = clock = self._arrival_ns
        # The buffer stage spans the dead era itself: detect → recovery
        # start, everything that arrived meanwhile held in order.
        tracer.span(
            "buffer",
            track,
            dead.killed_ns,
            started - dead.killed_ns,
            packets=len(dead.buffered),
            frozen_absorbed=dead.frozen_absorbed,
        )
        try:
            # 1. The dead replica leaves the indirection table: its
            # buckets rebalance onto the peers, its pins drop.
            cluster.sharder.remove_replica(replica_id)

            # 2. Orphaned flows: everything homed on the dead replica.
            orphan_keys = sorted(cluster.flows_homed_on(replica_id))
            for key in orphan_keys:
                del cluster._flow_homes[key]
            orphan_set = set(orphan_keys)

            # Which orphans finished before the kill, from what survives
            # it: each flow's checkpoint and the logged input past it.  A
            # wire direction is open where the checkpoint holds its
            # classifier entry or a logged packet without FIN/RST came
            # through; a FIN or RST closes it, an eviction nothing.  A
            # flow the log closed and left with no open direction had
            # finished: its state was gone and its shared-state effects
            # (NAT port release) committed.  Restoring or replaying it
            # would resurrect a completed flow — and its NAT setup, whose
            # idempotency record died with the flow, would draw a
            # *different* port from the freed list, permuting the
            # allocation the reference run made.
            log = self._log_for(replica_id)
            tail = []
            for entry in log.entries():
                if entry.key not in orphan_set:
                    continue  # migrated away before the kill: lives elsewhere
                checkpoint = self.checkpoints.snapshot_for(entry.key)
                if checkpoint is None or entry.seq > checkpoint.log_seq:
                    tail.append(entry)  # else its effect is inside the snapshot
            open_directions = {
                record.classifier_entry.five_tuple
                for checkpoint in map(self.checkpoints.snapshot_for, orphan_keys)
                if checkpoint is not None
                for record in checkpoint.skeleton()
            }
            closed_keys = set()
            for entry in tail:
                if is_closing_packet(entry.packet):
                    open_directions.discard(entry.packet.five_tuple())
                    closed_keys.add(entry.key)
                else:
                    open_directions.add(entry.packet.five_tuple())
            live_keys = {direction.canonical() for direction in open_directions}
            finished = closed_keys - live_keys

            # 3. Restore checkpoints onto the replicas the sharder now
            # names; pin every wire direction to the same target, exactly
            # as live egress tracking would have.
            restored: set = set()
            snapshot_covered: set = set()
            for key in orphan_keys:
                checkpoint = self.checkpoints.snapshot_for(key)
                if checkpoint is None or checkpoint.flow in restored:
                    continue
                keys = {direction.canonical() for direction in checkpoint.directions}
                if finished & keys and not live_keys & keys:
                    # Closed since its last snapshot: a stale checkpoint
                    # must not resurrect it (same rule the cadence
                    # applies when a capture comes back empty).
                    self.checkpoints.drop_flow(checkpoint.flow)
                    continue
                target = self._alive_home(checkpoint.flow)
                fids = restore_flow(checkpoint, cluster.replicas[target].runtime)
                for direction in checkpoint.directions:
                    direction_key = direction.canonical()
                    snapshot_covered.add(direction_key)
                    cluster._flow_homes[direction_key] = target
                    if cluster.sharder.replica_for(direction_key) != target:
                        cluster.sharder.pin(direction_key, target)
                restored.add(checkpoint.flow)
                report.flows_restored += 1
                self.audit.emit(
                    "ft_restore",
                    flow=str(checkpoint.flow),
                    src=replica_id,
                    dst=target,
                    log_seq=checkpoint.log_seq,
                    items=checkpoint.item_count(),
                )
                self.checkpoints.adopt(checkpoint, target, fids)

            tracer.span("restore", track, clock, 0.0, flows=report.flows_restored)

            # 4. Replay the input log through the normal pipeline —
            # snapshot-covered flows from their checkpoint position,
            # snapshot-less flows (born since the last checkpoint) from
            # their first logged packet.
            rebuilt_flows: set = set()
            stage_start = clock
            for entry in tail:
                if entry.key in finished:
                    continue  # flow finished before the kill: nothing to rebuild
                if entry.key not in snapshot_covered:
                    rebuilt_flows.add(entry.key)
                # A replayed clone must never land in a concurrently-dead
                # peer's buffer (it would be delivered live later — a dup).
                self._alive_home(entry.key)
                clock += cluster.process(entry.packet).latency_ns
                report.packets_replayed += 1
            report.flows_rebuilt = len(rebuilt_flows)
            self._m_replayed.inc(report.packets_replayed)
            del self.logs[replica_id]
            self.audit.emit(
                "ft_replay",
                replica=replica_id,
                replayed=report.packets_replayed,
                rebuilt_flows=report.flows_rebuilt,
            )

            tracer.span(
                "replay",
                track,
                stage_start,
                clock - stage_start,
                replayed=report.packets_replayed,
                rebuilt_flows=report.flows_rebuilt,
            )

            # 5. Deliver the buffered in-flight packets in arrival order.
            # These are live deliveries: their outcomes count.  A packet
            # whose flow is homed on *another* dead replica (concurrent
            # failure) re-buffers there and is delivered by that recovery.
            # With charge_recovery on, each delivery is charged the
            # simulated stall from its arrival (unstamped: from the kill)
            # to the start of its delivery — the recovery cost lands on
            # the packets that paid it.
            charge = self.charge_recovery
            recovery_charges: List[StallCharge] = []
            stage_start = clock
            for packet, arrival_ns in zip(dead.buffered, dead.arrivals):
                flow = str(packet.five_tuple().canonical())
                begins = clock
                outcome = cluster.process(packet)
                if outcome is None:
                    continue
                clock += outcome.latency_ns
                report.outcomes.append(outcome)
                if charge and not outcome.dropped:  # a drop has no latency to charge
                    arrival = dead.killed_ns if arrival_ns is None else arrival_ns
                    stall_ns = begins - arrival
                    charged = StallCharge(
                        replica=replica_id,
                        flow=flow,
                        arrival_ns=arrival,
                        stall_ns=stall_ns,
                        service_ns=outcome.latency_ns,
                        cause="failover",
                    )
                    recovery_charges.append(charged)
                    self.charged.append(charged)
                    report.packets_charged += 1
                    report.stall_charged_ns += stall_ns
                    if self.forensics is not None:
                        self.forensics.note_stall(charged)

            tracer.span(
                "drain",
                track,
                stage_start,
                clock - stage_start,
                delivered=report.packets_delivered,
            )

            # 6. Fresh checkpoints on every alive replica: a second
            # failure replays from now, not from the dead replica's era
            # (the replays and deliveries above bypassed the input logs).
            for rid in sorted(cluster.replicas):
                self.checkpoint_replica(rid, cause="post_recovery")
            tracer.span("re-checkpoint", track, clock, 0.0, replicas=len(cluster.replicas))
        finally:
            self._in_recovery = False
        report.duration_ns = clock - started
        self.recoveries.append(report)
        self._m_recoveries.inc()
        # The stall regime shifted the moment these deliveries were
        # charged: audit it *before* ft_failover_complete so the shift's
        # seq precedes the completion's on the report's timeline.
        if recovery_charges:
            emit_recovery_regime_shift(
                self.audit,
                replica_id,
                [charged.stall_ns for charged in recovery_charges],
            )
        self.audit.emit(
            "ft_failover_complete",
            replica=replica_id,
            flows_restored=report.flows_restored,
            flows_rebuilt=report.flows_rebuilt,
            replayed=report.packets_replayed,
            delivered=report.packets_delivered,
            duration_ms=round(report.duration_ns / 1e6, 3),
        )
        return report

    def recover_all(self) -> List[RecoveryReport]:
        """Recover every dead replica (lowest id first)."""
        return [self.recover(rid) for rid in sorted(self.dead)]

    def charged_result(self) -> LoadResult:
        """The charged deliveries as a :class:`LoadResult` to merge into a
        run's total, so post-failover percentiles include the recovery
        stall::

            total = LoadResult.merged([result.total, ft.charged_result()])

        Each latency is the delivery's ``service + stall`` (canonical
        component order, so forensic decomposition of these packets is
        exact by construction); a recovered packet the chain dropped is
        never charged, so none of these drops.
        """
        latencies = np.array([charged.latency_ns for charged in self.charged], dtype=np.float64)
        finish = [charged.arrival_ns + charged.latency_ns for charged in self.charged]
        return load_result(latencies, max(finish, default=0.0), None, PlanTable(labelled=False), ())

    def __repr__(self) -> str:
        return (
            f"<FaultTolerance interval={self.checkpoint_interval} "
            f"{len(self.cluster.replicas)} alive, {len(self.dead)} dead, "
            f"{len(self.recoveries)} recoveries>"
        )
