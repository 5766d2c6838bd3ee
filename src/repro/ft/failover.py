"""The failover coordinator: checkpoint cadence, kill handling, recovery.

:class:`FaultTolerance` attaches to a
:class:`~repro.scale.cluster.ScaleCluster` (``cluster.ft``) and receives
three hooks on the cluster's dispatch path:

- :meth:`tick` — advances the :class:`~repro.ft.faults.FaultInjector`
  before each packet, so an armed kill lands with traffic in flight;
- :meth:`is_dead` / :meth:`buffer_packet` — packets addressed to a dead
  replica's flows are buffered, never dropped, and delivered in arrival
  order when recovery completes;
- :meth:`note_dispatch` — logs a pre-processing clone of every packet a
  replica receives (:class:`~repro.ft.pktlog.PacketLog`) and drives the
  checkpoint cadence: every ``checkpoint_interval`` packets per replica,
  snapshot all of its flows and trim its log.

Recovery (:meth:`recover`) follows Khalid & Akella's correctness bar —
loss-free, duplicate-free, state-identical — with the classic
snapshot+log protocol mapped onto the existing migration machinery:

1. the dead replica leaves the sharder (its buckets rebalance onto
   peers, its pins drop) — the same indirection-table move a planned
   scale-in makes;
2. each orphaned flow's latest checkpoint is restored onto the replica
   the sharder now names, handlers rebound from the dead replica's NF
   objects (kept alive in a graveyard precisely for this) to the
   target's;
3. the dead replica's input log replays *through the normal pipeline* —
   only entries past each flow's checkpoint position; flows born after
   the last checkpoint have their whole history in the log and are
   rebuilt from scratch;
4. buffered in-flight packets are delivered in arrival order — these
   are live deliveries, not replays;
5. the recovered flows are immediately re-checkpointed on their new
   homes, so a second failure replays from *now*, not from the dead
   replica's era.

Replay re-runs packets whose effects partially happened (shared-state
updates committed before the crash): per-flow state is rebuilt from
zero so re-running is exact, and genuinely shared state (NAT port pool,
monitor aggregates) lives in the :class:`~repro.ft.txstate.TransactionalStore`,
whose idempotent transactions make the replayed updates commit exactly
once.

A replica that dies while one of its flows is frozen mid-migration has
that flow's freeze buffer *absorbed* into the dead-replica buffer at
kill time (and the migration cancelled), so the buffer is delivered
exactly once by recovery — never double-delivered by a later
``complete_migration``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.packet import Packet
from repro.obs.audit import AuditLog
from repro.obs.forensics import StallCharge, emit_recovery_regime_shift
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, PacketTracer
from repro.platform.base import LoadResult
from repro.scale.cluster import ChainReplica, ScaleCluster
from repro.ft.checkpoint import CheckpointManager, restore_flow
from repro.ft.faults import FaultInjector
from repro.ft.pktlog import PacketLog
from repro.ft.txstate import TransactionalStore


class FailoverError(RuntimeError):
    """The cluster cannot recover from this failure."""


@dataclass
class DeadReplica:
    """A killed replica's remains: graveyard object + in-flight buffer."""

    replica: ChainReplica
    killed_at_index: int
    buffered: List[Packet] = field(default_factory=list)
    #: simulated arrival stamp of each buffered packet (parallel to
    #: ``buffered``); ``None`` for packets without an arrival clock
    #: (unloaded dispatch, absorbed freeze buffers)
    arrivals: List[Optional[float]] = field(default_factory=list)
    frozen_absorbed: int = 0
    #: recovery-timeline clock: when the kill landed (tracer ns)
    killed_ns: float = 0.0


@dataclass
class RecoveryReport:
    """What one failover did, and how long it took."""

    replica: int
    flows_restored: int = 0  # from checkpoints
    flows_rebuilt: int = 0  # from log replay alone (born after last snapshot)
    handlers_rebound: int = 0
    packets_replayed: int = 0  # log entries re-run through the pipeline
    packets_delivered: int = 0  # buffered in-flight packets delivered live
    packets_charged: int = 0  # deliveries charged with recovery stall
    stall_charged_ns: float = 0.0  # total recovery stall charged to them
    duration_s: float = 0.0
    outcomes: List[object] = field(default_factory=list, repr=False)


class FaultTolerance:
    """Checkpointed, replay-based failover for a :class:`ScaleCluster`."""

    def __init__(
        self,
        cluster: ScaleCluster,
        checkpoint_interval: int = 32,
        log_capacity: int = 4096,
        injector: Optional[FaultInjector] = None,
        store: Optional[TransactionalStore] = None,
        audit: Optional[AuditLog] = None,
        metrics: Optional[MetricsRegistry] = None,
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
        self.log_capacity = log_capacity
        self.injector = injector or FaultInjector()
        self.audit = audit if audit is not None else cluster.audit
        metrics = metrics if metrics is not None else cluster.metrics
        #: the cluster-shared transactional store (NAT port pool, monitor
        #: aggregates); survives every replica by construction
        self.store = store or TransactionalStore(audit=self.audit)
        self.checkpoints = CheckpointManager(cluster, audit=self.audit, metrics=metrics)
        self.logs: Dict[int, PacketLog] = {}
        self._since_checkpoint: Dict[int, int] = {}
        self.dead: Dict[int, DeadReplica] = {}
        self.recoveries: List[RecoveryReport] = []
        self.packets_buffered = 0
        self._in_recovery = False
        #: charge recovery wall-time (detect → drain) onto the simulated
        #: timeline of every buffered delivery (ROADMAP item-3 follow-on).
        #: ``False`` restores the pre-charging behavior: recovery stays a
        #: wall-clock side channel and delivered packets carry no stall.
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
        self._trace_origin = time.perf_counter()
        self._m_restore_ns = metrics.counter(
            "ft_restore_ns_total", "wall time spent restoring checkpoints"
        )
        self._m_replay_ns = metrics.counter(
            "ft_replay_ns_total", "wall time spent replaying input logs"
        )
        self._m_drain_ns = metrics.counter(
            "ft_drain_ns_total", "wall time spent draining buffered in-flight packets"
        )
        self._m_health_checkpoints = metrics.counter(
            "ft_health_checkpoints_total",
            "proactive checkpoints triggered by cluster-health transitions",
        )
        cluster.ft = self

    def _now_ns(self) -> float:
        return (time.perf_counter() - self._trace_origin) * 1e9

    # -- cluster hooks (called from ScaleCluster's dispatch path) -----------

    def tick(self, packet: Packet) -> None:
        """Advance the fault clock; execute an armed kill/recovery."""
        if self._in_recovery:
            return
        action = self.injector.tick()
        if action == "kill":
            self.injector.replica = self.kill(self.injector.replica, reason="injected")
        elif action == "recover":
            self.recover_all()

    def is_dead(self, replica_id: int) -> bool:
        return replica_id in self.dead

    def buffer_packet(
        self, replica_id: int, packet: Packet, arrival_ns: Optional[float] = None
    ) -> None:
        """Hold an in-flight packet addressed to a dead replica's flow.

        ``arrival_ns`` is the packet's simulated arrival stamp (loaded
        runs pass it); recovery charges the stall from that arrival to
        the packet's delivery when ``charge_recovery`` is on.
        """
        dead = self.dead[replica_id]
        dead.buffered.append(packet)
        dead.arrivals.append(arrival_ns)
        self.packets_buffered += 1
        self._m_buffered.inc()
        self.audit.emit(
            "ft_buffer",
            replica=replica_id,
            flow=str(packet.five_tuple().canonical()),
            buffered=len(dead.buffered),
        )

    def note_dispatch(self, packet: Packet, key, replica_id: int) -> None:
        """Log the packet pre-processing; run the checkpoint cadence."""
        if self._in_recovery:
            return
        if self._since_checkpoint.get(replica_id, 0) >= self.checkpoint_interval:
            self.checkpoint_replica(replica_id, cause="interval")
        log = self._log_for(replica_id)
        log.append(packet)
        self._since_checkpoint[replica_id] = (
            self._since_checkpoint.get(replica_id, 0) + 1
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
            self.checkpoints.snapshot_flow(
                dst_rid, key, log_seq=log.last_seq, cause="migrated_in"
            )

    def on_health(self, report) -> None:
        """Cluster-health listener: snapshot a struggling replica early.

        Subscribed via ``HealthModel.add_listener(ft.on_health)``.  A
        replica whose windows turn degraded or critical is statistically
        closer to a kill than its peers, so take a checkpoint *now*
        while its state is still reachable — recovery then replays from
        the onset of trouble instead of the last cadence snapshot.
        """
        if self._in_recovery:
            return
        from repro.obs.health import HEALTHY

        rid = report.replica
        if report.state == HEALTHY or rid not in self.cluster.replicas:
            return
        self._m_health_checkpoints.inc()
        self.checkpoint_replica(rid, cause=f"health_{report.state}")

    # -- checkpoint cadence --------------------------------------------------

    def _log_for(self, replica_id: int) -> PacketLog:
        log = self.logs.get(replica_id)
        if log is None:
            log = self.logs[replica_id] = PacketLog(
                capacity=self.log_capacity,
                on_full=lambda rid=replica_id: self.checkpoint_replica(
                    rid, cause="log_full"
                ),
            )
        return log

    def checkpoint_replica(self, replica_id: int, cause: str = "manual") -> int:
        """Snapshot every flow on the replica and trim its input log."""
        log = self._log_for(replica_id)
        captured = self.checkpoints.snapshot_replica(
            replica_id, log_seq=log.last_seq, cause=cause
        )
        log.trim(log.last_seq)
        self._since_checkpoint[replica_id] = 0
        return captured

    def checkpoint_all(self, cause: str = "manual") -> int:
        return sum(
            self.checkpoint_replica(rid, cause=cause)
            for rid in sorted(self.cluster.replicas)
        )

    # -- kill ----------------------------------------------------------------

    def _pick_victim(self) -> int:
        """Default victim: the alive replica homing the most flows."""
        homes = self.cluster.flow_homes()
        loads = {rid: 0 for rid in self.cluster.replicas}
        for home in homes.values():
            if home in loads:
                loads[home] += 1
        return max(sorted(loads), key=lambda rid: loads[rid])

    def kill(self, replica_id: Optional[int] = None, reason: str = "manual") -> int:
        """Remove a replica abruptly; its flows' packets buffer until recovery."""
        cluster = self.cluster
        if len(cluster.replicas) <= 1:
            raise FailoverError("cannot kill the last alive replica")
        if replica_id is None:
            replica_id = self._pick_victim()
        if replica_id not in cluster.replicas:
            raise FailoverError(f"unknown or already-dead replica {replica_id!r}")
        replica = cluster.replicas.pop(replica_id)
        dead = DeadReplica(
            replica=replica,
            killed_at_index=self.injector.packet_index,
            killed_ns=self._now_ns(),
        )
        self.tracer.instant(
            "detect", f"ft:r{replica_id}", dead.killed_ns, reason=reason
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
            reason=reason,
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
        started = time.perf_counter()
        report = RecoveryReport(replica=replica_id)
        self._in_recovery = True
        tracer = self.tracer
        track = f"ft:r{replica_id}"
        stage_start = self._now_ns()
        # The buffer stage spans the dead era itself: detect → recovery
        # start, everything that arrived meanwhile held in order.
        tracer.span(
            "buffer",
            track,
            dead.killed_ns,
            stage_start - dead.killed_ns,
            packets=len(dead.buffered),
            frozen_absorbed=dead.frozen_absorbed,
        )
        try:
            src_nfs = list(dead.replica.runtime.nfs)

            # 1. The dead replica leaves the indirection table: its
            # buckets rebalance onto the peers, its pins drop.
            cluster.sharder.remove_replica(replica_id)

            # 2. Orphaned flows: everything homed on the dead replica.
            orphan_keys = sorted(cluster.flows_homed_on(replica_id))
            for key in orphan_keys:
                del cluster._flow_homes[key]
            orphan_set = set(orphan_keys)

            # Flows the dead replica's classifier no longer tracked had
            # finished (FIN teardown) before the kill: their state was
            # already gone and their shared-state effects (NAT port
            # release) already committed.  Restoring or replaying one
            # would resurrect a completed flow — and its NAT setup,
            # whose idempotency record died with the flow, would draw a
            # *different* port from the freed list, permuting the
            # allocation the reference run made.  ``None`` (no
            # classifier on the dead runtime) disables the guard.
            classifier = getattr(dead.replica.runtime, "classifier", None)
            live_keys = None
            if classifier is not None:
                live_keys = {
                    entry.five_tuple.canonical()
                    for entry in classifier._flows.values()
                    if not entry.closed
                }

            # 3. Restore checkpoints onto the replicas the sharder now
            # names; pin every wire direction to the same target, exactly
            # as live egress tracking would have.
            restored: Dict = {}
            snapshot_covered: set = set()
            for key in orphan_keys:
                checkpoint = self.checkpoints.snapshot_for(key)
                if checkpoint is None or checkpoint.flow in restored:
                    continue
                if live_keys is not None and not live_keys.intersection(
                    direction.canonical() for direction in checkpoint.directions
                ):
                    # Closed since its last snapshot: a stale checkpoint
                    # must not resurrect it (same rule the cadence
                    # applies when a capture comes back empty).
                    self.checkpoints.drop_flow(checkpoint.flow)
                    continue
                target = self._alive_home(checkpoint.flow)
                rebound = restore_flow(
                    checkpoint, cluster.replicas[target].runtime, src_nfs
                )
                for direction in checkpoint.directions:
                    direction_key = direction.canonical()
                    snapshot_covered.add(direction_key)
                    cluster._flow_homes[direction_key] = target
                    if cluster.sharder.replica_for(direction_key) != target:
                        cluster.sharder.pin(direction_key, target)
                restored[checkpoint.flow] = (checkpoint, target)
                report.flows_restored += 1
                report.handlers_rebound += rebound
                self.audit.emit(
                    "ft_restore",
                    flow=str(checkpoint.flow),
                    src=replica_id,
                    dst=target,
                    log_seq=checkpoint.log_seq,
                    items=checkpoint.item_count(),
                )

            now = self._now_ns()
            tracer.span(
                "restore",
                track,
                stage_start,
                now - stage_start,
                flows=report.flows_restored,
                handlers=report.handlers_rebound,
            )
            self._m_restore_ns.inc(now - stage_start)
            stage_start = now

            # 4. Replay the input log through the normal pipeline —
            # snapshot-covered flows from their checkpoint position,
            # snapshot-less flows (born since the last checkpoint) from
            # their first logged packet.
            log = self._log_for(replica_id)
            rebuilt_flows: set = set()
            for entry in log.entries():
                if entry.key not in orphan_set:
                    continue  # migrated away before the kill: lives elsewhere
                if live_keys is not None and entry.key not in live_keys:
                    continue  # flow finished before the kill: nothing to rebuild
                checkpoint = self.checkpoints.snapshot_for(entry.key)
                if checkpoint is not None and entry.seq <= checkpoint.log_seq:
                    continue  # effect already inside the snapshot
                if entry.key not in snapshot_covered:
                    rebuilt_flows.add(entry.key)
                # A replayed clone must never land in a concurrently-dead
                # peer's buffer (it would be delivered live later — a dup).
                self._alive_home(entry.key)
                cluster.process(entry.packet.clone())
                report.packets_replayed += 1
            report.flows_rebuilt = len(rebuilt_flows)
            self._m_replayed.inc(report.packets_replayed)
            del self.logs[replica_id]
            self._since_checkpoint.pop(replica_id, None)
            self.audit.emit(
                "ft_replay",
                replica=replica_id,
                replayed=report.packets_replayed,
                rebuilt_flows=report.flows_rebuilt,
            )

            now = self._now_ns()
            tracer.span(
                "replay",
                track,
                stage_start,
                now - stage_start,
                replayed=report.packets_replayed,
                rebuilt_flows=report.flows_rebuilt,
            )
            self._m_replay_ns.inc(now - stage_start)
            stage_start = now

            # 5. Deliver the buffered in-flight packets in arrival order.
            # These are live deliveries: their outcomes count.  A packet
            # whose flow is homed on *another* dead replica (concurrent
            # failure) re-buffers there and is delivered by that recovery.
            # With charge_recovery on, each delivery is charged the wall
            # time from failure detection to its delivery as simulated
            # stall — the recovery cost lands on the packets that paid
            # it, not just on a wall-clock side channel.
            charge = self.charge_recovery
            recovery_charges: List[StallCharge] = []
            for packet, arrival_ns in zip(dead.buffered, dead.arrivals):
                flow = str(packet.five_tuple().canonical())
                outcome = cluster.process(packet)
                if outcome is None:
                    continue
                report.packets_delivered += 1
                report.outcomes.append(outcome)
                if charge:
                    stall_ns = self._now_ns() - dead.killed_ns
                    charged = StallCharge(
                        replica=replica_id,
                        flow=flow,
                        arrival_ns=arrival_ns if arrival_ns is not None else 0.0,
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

            now = self._now_ns()
            tracer.span(
                "drain",
                track,
                stage_start,
                now - stage_start,
                delivered=report.packets_delivered,
            )
            self._m_drain_ns.inc(now - stage_start)
            stage_start = now

            # 6. Fresh checkpoints on every alive replica: a second
            # failure replays from now, not from the dead replica's era
            # (the replays and deliveries above bypassed the input logs).
            for rid in sorted(cluster.replicas):
                self.checkpoint_replica(rid, cause="post_recovery")
            now = self._now_ns()
            tracer.span(
                "re-checkpoint",
                track,
                stage_start,
                now - stage_start,
                replicas=len(cluster.replicas),
            )
        finally:
            self._in_recovery = False
        report.duration_s = time.perf_counter() - started
        self.recoveries.append(report)
        self._m_recoveries.inc()
        # The stall regime shifted the moment these deliveries were
        # charged: audit it *before* ft_failover_complete so the shift's
        # seq precedes the completion's in the causal timeline.
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
            duration_ms=round(report.duration_s * 1000.0, 3),
        )
        cluster.notify_placement("failover")
        return report

    def recover_all(self) -> List[RecoveryReport]:
        """Recover every dead replica (lowest id first)."""
        return [self.recover(rid) for rid in sorted(self.dead)]

    def charged_result(self) -> LoadResult:
        """The charged deliveries as a mergeable :class:`LoadResult`.

        Each latency is the delivery's ``service + stall`` (canonical
        component order, so forensic decomposition of these packets is
        exact by construction).  Merge it into a run's total so
        post-failover percentiles include the recovery stall::

            total = result.total.merge(ft.charged_result())
        """
        latencies = [charged.latency_ns for charged in self.charged]
        makespan = 0.0
        for charged in self.charged:
            finish = charged.arrival_ns + charged.latency_ns
            if finish > makespan:
                makespan = finish
        return LoadResult(
            offered=len(latencies),
            delivered=len(latencies),
            dropped=0,
            makespan_ns=makespan,
            latencies_ns=latencies,
        )

    def __repr__(self) -> str:
        return (
            f"<FaultTolerance interval={self.checkpoint_interval} "
            f"{len(self.cluster.replicas)} alive, {len(self.dead)} dead, "
            f"{len(self.recoveries)} recoveries>"
        )
