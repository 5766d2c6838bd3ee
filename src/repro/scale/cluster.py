"""Replica manager: N chain copies behind one sharder, on one sim clock.

:class:`ScaleCluster` instantiates N independent ``SpeedyBox`` (or
baseline ``ServiceChain``) + ``Platform`` copies from one chain factory,
shards flows across them with :class:`~repro.scale.sharder.FlowSharder`,
and offers every replica its share of one global arrival timeline.
Each replica's platform replays its share as it would alone — unless
``physical_cores`` is set: then every pipeline runs on one *shared*
discrete-event engine and contends for a common core pool instead of
each enjoying its own private machine.

It also owns the migration choreography (the part the
:class:`~repro.scale.migration.FlowMigrator` deliberately does not):

1. ``begin_migration(flow)`` freezes the flow at the sharder — packets
   of either direction arriving while frozen are *buffered*, never
   dropped and never processed by the wrong replica;
2. ``complete_migration(flow, dst)`` drains (there are no in-flight
   packets outside the buffer in this single-threaded model), transfers
   the flow's whole state as one unit, pins the flow to its new home,
   and replays the buffered packets there in arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.framework import ServiceChain, SpeedyBox
from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.obs.span import FlowSpanRecorder
from repro.obs.trace import NULL_TRACER, PacketTracer
from repro.platform import BessPlatform, OpenNetVMPlatform
from repro.platform.base import (
    FunctionalRun,
    LoadResult,
    PacketOutcome,
    Platform,
    PlatformConfig,
    checked_gap,
)
from repro.scale.migration import (
    FlowMigrator,
    MigrationError,
    MigrationReport,
    wire_directions,
)
from repro.scale.sharder import FlowSharder
# ``analytic_replay`` is not called here (each replica replays through its
# platform's ``_replay``); bench/workloads.py patches the name on this module.
from repro.sim import Engine, Resource, analytic_replay  # noqa: F401

PLATFORM_CLASSES = {"bess": BessPlatform, "onvm": OpenNetVMPlatform}

ChainFactory = Callable[[], Sequence[NetworkFunction]]


@dataclass
class ChainReplica:
    """One chain copy: its id, its platform, and the runtime inside it."""

    replica_id: int
    platform: Platform

    @property
    def runtime(self) -> Union[ServiceChain, SpeedyBox]:
        return self.platform.runtime

    @property
    def label(self) -> str:
        return self.platform.label


@dataclass
class ClusterLoadResult:
    """Aggregate + per-replica results of one loaded cluster run."""

    total: LoadResult
    per_replica: Dict[int, LoadResult]
    #: total requested service time per replica (ns) — the autoscaler's
    #: core-demand signal, summed from the replayed stage plans
    busy_ns: Dict[int, float] = field(default_factory=dict)


class ScaleCluster:
    """N sharded chain replicas with migration and elastic repartitioning."""

    def __init__(
        self,
        chain_factory: ChainFactory,
        platform: str = "bess",
        replicas: int = 1,
        speedybox: bool = True,
        speedybox_kwargs: Optional[dict] = None,
        config: Optional[PlatformConfig] = None,
        physical_cores: Optional[int] = None,
        buckets: int = 64,
        metrics: MetricsRegistry = NULL_REGISTRY,
        tracer: PacketTracer = NULL_TRACER,
        audit: AuditLog = NULL_AUDIT,
        spans: Optional[FlowSpanRecorder] = None,
        timeseries=None,
        forensics=None,
    ):
        if platform not in PLATFORM_CLASSES:
            raise ValueError(f"unknown platform {platform!r} (bess|onvm)")
        if replicas <= 0:
            raise ValueError(f"cluster needs at least one replica, got {replicas!r}")
        if physical_cores is not None and physical_cores < 1:
            raise ValueError(
                f"physical_cores must be >= 1 or None, got {physical_cores!r}"
            )
        self.chain_factory = chain_factory
        self.platform_name = platform
        self.speedybox = speedybox
        self.speedybox_kwargs = dict(speedybox_kwargs or {})
        self.config = config
        self.physical_cores = physical_cores
        self.metrics = metrics
        self.tracer = tracer
        self.audit = audit
        #: shared by every replica's platform — flows are sampled across
        #: the whole cluster, not per replica
        self.spans = spans
        #: optional :class:`repro.obs.timeseries.TimeSeries` pumped per
        #: dispatch inside :meth:`run_load` — unlike the platform-level
        #: post-run ingestion, windows close *mid-run* here, which is
        #: what lets the health model flag a replica as degraded while
        #: the window that doomed it is still in flight
        self.timeseries = timeseries
        #: optional :class:`repro.obs.forensics.ForensicsEngine`, shared
        #: by every replica's platform, whose tail decomposes its
        #: replica's finished replay — for :meth:`run_load` and
        #: :meth:`run_load_batch` alike.
        self.forensics = forensics
        #: per-replica fast-path counter watermarks for the pump
        self._ts_fast_prev: Dict[int, int] = {}
        self.replicas: Dict[int, ChainReplica] = {}
        self._next_id = 0
        for __ in range(replicas):
            self._spawn_replica()
        self.sharder = FlowSharder(
            {rid: 1.0 for rid in self.replicas}, buckets=buckets
        )
        self.migrator = FlowMigrator(metrics=metrics, tracer=tracer, audit=audit)
        #: canonical five-tuple -> buffered packets (flow is mid-migration);
        #: all wire directions of one frozen flow share one buffer list
        self._frozen: Dict[FiveTuple, List[Packet]] = {}
        #: frozen flow's primary key -> every canonical key in its group
        self._freeze_groups: Dict[FiveTuple, List[FiveTuple]] = {}
        #: canonical five-tuple -> replica currently holding its state
        self._flow_homes: Dict[FiveTuple, int] = {}
        self.packets_buffered = 0
        #: set by :class:`repro.ft.failover.FaultTolerance` when attached —
        #: the cluster then routes every dispatch through its fault hooks
        self.ft = None
        self._placement_listeners: List[Callable[[str], None]] = []
        self._m_replicas = metrics.gauge(
            "cluster_replicas", "chain replicas currently running"
        )
        self._m_buffered = metrics.counter(
            "migration_buffered_packets_total", "packets buffered during flow freezes"
        )
        self._m_replicas.set(len(self.replicas))

    # -- replica lifecycle ----------------------------------------------------

    def _spawn_replica(self) -> int:
        rid = self._next_id
        self._next_id += 1
        nfs = list(self.chain_factory())
        runtime: Union[ServiceChain, SpeedyBox]
        if self.speedybox:
            runtime = SpeedyBox(
                nfs, metrics=self.metrics, audit=self.audit, **self.speedybox_kwargs
            )
        else:
            runtime = ServiceChain(nfs, metrics=self.metrics)
        platform_cls = PLATFORM_CLASSES[self.platform_name]
        platform = platform_cls(
            runtime,
            config=self.config,
            metrics=self.metrics,
            tracer=self.tracer,
            label=f"{platform_cls.name}:r{rid}",
            spans=self.spans,
            forensics=self.forensics,
        )
        self.replicas[rid] = ChainReplica(replica_id=rid, platform=platform)
        return rid

    @property
    def replica_count(self) -> int:
        return len(self.replicas)

    def replica(self, replica_id: int) -> ChainReplica:
        return self.replicas[replica_id]

    # -- dispatch -------------------------------------------------------------

    def home_of(self, flow: FiveTuple) -> int:
        """The replica holding this flow's state right now."""
        key = flow.canonical()
        home = self._flow_homes.get(key)
        if home is not None:
            return home
        return self.sharder.replica_for(key)

    def process(self, packet: Packet) -> Optional[PacketOutcome]:
        """Dispatch one packet to its flow's replica (unloaded mode).

        Returns ``None`` when the packet cannot be processed *yet*: the
        flow is frozen mid-migration (buffered, replayed on the target
        when the migration completes) or its home replica is dead
        (buffered by the fault-tolerance coordinator, delivered in order
        when failover completes).
        """
        key = packet.five_tuple().canonical()
        rid = self._route(packet, key)
        if rid is None:
            return None
        outcome = self.replicas[rid].platform.process(packet)
        self._note_egress(packet, key, rid)
        return outcome

    def _route(
        self, packet: Packet, key: FiveTuple, arrival_ns: Optional[float] = None
    ) -> Optional[int]:
        """The one routing step, unloaded and loaded alike: the replica
        that takes ``packet`` now, or ``None`` when it was buffered.

        Advances the fault clock (which may execute an armed kill or
        recovery), honours a migration freeze, finds the flow's home,
        buffers against a dead home — with the packet's offered time,
        when a loaded run knows it, so recovery can charge the stall —
        and otherwise records the home and logs the dispatch.
        """
        ft = self.ft
        if ft is not None:
            ft.tick(packet)
        buffer = self._frozen.get(key)
        if buffer is not None:
            buffer.append(packet)
            self.packets_buffered += 1
            self._m_buffered.inc()
            self.audit.emit("migration_buffer", flow=str(key), buffered=len(buffer))
            return None
        rid = self.home_of(key)
        if ft is not None and ft.is_dead(rid):
            # Don't record a home: a *new* flow hashed onto the dead
            # replica gets a fresh home after the sharder rebalances.
            # Recovery delivers the packet and counts its outcome.
            ft.buffer_packet(rid, packet, arrival_ns=arrival_ns)
            return None
        self._flow_homes[key] = rid
        if ft is not None:
            ft.note_dispatch(packet, key, rid)
        return rid

    def _note_egress(self, packet: Packet, ingress_key: FiveTuple, rid: int) -> None:
        """Keep a rewritten connection's return traffic on this replica.

        When the chain rewrites the five-tuple (NAT, LB), the peer's
        replies arrive addressed to the *translated* endpoint — a tuple
        that hashes to an arbitrary bucket.  Pin its canonical key to the
        replica holding the translation state.
        """
        egress_key = packet.five_tuple().canonical()
        if egress_key == ingress_key:
            return
        self._flow_homes.setdefault(egress_key, rid)
        if self.sharder.replica_for(egress_key) != rid:
            self.sharder.pin(egress_key, rid)

    def process_all(self, packets: Sequence[Packet]) -> List[Optional[PacketOutcome]]:
        return [self.process(packet) for packet in packets]

    # -- loaded mode ----------------------------------------------------------

    def run_load(
        self, packets: Sequence[Packet], inter_arrival_ns: float = 0.0
    ) -> ClusterLoadResult:
        """Two-phase loaded run across every replica.

        The cluster is a router in front of N passes: it opens each
        replica's per-packet pass (:meth:`Platform._begin_pass`), routes
        the packets in global arrival order and offers each to its
        replica's pass, with arrival gaps preserving the *global*
        offered timeline; then every replica's run is replayed by its
        own platform, on the route that platform would take alone.  Only
        with ``physical_cores`` set do the replicas share one engine:
        all their stage workers contend for that core pool.
        """
        checked_gap(inter_arrival_ns)
        if self._frozen:
            raise MigrationError(
                f"cannot run load with {len(self._frozen)} flow(s) frozen mid-migration"
            )
        # A fault injected mid-window removes a replica from self.replicas;
        # its pre-kill packets must still count in the timing replay, so
        # the window's participant set is fixed up front (recovery never
        # spawns new replicas, it re-homes onto survivors).  Recovery's
        # deliveries go through ``process`` while the passes stay open.
        participants = dict(self.replicas)
        offers: Dict[int, Callable] = {}
        runs: Dict[int, FunctionalRun] = {}
        for rid, replica in participants.items():
            offers[rid], runs[rid] = replica.platform._begin_pass()
            runs[rid].replica = rid
        gaps: Dict[int, List[float]] = {rid: [] for rid in participants}
        last_arrival: Dict[int, float] = {}
        timeseries = self.timeseries
        for index, packet in enumerate(packets):
            arrival = index * inter_arrival_ns
            key = packet.five_tuple().canonical()
            rid = self._route(packet, key, arrival)
            if rid is None:
                if timeseries is not None:
                    timeseries.record(
                        arrival, None, replica=self.home_of(key), buffered=True
                    )
                continue
            plan = offers[rid](packet)
            self._note_egress(packet, key, rid)
            gaps[rid].append(arrival - last_arrival.get(rid, 0.0))
            last_arrival[rid] = arrival
            if timeseries is not None:
                # Dispatch-time latency signal: the packet's requested
                # service time (stage-plan sum).  The queued end-to-end
                # latency only exists after the temporal replay, but the
                # window must close *now* for degraded-before-dead
                # detection — service time is the deterministic
                # per-packet component of it.
                fast_now = getattr(participants[rid].runtime, "fast_packets", 0)
                fast_hit = fast_now > self._ts_fast_prev.get(rid, 0)
                self._ts_fast_prev[rid] = fast_now
                timeseries.record(
                    arrival,
                    sum(service for __, service in plan),
                    replica=rid,
                    dropped=packet.dropped,
                    fast_hit=fast_hit,
                )
        if timeseries is not None:
            # Close the trailing window at run end: arrival clocks restart
            # at zero each window run, so windows never span run_load calls.
            timeseries.finish()

        # The router ends here; every replica finishes where a platform
        # does.  Without a shared core pool the pipelines are
        # independent, so each replica replays exactly as it would alone
        # (Platform._replay picks its route).  A core pool couples them:
        # every pipeline is spawned on one engine, and each platform is
        # handed its timeline for the same finishing step.
        per_replica: Dict[int, LoadResult] = {}
        if self.physical_cores is None:
            for rid, replica in participants.items():
                per_replica[rid] = replica.platform._replay(
                    runs[rid], gaps[rid], inter_arrival_ns
                )
        else:
            engine = Engine()
            next(iter(participants.values())).platform._attach_observer(engine)
            core_pool = Resource(engine, capacity=self.physical_cores, name="cores")
            pipelines = {
                rid: replica.platform._spawn_pipeline(
                    engine, runs[rid].plans, gaps[rid], core_pool=core_pool
                )
                for rid, replica in participants.items()
            }
            engine.run()
            for rid, pipeline in pipelines.items():
                platform = participants[rid].platform
                platform._publish_load_metrics(pipeline.rings)
                per_replica[rid] = platform._finish_run(
                    runs[rid], (pipeline.arrival, pipeline.finish), inter_arrival_ns, "des"
                )
        busy_ns = {
            rid: sum(service for plan in run.plans for __, service in plan)
            for rid, run in runs.items()
        }
        total = LoadResult.merged(list(per_replica.values()))
        return ClusterLoadResult(total=total, per_replica=per_replica, busy_ns=busy_ns)

    def run_load_batch(self, batch) -> ClusterLoadResult:
        """Shard a columnar :class:`~repro.traffic.columnar.PacketBatch`
        across the replicas and run every sub-batch, one loaded window.

        The columnar analogue of :meth:`run_load`: the sharding unit is
        the *flow* (``home_of`` on each flow's canonical five-tuple, the
        same mapping the per-packet router uses), each replica gets
        a self-contained sub-batch (:meth:`PacketBatch.select_flows`,
        packet order preserved), and each replica's platform runs it —
        down the whole-batch lane when that platform is eligible.  With
        back-to-back arrivals the per-replica results are exactly what
        the per-packet window would have produced, which is why no
        ``inter_arrival_ns`` parameter exists here: a global arrival
        timeline cannot be cut into self-contained sub-batches.

        Not supported (both need per-packet hooks): flows frozen
        mid-migration, and fault tolerance (checkpoint ticking, dead-
        replica buffering).  ``busy_ns`` is empty — the per-replica
        stage plans live inside each platform's run, not here.
        """
        if self._frozen:
            raise MigrationError(
                f"cannot run load with {len(self._frozen)} flow(s) frozen mid-migration"
            )
        if self.ft is not None:
            raise MigrationError(
                "fault tolerance needs the per-packet window; use run_load"
            )
        flows_by_rid: Dict[int, List[int]] = {rid: [] for rid in self.replicas}
        five_tuple_of = batch.five_tuple_of
        for flow in range(batch.flow_count):
            rid = self.home_of(five_tuple_of(flow))
            flows_by_rid[rid].append(flow)
        per_replica: Dict[int, LoadResult] = {}
        for rid, flow_ids in flows_by_rid.items():
            sub_batch = batch.select_flows(flow_ids)
            per_replica[rid] = self.replicas[rid].platform.run_load(sub_batch)
        total = LoadResult.merged(list(per_replica.values()))
        return ClusterLoadResult(total=total, per_replica=per_replica, busy_ns={})

    # -- migration choreography -----------------------------------------------

    def begin_migration(self, flow: FiveTuple) -> FiveTuple:
        """Freeze the flow at the sharder; its packets buffer from now on.

        Freezing covers every wire direction of the connection — for a
        NAT'd flow that includes the translated return tuple — and all
        of them share one buffer so replay preserves arrival order.
        """
        key = flow.canonical()
        if key in self._frozen:
            raise MigrationError(f"flow {flow} is already frozen")
        home = self.home_of(key)
        if home not in self.replicas:
            raise MigrationError(
                f"flow {flow} is homed on dead replica {home}; recover it first"
            )
        src_nfs = self.replicas[home].runtime.nfs
        group: List[FiveTuple] = []
        for direction in wire_directions(src_nfs, key):
            canonical = direction.canonical()
            if canonical not in group:
                group.append(canonical)
        buffer: List[Packet] = []
        for member in group:
            if member in self._frozen:
                raise MigrationError(f"flow {member} is already frozen")
            self._frozen[member] = buffer
        self._freeze_groups[key] = group
        self.audit.emit(
            "migration_freeze",
            flow=str(key),
            directions=[str(member) for member in group],
        )
        return key

    def complete_migration(
        self, flow: FiveTuple, dst_replica_id: int, pin: bool = True
    ) -> Tuple[Optional[MigrationReport], List[PacketOutcome]]:
        """Transfer the frozen flow's state, then replay its buffer.

        Returns the migration report (``None`` if the flow was already
        home) and the outcomes of the replayed packets — exactly one per
        buffered packet: zero loss by construction.
        """
        key = flow.canonical()
        group = self._freeze_groups.pop(key, None)
        if group is None:
            raise MigrationError(f"flow {flow} is not frozen; call begin_migration first")
        if dst_replica_id not in self.replicas:
            self._freeze_groups[key] = group
            raise MigrationError(f"unknown replica {dst_replica_id!r}")
        src_rid = self.home_of(key)
        if src_rid not in self.replicas:
            # Unreachable through the public flow: a kill absorbs the
            # freeze buffers of the dead replica's frozen flows, so this
            # group would already be gone.  Guard anyway.
            self._freeze_groups[key] = group
            raise MigrationError(
                f"flow {flow} is homed on dead replica {src_rid}; recover it first"
            )
        # The buffer is complete before the transfer starts — the flow is
        # frozen and the model single-threaded — so the migrator's audit
        # record can carry the exact replay count.
        buffered = self._frozen[key]
        report: Optional[MigrationReport] = None
        if src_rid != dst_replica_id:
            report = self.migrator.migrate(
                self.replicas[src_rid].runtime,
                self.replicas[dst_replica_id].runtime,
                key,
                replayed=len(buffered),
            )
        for member in group:
            del self._frozen[member]
            if member in self._flow_homes or member == key:
                self._flow_homes[member] = dst_replica_id
            # Secondary keys (translated return tuples) must always stay
            # with the state that translates them; only the primary key's
            # table override is the caller's choice.
            if pin or member != key:
                if self.sharder.replica_for(member) != dst_replica_id:
                    self.sharder.pin(member, dst_replica_id)
        outcomes = []
        for packet in buffered:
            ingress = packet.five_tuple().canonical()
            outcome = self.replicas[dst_replica_id].platform.process(packet)
            self._note_egress(packet, ingress, dst_replica_id)
            outcomes.append(outcome)
        self.audit.emit(
            "migration_replay",
            flow=str(key),
            src=src_rid,
            dst=dst_replica_id,
            buffered=len(buffered),
            replayed=len(outcomes),
            moved=report is not None,
        )
        if self.ft is not None and report is not None:
            # The flow's checkpoint still points at the source replica —
            # and the freeze-buffer replays above bypassed the input log.
            # Re-snapshot on the destination so a failure there recovers
            # the post-migration state.
            self.ft.on_flow_migrated(key, src_rid, dst_replica_id)
        return report, outcomes

    def migrate_flow(
        self, flow: FiveTuple, dst_replica_id: int, pin: bool = True
    ) -> Optional[MigrationReport]:
        """Freeze + transfer + resume in one call (no traffic in between)."""
        self.begin_migration(flow)
        report, __ = self.complete_migration(flow, dst_replica_id, pin=pin)
        return report

    def churn_flows(self, count: int, seed: int = 0) -> List[MigrationReport]:
        """Forcibly re-home ``count`` live flows (migration-churn ablation).

        Deterministic: flows are chosen by seeded sample over the sorted
        live-flow set, each moved to the next replica id round-robin.
        """
        import random

        live = sorted(self._flow_homes)
        if not live or len(self.replicas) < 2:
            return []
        rng = random.Random(seed)
        chosen = rng.sample(live, min(count, len(live)))
        rids = sorted(self.replicas)
        reports = []
        for key in chosen:
            home = self._flow_homes[key]
            dst = rids[(rids.index(home) + 1) % len(rids)]
            report = self.migrate_flow(key, dst)
            if report is not None:
                reports.append(report)
        return reports

    # -- elasticity (used by the autoscaler) ----------------------------------

    def scale_out(self, weight: float = 1.0, rebalance: bool = True) -> int:
        """Add a replica; repartition and migrate the moved buckets' flows."""
        rid = self._spawn_replica()
        # rebalance=False joins with zero buckets — the equivalence
        # oracle uses this to add an empty replica and migrate one flow
        # onto it by pin, isolating migration from resharding effects.
        self.sharder.add_replica(rid, weight, rebalance=rebalance)
        if rebalance:
            self._migrate_rehomed_flows()
        self._m_replicas.set(len(self.replicas))
        self.audit.emit("scale_out", replica=rid, replicas=len(self.replicas))
        self.notify_placement("scale_out")
        return rid

    def scale_in(self) -> int:
        """Retire the highest-id replica, migrating its flows away first."""
        if len(self.replicas) <= 1:
            raise MigrationError("cannot scale in below one replica")
        rid = max(self.replicas)
        self.sharder.remove_replica(rid)
        self._migrate_rehomed_flows()
        remaining = self.flows_homed_on(rid)
        if remaining:
            raise MigrationError(
                f"replica {rid} still homes {len(remaining)} flow(s) after drain"
            )
        del self.replicas[rid]
        self._m_replicas.set(len(self.replicas))
        self.audit.emit("scale_in", replica=rid, replicas=len(self.replicas))
        self.notify_placement("scale_in")
        return rid

    def _migrate_rehomed_flows(self) -> List[MigrationReport]:
        """Move every live flow whose sharder target no longer matches home."""
        reports = []
        for key in sorted(self._flow_homes):
            target = self.sharder.replica_for(key)
            if target != self._flow_homes[key]:
                report = self.migrate_flow(key, target, pin=False)
                if report is not None:
                    reports.append(report)
        return reports

    # -- placement events -----------------------------------------------------

    def add_placement_listener(self, listener: Callable[[str], None]) -> None:
        """Subscribe to placement changes made outside the autoscaler.

        A failover re-homes flows exactly like a scaling action does, so
        the autoscaler subscribes here to restart its cooldown — without
        this, it could pile a scale decision onto a cluster still
        settling from recovery.
        """
        self._placement_listeners.append(listener)

    def notify_placement(self, kind: str) -> None:
        for listener in self._placement_listeners:
            listener(kind)

    # -- introspection --------------------------------------------------------

    def flow_homes(self) -> Dict[FiveTuple, int]:
        return dict(self._flow_homes)

    def flows_homed_on(self, replica_id: int) -> List[FiveTuple]:
        """The canonical keys whose state lives on one replica."""
        return [key for key, home in self._flow_homes.items() if home == replica_id]

    def reset(self) -> None:
        for replica in self.replicas.values():
            replica.platform.reset()
        self._frozen.clear()
        self._freeze_groups.clear()
        self._flow_homes.clear()
        self._ts_fast_prev.clear()
        self.packets_buffered = 0

    def __repr__(self) -> str:
        return (
            f"<ScaleCluster {self.platform_name} x{len(self.replicas)} "
            f"({'speedybox' if self.speedybox else 'original'}), "
            f"{len(self._flow_homes)} live flows>"
        )
