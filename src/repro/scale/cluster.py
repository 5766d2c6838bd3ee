"""Replica manager: N chain copies behind one sharder, on one sim clock.

:class:`ScaleCluster` instantiates N independent ``SpeedyBox`` (or
baseline ``ServiceChain``) + ``Platform`` copies from one chain factory,
shards flows across them with :class:`~repro.scale.sharder.FlowSharder`,
and offers every replica its share of one global arrival timeline.
Each replica's platform replays its share as it would alone, on its own
cores.

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

from dataclasses import dataclass
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
    _is_packet_batch,
    checked_gap,
)
from repro.scale.migration import (
    FlowMigrator,
    MigrationError,
    MigrationReport,
    flow_walk,
)
from repro.scale.sharder import FlowSharder
from repro.vector import np
# ``analytic_replay`` is not called here (each replica replays through its
# platform's ``_replay``); bench/workloads.py patches the name on this module.
from repro.sim import analytic_replay  # noqa: F401

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


class ScaleCluster:
    """N sharded chain replicas with live flow migration."""

    def __init__(
        self,
        chain_factory: ChainFactory,
        platform: str = "bess",
        replicas: int = 1,
        speedybox: bool = True,
        speedybox_kwargs: Optional[dict] = None,
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
        self.chain_factory = chain_factory
        self.platform_name = platform
        self.speedybox = speedybox
        self.speedybox_kwargs = dict(speedybox_kwargs or {})
        self.metrics = metrics
        self.tracer = tracer
        self.audit = audit
        #: shared by every replica's platform — flows are sampled across
        #: the whole cluster, not per replica
        self.spans = spans
        #: optional :class:`repro.obs.timeseries.TimeSeries`, cut once per
        #: :meth:`run_load` after the replicas' replays, from their merged
        #: columns in global arrival order plus a row for every packet
        #: buffered against a frozen or dead home.  The replicas' own
        #: platforms carry none, and nothing is windowed mid-run, so
        #: watching a cluster cannot change what it does.
        self.timeseries = timeseries
        #: optional :class:`repro.obs.forensics.ForensicsEngine`: a
        #: reducer over the time series' cut of the merged run, so it
        #: needs one.  The cluster labels its replicas' passes itself;
        #: their platforms carry no engine.
        if forensics is not None and timeseries is None:
            raise ValueError("forensics reduces over the time series' windows: attach a timeseries")
        self.forensics = forensics
        self.replicas: Dict[int, ChainReplica] = {}
        self._next_id = 0
        for __ in range(replicas):
            self._spawn_replica()
        self.sharder = FlowSharder(list(self.replicas), buckets=buckets)
        self.migrator = FlowMigrator(metrics=metrics, tracer=tracer, audit=audit)
        #: canonical five-tuple -> buffered packets (flow is mid-migration);
        #: all wire directions of one frozen flow share one buffer list
        self._frozen: Dict[FiveTuple, List[Packet]] = {}
        #: frozen flow's primary key -> every canonical key in its group
        self._freeze_groups: Dict[FiveTuple, List[FiveTuple]] = {}
        #: canonical five-tuple -> replica currently holding its state
        self._flow_homes: Dict[FiveTuple, int] = {}
        #: egress alias pinned by ``_note_egress`` -> its connection's ingress key
        self._ingress_of: Dict[FiveTuple, FiveTuple] = {}
        self.packets_buffered = 0
        #: set by :class:`repro.ft.failover.FaultTolerance` when attached —
        #: the cluster then routes every dispatch through its fault hooks
        self.ft = None
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
            metrics=self.metrics,
            tracer=self.tracer,
            label=f"{platform_cls.name}:r{rid}",
            spans=self.spans,
        )
        first = next(iter(self.replicas.values()), None)
        if first is not None:
            # one chain on one platform class prices a report shape alike
            # on every replica: they share the first one's priced shapes
            platform._timings, platform._plans = first.platform._timings, first.platform._plans
        self.replicas[rid] = ChainReplica(replica_id=rid, platform=platform)
        return rid

    def scale_out(self) -> int:
        """Add an empty replica and return its id.

        It joins the sharder with no buckets, so flows reach it only by
        pin: the migration equivalence oracle adds one and migrates a
        single flow onto it, isolating migration from resharding.
        """
        rid = self._spawn_replica()
        self.sharder.add_replica(rid)
        self._m_replicas.set(len(self.replicas))
        self.audit.emit("scale_out", replica=rid, replicas=len(self.replicas))
        return rid

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

        With fault tolerance attached, its one per-packet hook routes
        (:meth:`~repro.ft.failover.FaultTolerance.note_dispatch`: the
        fault clock, a dead home, the input log).  A loaded run passes
        the packet's offered time: a kill or recovery it triggers lands
        then, and a buffered packet's stall is charged from then.
        """
        if self.ft is not None:
            return self.ft.note_dispatch(packet, key, arrival_ns)
        rid = self._home(packet, key)
        if rid is not None:
            self._flow_homes[key] = rid
        return rid

    def _home(self, packet: Packet, key: FiveTuple) -> Optional[int]:
        """The replica ``key`` is homed on, or ``None`` when a migration
        freeze buffered the packet."""
        buffer = self._frozen.get(key)
        if buffer is not None:
            buffer.append(packet)
            self.packets_buffered += 1
            self._m_buffered.inc()
            self.audit.emit("migration_buffer", flow=str(key), buffered=len(buffer))
            return None
        home = self._flow_homes.get(key)
        return home if home is not None else self.sharder.replica_for(key)

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
        if egress_key not in self._flow_homes:
            self._flow_homes[egress_key] = rid
            self._ingress_of[egress_key] = ingress_key
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
        own platform, on the route that platform would take alone.  A columnar
        :class:`~repro.traffic.columnar.PacketBatch` streams through
        ``packet_view()``, as it does on a platform the lane cannot take.
        """
        checked_gap(inter_arrival_ns)
        if _is_packet_batch(packets):
            packets = packets.packet_view()
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
            offers[rid], runs[rid] = replica.platform._begin_pass(self.forensics is not None)
        gaps: Dict[int, List[float]] = {rid: [] for rid in participants}
        last_arrival: Dict[int, float] = {}
        # each packet's replica (its home, when buffered) and whether it was
        # buffered: where the window cut finds its row
        homes: List[int] = []
        held: List[bool] = []
        for index, packet in enumerate(packets):
            arrival = index * inter_arrival_ns
            key = packet.five_tuple().canonical()
            rid = self._route(packet, key, arrival)
            held.append(rid is None)
            if rid is None:
                homes.append(self.home_of(key))
                continue
            homes.append(rid)
            offers[rid](packet)
            self._note_egress(packet, key, rid)
            gaps[rid].append(arrival - last_arrival.get(rid, 0.0))
            last_arrival[rid] = arrival

        # The router ends here.  The replicas' pipelines are independent,
        # so each replays exactly as it would alone (Platform._replay
        # picks its route) and finishes where a platform does.
        per_replica: Dict[int, LoadResult] = {
            rid: replica.platform._replay(runs[rid], gaps[rid], inter_arrival_ns)
            for rid, replica in participants.items()
        }
        if self.timeseries is not None:
            self._window(participants, runs, homes, held, inter_arrival_ns)
        total = LoadResult.merged(list(per_replica.values()))
        return ClusterLoadResult(total=total, per_replica=per_replica)

    def _window(
        self,
        participants: Dict[int, ChainReplica],
        runs: Dict[int, FunctionalRun],
        homes: List[int],
        held: List[bool],
        inter_arrival_ns: float,
    ) -> None:
        """Hand the time series one run: every offered packet in global
        arrival order, a replayed one with its replica run's columns (and
        forensic labels, while an engine listens), a buffered one at its
        offered time with its home replica."""
        n = len(homes)
        replica = np.asarray(homes, dtype=np.int64)
        buffered = np.asarray(held, dtype=bool)
        arrival = np.arange(n) * inter_arrival_ns
        latency = np.full(n, np.nan)
        fast = np.zeros(n, dtype=bool)
        dropped = np.zeros(n, dtype=bool)
        labels = ()
        if self.forensics is not None:
            # service, transfer, stages, fid, lane (a buffered row's go unread)
            labels = (np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64),
                      np.zeros(n, dtype=np.int64), np.full(n, None, dtype=object))
        for rid, member in participants.items():
            rows = np.flatnonzero((replica == rid) & ~buffered)
            if len(rows):
                *columns, run_labels = runs[rid].columns(member.platform.config.ring_capacity)
                for merged, column in zip((arrival, latency, fast, dropped, *labels),
                                          (*columns, *(run_labels or ()))):
                    merged[rows] = column
        self.timeseries.ingest_result(arrival, latency, replica, fast, dropped, buffered,
                                      labels=labels or None, forensics=self.forensics)

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
        for direction in flow_walk(src_nfs, key):
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
        self, flow: FiveTuple, dst_replica_id: int
    ) -> Tuple[Optional[MigrationReport], List[PacketOutcome]]:
        """Transfer the frozen flow's state, pin every wire direction to
        its new home, then replay its buffer.

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

    def migrate_flow(self, flow: FiveTuple, dst_replica_id: int) -> Optional[MigrationReport]:
        """Freeze + transfer + resume in one call (no traffic in between)."""
        self.begin_migration(flow)
        report, __ = self.complete_migration(flow, dst_replica_id)
        return report

    def churn_flows(self, count: int, seed: int = 0) -> List[MigrationReport]:
        """Forcibly re-home ``count`` live flows (migration-churn ablation).

        Deterministic: flows are chosen by seeded sample over the sorted
        live-flow set, each moved to the next replica id round-robin.  An
        egress alias moves its whole connection (Maglev cannot map it back).
        A flow homed on a killed replica not yet recovered stays put:
        recovery re-homes it.
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
            ingress = self._ingress_of.get(key)
            if ingress in self._flow_homes:
                key = ingress
            home = self._flow_homes[key]
            if home not in self.replicas:
                continue  # homed on a dead replica: its recovery re-homes it
            dst = rids[(rids.index(home) + 1) % len(rids)]
            report = self.migrate_flow(key, dst)
            if report is not None:
                reports.append(report)
        return reports

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
        self._ingress_of.clear()
        self.packets_buffered = 0

    def __repr__(self) -> str:
        return (
            f"<ScaleCluster {self.platform_name} x{len(self.replicas)} "
            f"({'speedybox' if self.speedybox else 'original'}), "
            f"{len(self._flow_homes)} live flows>"
        )
