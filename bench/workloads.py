"""The five workloads: what each synthesizes, builds, offers and traces.

One *repeat* of a workload is ``synthesize`` -> ``build`` -> ``offer``
(-> ``export`` when telemetry is on); :mod:`bench.run` times it, and
:meth:`Workload.instrument` tells the tracer which public callables of
which layer the repeat goes through.  Everything a workload needs from
the program is imported here, so a ``--setup-only`` child pays exactly
the imports and the construction a user of that configuration pays.

The seed reaches the program only through the generated packets: it
seeds the datacenter trace, shifts the synthetic flows' addresses and
ports, and trims up to 3 % off the batch sizes so that simulated
statistics are a function of the seed on every workload.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import repro.core.batchlane as batchlane
import repro.platform.base as platform_base
import repro.scale.cluster as scale_cluster
import repro.sim.analytic as sim_analytic
import repro.sim.engine as sim_engine
from repro.cli import ObsBundle
from repro.core.actions import Modify
from repro.core.framework import SpeedyBox
from repro.ft import (
    FaultInjector,
    FaultTolerance,
    SharedAggregate,
    SharedPortPool,
    TransactionalStore,
    verify_equivalence_failover,
)
from repro.nf import IPFilter, MaglevLoadBalancer, MazuNAT, Monitor, SnortIDS, SyntheticNF
from repro.nf.maglev import Backend
from repro.nf.snort.rules import parse_rules
from repro.obs import (
    AuditLog,
    FlowSpanRecorder,
    ForensicsEngine,
    HealthModel,
    MetricsRegistry,
    PacketTracer,
    SLOEngine,
    TimeSeries,
    write_prometheus,
)
from repro.platform import BessPlatform
from repro.scale import ScaleCluster
from repro.scale.cluster import PLATFORM_CLASSES
from repro.traffic import (
    DatacenterTraceConfig,
    DatacenterTraceGenerator,
    FlowSpec,
    TrafficGenerator,
)
from repro.traffic.columnar import PacketBatch, uniform_batch

#: Snort rules of the paper's Chain 2, as benchmarks/test_fig9_real_world_chains.py
RULES_TEXT = """
alert tcp any any -> any any (msg:"c2 beacon"; content:"malware-beacon"; sid:9001;)
log tcp any any -> any any (msg:"http get"; content:"GET /"; sid:9002;)
"""

#: every NF name any workload's chain uses; one ``nf.ns_per_call.<name>``
#: metric each
NF_NAMES = ("fw", "nat", "mon", "mazunat", "maglev", "monitor", "ipfilter", "snort")


def scaled(value: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(value * scale))


@dataclass
class System:
    """What one repeat runs against, built fresh every repeat."""

    #: the object whose ``run_load`` the repeat calls (platform or cluster)
    target: object
    #: every SpeedyBox runtime in it (one per replica on a cluster)
    runtimes: List[SpeedyBox]
    platforms: list = field(default_factory=list)
    #: telemetry bundle, when the workload has telemetry on
    obs: Optional[ObsBundle] = None
    ft: Optional[FaultTolerance] = None
    #: what run_load returned, where the repeat keeps only a part of it
    raw_result: object = None


class Workload:
    """Base: a named chain + traffic + platform configuration."""

    name = ""
    platform_name = "bess"
    #: keyword arguments of the workload's SpeedyBox runtime
    runtime_kwargs: dict = {}
    #: tracer name of the call the repeat offers its load through
    load_call = "platform:run_load"
    #: the replay a loaded run of this configuration must take:
    #: "vector", "analytic" or "des" (observing switches the engine)
    expected_route = "analytic"
    #: paper's p50 flow-time reduction for this cell, when it has one
    paper_reduction_pct: Optional[float] = None
    #: when set, the traced pass also runs a cell this many times the
    #: size and reports the ns/packet ratio (core.scaling_ratio)
    scaling_factor: Optional[int] = None

    def __init__(self, seed: int, scale: float = 1.0, artifact_dir: Optional[Path] = None):
        self.seed = seed
        self.scale = scale
        #: where a telemetry workload writes (and removes) its artifacts
        self.artifact_dir = artifact_dir
        self.rng = random.Random(seed)
        self.size()

    def size(self) -> None:
        """Draw the seed- and scale-dependent sizes and addresses."""

    # -- the repeat ------------------------------------------------------------

    def synthesize(self):
        """The offered load (a ``PacketBatch`` or a packet list)."""
        raise NotImplementedError

    def chain(self) -> list:
        """Fresh NF instances (NFs hold state, so one set per runtime)."""
        raise NotImplementedError

    def build(self) -> System:
        runtime = SpeedyBox(self.chain(), **self.runtime_kwargs)
        platform = PLATFORM_CLASSES[self.platform_name](runtime)
        return System(target=platform, runtimes=[runtime], platforms=[platform])

    def offer(self, system: System, load):
        """Run the load; returns the run's ``LoadResult``."""
        return system.target.run_load(load)

    def export(self, system: System, span: Callable) -> int:
        """Write telemetry artifacts; returns bytes written (0: none)."""
        return 0

    def uninstrumented(self) -> Optional[System]:
        """The same configuration without telemetry, when the workload
        has telemetry on (else ``None``)."""
        return None

    # -- the traced pass -------------------------------------------------------

    def instrument(self, tracer, system: System) -> None:
        """Wrap the layers' public callables this workload goes through:
        module and class attributes where the caller looks the name up,
        instance attributes on what ``build`` has just made."""
        tracer.patch(platform_base, "analytic_replay", "sim:analytic_replay")
        tracer.patch(sim_analytic, "analytic_replay_vector", "sim:analytic_replay_vector")
        tracer.patch(sim_engine.Engine, "run", "sim:Engine.run")
        tracer.patch(batchlane.BatchLane, "run", "core:BatchLane.run")
        for runtime in system.runtimes:
            tracer.patch(runtime, "process", "core:SpeedyBox.process")
            for nf in runtime.nfs:
                tracer.patch(nf, "process", f"nf:{nf.name}")
        tracer.patch(system.target, "run_load", self.load_call)

    # -- the check pass --------------------------------------------------------

    def check_packets(self, limit: int) -> list:
        """The workload's first whole flows totalling <= ``limit`` packets,
        freshly synthesized (a run mutates the packets it is offered)."""
        raise NotImplementedError

    def extra_checks(self, report: Callable[[str, int, int], None]) -> None:
        """Workload-specific oracles; report ``(what, attempted, failed)``."""


# -- batch workloads -----------------------------------------------------------


class BatchWorkload(Workload):
    """BESS, synthetic 3-NF header-rewrite chain, columnar UDP flows
    through an 8192-entry classifier / Global MAT, saturation."""

    runtime_kwargs = {"max_tracked_flows": 8192, "max_flows": 8192}
    expected_route = "vector"
    flows = 0
    packets_per_flow = 0
    block: Optional[int] = None
    #: uniform_batch's own defaults
    src_ip_base = "10.0.0.0"
    src_port_base = 1024

    def synthesize(self, flows: Optional[int] = None) -> PacketBatch:
        return uniform_batch(
            flows or self.flows,
            self.packets_per_flow,
            interleave="round_robin",
            block=self.block,
            src_ip_base=self.src_ip_base,
            src_port_base=self.src_port_base,
        )

    def chain(self) -> list:
        # as benchmarks/test_wallclock.py::build_batch_chain: header
        # rewrites only, no state functions, so every flow compiles
        return [
            SyntheticNF("fw", action=Modify.ttl_dec(), sf_payload_class=None),
            SyntheticNF("nat", action=Modify.set(dst_port=8080), sf_payload_class=None),
            SyntheticNF("mon", sf_payload_class=None),
        ]

    def check_packets(self, limit: int) -> list:
        # Flow f's packets depend on f alone, so the first k flows of a
        # smaller batch are the first k flows of the workload's.
        flows = min(self.flows, max(1, limit // self.packets_per_flow))
        return list(self.synthesize(flows).packet_view())


class SteadyBatch(BatchWorkload):
    name = "steady_batch"

    def size(self) -> None:
        # Addresses stay fixed here: they decide which flows collide in
        # the 20-bit FID space, a collided flow's ~1000 packets all take
        # the scalar path at ~250x the cost, and with seeded addresses
        # that alone spread host time by 17 % between seeds.
        self.flows = 4096
        self.packets_per_flow = scaled(1000 - self.rng.randrange(32), self.scale, floor=4)


class ChurnBatch(BatchWorkload):
    name = "churn_batch"
    packets_per_flow = 10
    block = 4096
    scaling_factor = 3

    def size(self) -> None:
        rng = self.rng
        self.src_ip_base = f"10.{rng.randrange(200)}.{rng.randrange(256)}.0"
        self.src_port_base = 1024 + rng.randrange(4000)
        self.flows = scaled(100_000 - rng.randrange(3000), self.scale, floor=64)


# -- datacenter-trace workloads ------------------------------------------------


class TraceWorkload(Workload):
    """A paper chain over the synthetic Benson et al. datacenter trace.

    The trace keeps its ON/OFF arrival *order* (``timestamped_packets``)
    but is offered back to back: replayed at its timestamps, simulated
    p99 differs by 50-100 % between seeds, far beyond any bound.
    """

    trace_flows = 0
    #: when set, the offered load is the trace's first whole flows
    #: totalling at most this many packets (at scale 1)
    packet_budget: Optional[int] = None
    #: flows in the check pass's trace: the p50 *flow* time of a couple
    #: of hundred heavy-tailed flows moves by 8 % between seeds
    CHECK_FLOWS = 600

    def size(self) -> None:
        self.flows = scaled(self.trace_flows, self.scale, floor=8)
        self.rules = parse_rules(RULES_TEXT)

    def trace(self, flows: int) -> list:
        # The generator draws flow after flow from one seeded stream, so
        # a longer trace starts with the same flows as a shorter one.
        config = DatacenterTraceConfig(
            flows=flows,
            seed=self.seed,
            lognormal_mu=2.3,
            lognormal_sigma=0.8,
            large_packet_fraction=0.25,
            max_packets_per_flow=120,
        )
        return DatacenterTraceGenerator(config, self.rules).timestamped_packets()

    def synthesize(self) -> list:
        packets = self.trace(self.flows)
        if self.packet_budget is None:
            return packets
        return first_whole_flows(packets, scaled(self.packet_budget, self.scale))

    def check_packets(self, limit: int) -> list:
        flows = max(self.flows, scaled(self.CHECK_FLOWS, self.scale, floor=8))
        return first_whole_flows(self.trace(flows), limit)


class DcChain(TraceWorkload):
    """ONVM, paper Chain 1 (the Fig. 9 cell with the -40.2 % anchor)."""

    name = "dc_chain"
    platform_name = "onvm"
    trace_flows = 600
    paper_reduction_pct = 40.2

    def chain(self) -> list:
        backends = [Backend.make(f"b{i}", f"192.168.50.{i + 1}", 9000) for i in range(4)]
        return [
            MazuNAT("mazunat", external_ip="203.0.113.50", internal_prefix="10.0.0.0/8"),
            MaglevLoadBalancer("maglev", backends=backends, table_size=131),
            Monitor("monitor"),
            IPFilter("ipfilter"),
        ]


class DcObs(TraceWorkload):
    """BESS, paper Chain 2, every telemetry surface on and exported."""

    name = "dc_obs"
    platform_name = "bess"
    trace_flows = 230
    # 3 400 packets do not fill the 4096-slot ring, so simulated latency
    # is still climbing with the packet count: hold the count still
    packet_budget = 3400
    expected_route = "des"
    paper_reduction_pct = 41.3
    SLO_SPECS = ("p99<250us", "loss<0.1%")

    def chain(self) -> list:
        return [IPFilter("ipfilter"), SnortIDS("snort", RULES_TEXT), Monitor("monitor")]

    def build(self) -> System:
        metrics, tracer, audit = MetricsRegistry(), PacketTracer(), AuditLog()
        spans = FlowSpanRecorder(every=1, max_spans_per_flow=None)
        timeseries = TimeSeries(window_packets=4096, registry=metrics)
        health = HealthModel(timeseries=timeseries, audit=audit)
        slo = SLOEngine.from_specs(list(self.SLO_SPECS), timeseries=timeseries, audit=audit)
        forensics = ForensicsEngine(worst_k=8, audit=audit)
        forensics.detector.attach(timeseries)
        # wired as repro.cli.make_observability does with every --*-out flag set
        obs = ObsBundle(metrics, tracer, audit, spans, timeseries, health, slo, forensics)
        runtime = SpeedyBox(self.chain(), metrics=metrics, audit=audit)
        platform = BessPlatform(
            runtime,
            metrics=metrics,
            tracer=tracer,
            spans=spans,
            timeseries=timeseries,
            forensics=forensics,
        )
        return System(target=platform, runtimes=[runtime], platforms=[platform], obs=obs)

    def uninstrumented(self) -> System:
        return Workload.build(self)

    def export(self, system: System, span: Callable) -> int:
        """The six artifacts ``repro.cli.emit_observability`` writes."""
        obs = system.obs
        out = self.artifact_dir
        out.mkdir(parents=True, exist_ok=True)
        try:
            with span("obs:export.prom"):
                write_prometheus(obs.metrics, out / "metrics.prom")
            with span("obs:export.audit"):
                obs.audit.write_jsonl(out / "audit.jsonl")
            with span("obs:export.spans"):
                obs.spans.write_jsonl(out / "spans.jsonl")
            with span("obs:export.trace"):
                obs.spans.replay_into(obs.tracer)
                obs.tracer.write_chrome(out / "trace.json")
            with span("obs:export.timeseries"):
                obs.timeseries.finish()
                obs.timeseries.write_jsonl(out / "timeseries.jsonl")
            with span("obs:export.forensics"):
                obs.forensics.write_jsonl(out / "forensics.jsonl")
            return sum(path.stat().st_size for path in out.iterdir())
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def instrument(self, tracer, system: System) -> None:
        super().instrument(tracer, system)
        obs = system.obs
        tracer.patch(obs.spans, "record", "obs:FlowSpanRecorder.record")
        tracer.patch(obs.spans, "annotate_loaded", "obs:FlowSpanRecorder.annotate_loaded")
        tracer.patch(obs.forensics, "observe_run", "obs:ForensicsEngine.observe_run")
        tracer.patch(obs.timeseries, "ingest_result", "obs:TimeSeries.ingest_result")


# -- scale-out + fault tolerance -----------------------------------------------


class ClusterFt(Workload):
    """ONVM x 4 replicas over shared transactional state, one replica
    killed mid-run and recovered under 32-packet checkpointing."""

    name = "cluster_ft"
    platform_name = "onvm"
    load_call = "scale:ScaleCluster.run_load"
    REPLICAS = 4
    DATA_PACKETS = 14
    CHECKPOINT_INTERVAL = 32
    PORTS = (20000, 60000)
    EXTERNAL_IP = "203.0.113.80"

    def size(self) -> None:
        self.flows = scaled(128, self.scale, floor=16)
        self.host_base = self.rng.randrange(60_000)
        self.port_base = 6000 + self.rng.randrange(20_000)

    def synthesize(self, flows: Optional[int] = None) -> list:
        # Round robin, so every flow is established before the kill: a
        # flow born during the outage may legitimately draw another NAT
        # port than the never-failed reference (repro.ft.verify).
        specs = []
        for index in range(flows or self.flows):
            host = self.host_base + index
            specs.append(
                FlowSpec.tcp(
                    f"10.3.{host // 250 % 250}.{host % 250 + 1}",
                    f"99.2.0.{index % 200 + 1}",
                    self.port_base + index,
                    80,
                    packets=self.DATA_PACKETS,
                    handshake=True,
                    fin=True,
                )
            )
        return TrafficGenerator(specs, interleave="round_robin", seed=self.seed).packets()

    def chain(self) -> list:
        return [
            MazuNAT("mazunat", external_ip=self.EXTERNAL_IP, port_range=self.PORTS),
            Monitor("monitor"),
            IPFilter("ipfilter"),
        ]

    def shared_chain_factory(self) -> Callable[[], list]:
        """Replica chains over one transactional store, as
        benchmarks/test_ft_recovery.py: NAT ports from a shared pool,
        monitor totals in a shared aggregate."""
        store = TransactionalStore()
        pool = SharedPortPool(store, port_range=self.PORTS)
        aggregate = SharedAggregate(store, name="mon_total")

        def chain():
            return [
                MazuNAT(
                    "mazunat",
                    external_ip=self.EXTERNAL_IP,
                    port_range=self.PORTS,
                    port_pool=pool,
                ),
                Monitor("monitor", aggregate=aggregate),
                IPFilter("ipfilter"),
            ]

        return chain

    def build(self) -> System:
        cluster = ScaleCluster(
            self.shared_chain_factory(), platform=self.platform_name, replicas=self.REPLICAS
        )
        packets = self.flows * (self.DATA_PACKETS + 2)
        # charge_recovery=False keeps simulated latency free of host wall
        # time (ROADMAP item 3).
        ft = FaultTolerance(
            cluster,
            # its own journal, read back for ft.checkpoint_flows
            audit=AuditLog(),
            checkpoint_interval=self.CHECKPOINT_INTERVAL,
            injector=FaultInjector(kill_at=packets // 2, recover_after=packets // 8),
            charge_recovery=False,
        )
        # The kill removes its victim from cluster.replicas, so hold the
        # runtimes and platforms here for the counters read after the run.
        replicas = list(cluster.replicas.values())
        return System(
            target=cluster,
            runtimes=[replica.runtime for replica in replicas],
            platforms=[replica.platform for replica in replicas],
            ft=ft,
        )

    def offer(self, system: System, load):
        system.raw_result = system.target.run_load(load)
        return system.raw_result.total

    def instrument(self, tracer, system: System) -> None:
        super().instrument(tracer, system)
        tracer.patch(scale_cluster, "analytic_replay", "sim:analytic_replay")
        for platform in system.platforms:
            tracer.patch(platform, "process", "platform:process")
        for method in ("tick", "note_dispatch", "checkpoint_replica", "recover"):
            tracer.patch(system.ft, method, f"ft:FaultTolerance.{method}")

    def check_packets(self, limit: int) -> list:
        per_flow = self.DATA_PACKETS + 2
        return self.synthesize(min(self.flows, max(1, limit // per_flow)))

    def extra_checks(self, report: Callable[[str, int, int], None]) -> None:
        # Migration churn and crash recovery stay in the oracle: 16 flows
        # re-homed before the kill, on a 64-flow cut.
        packets = self.synthesize(min(self.flows, 64))
        result = verify_equivalence_failover(
            self.chain,
            packets,
            kill_at=len(packets) // 2,
            cluster_chain_factory=self.shared_chain_factory(),
            replicas=self.REPLICAS,
            checkpoint_interval=self.CHECKPOINT_INTERVAL,
            recover_after=len(packets) // 8,
            churn=16,
            platform=self.platform_name,
            charge_recovery=False,
        )
        report("failover_equivalence", len(packets), len(result.divergences))


def first_whole_flows(packets: Sequence, limit: int) -> list:
    """Packets of the first flows (by first appearance) whose packet
    counts total at most ``limit``, in their original order."""
    keys = [packet.five_tuple() for packet in packets]
    sizes: Dict[object, int] = {}
    for key in keys:
        sizes[key] = sizes.get(key, 0) + 1
    kept, total = set(), 0
    for key, size in sizes.items():
        if total + size > limit:
            break
        kept.add(key)
        total += size
    return [packet for packet, key in zip(packets, keys) if key in kept]


WORKLOADS = {
    cls.name: cls for cls in (SteadyBatch, ChurnBatch, DcChain, DcObs, ClusterFt)
}
