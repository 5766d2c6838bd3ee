"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``demo``
    Run traffic through a chain with and without SpeedyBox and print a
    latency/throughput summary.

``sweep``
    Chain-length sweep (a live Figure 8) on a chosen platform.

``equivalence``
    Drive baseline and SpeedyBox in lockstep over a synthetic trace and
    report any output mismatch (exit code 1 if any).

``trace``
    Generate a synthetic datacenter trace to a ``.sbtr`` file, or print a
    summary of an existing one.

``demo`` / ``sweep`` / ``scale`` / ``ft demo`` / ``batch`` take ``--obs-out
DIR`` (and ``--obs {run,full}``) and leave one run record there: fixed
file names plus a ``manifest.json`` (:mod:`repro.obs.record`).

``obs report|watch|explain DIR``
    Render a run record: the one-page dashboard — top flows by latency,
    SLO attainment, cycle attribution, audit summary, telemetry windows,
    forensics, metrics (``report``); the per-window telemetry table with
    the health transitions and SLO burn alerts (``watch``); or the
    worst-K packets with their queue/service/transfer/stall
    decomposition, the stall charges, the regime shifts and the causal
    timeline joined from the record's other surfaces (``explain``).

``obs diff``
    Compare two sets of ``BENCH_*.json`` results (files or directories)
    by the kind and direction each key declares in its artifact; exit 1
    on regressions, 2 on an artifact without declarations — the CI
    bench gate.

``ft demo`` / ``ft report DIR``
    Kill a replica mid-stream under checkpointed fault tolerance and
    prove the recovery was loss-free (``demo``); render the recovery
    post-mortem (failure timeline, per-failover table, checkpoint
    cadence) from a run record (``report``).

Chain specs are comma-separated NF names, e.g. ``--chain
nat,maglev,monitor,firewall``.  Each name may repeat; instances are
numbered.  Run ``python -m repro demo --list-nfs`` to see the catalogue.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.framework import ServiceChain, SpeedyBox
from repro.core.verification import verify_equivalence
from repro.nf import (
    DosPrevention,
    IPFilter,
    MaglevLoadBalancer,
    MazuNAT,
    Monitor,
    SnortIDS,
    SyntheticNF,
    TokenBucketPolicer,
    VniMap,
    VpnDecap,
    VpnEncap,
    VxlanGateway,
    VxlanTerminator,
)
from repro.nf.base import NetworkFunction
from repro.obs import (
    AuditLog,
    FlowSpanRecorder,
    ForensicsEngine,
    HealthModel,
    MetricsRegistry,
    NULL_AUDIT,
    NULL_REGISTRY,
    NULL_TRACER,
    PacketTracer,
    SLOEngine,
    TimeSeries,
)
from repro.obs.record import LEVELS, describe, load_record, write_record
from repro.platform import BessPlatform, OpenNetVMPlatform
from repro.platform.base import checked_gap
from repro.platform.costs import CostModel
from repro.stats import Distribution, format_table
from repro.traffic import DatacenterTraceConfig, DatacenterTraceGenerator, TrafficGenerator
from repro.traffic.generator import clone_packets

DEFAULT_RULES = """
alert tcp any any -> any any (msg:"demo exploit"; content:"exploit"; sid:1;)
log tcp any any -> any any (msg:"demo http"; content:"GET /"; sid:2;)
"""

NF_CATALOGUE: Dict[str, Callable[[int], NetworkFunction]] = {
    "nat": lambda i: MazuNAT(f"nat{i}"),
    "maglev": lambda i: MaglevLoadBalancer(f"maglev{i}", table_size=131),
    "monitor": lambda i: Monitor(f"monitor{i}"),
    "firewall": lambda i: IPFilter(f"firewall{i}"),
    "snort": lambda i: SnortIDS(f"snort{i}", DEFAULT_RULES),
    "dos": lambda i: DosPrevention(f"dos{i}", threshold=1000, mode="packets"),
    "vpn-encap": lambda i: VpnEncap(f"vpnenc{i}"),
    "vpn-decap": lambda i: VpnDecap(f"vpndec{i}"),
    "gateway": lambda i: VxlanGateway(f"gateway{i}", VniMap([("0.0.0.0/0", 100 + i)])),
    "terminator": lambda i: VxlanTerminator(f"terminator{i}"),
    "synthetic": lambda i: SyntheticNF(f"synthetic{i}"),
    "policer": lambda i: TokenBucketPolicer(f"policer{i}", rate_pps=1e6, burst=64),
}


def build_chain(spec: str) -> List[NetworkFunction]:
    nfs: List[NetworkFunction] = []
    for index, name in enumerate(part.strip() for part in spec.split(",")):
        if not name:
            continue
        factory = NF_CATALOGUE.get(name)
        if factory is None:
            raise SystemExit(
                f"unknown NF {name!r}; available: {', '.join(sorted(NF_CATALOGUE))}"
            )
        nfs.append(factory(index))
    if not nfs:
        raise SystemExit("empty chain spec")
    return nfs


PLATFORMS = {"bess": BessPlatform, "onvm": OpenNetVMPlatform}


@dataclass
class ObsBundle:
    """The observability surfaces one command run shares."""

    metrics: MetricsRegistry = NULL_REGISTRY
    tracer: PacketTracer = NULL_TRACER
    audit: AuditLog = NULL_AUDIT
    spans: Optional[FlowSpanRecorder] = None
    timeseries: Optional[TimeSeries] = None
    health: Optional[HealthModel] = None
    slo: Optional[SLOEngine] = None
    forensics: Optional[ForensicsEngine] = None

    def speedybox_kwargs(self) -> dict:
        """Keyword arguments for a SpeedyBox runtime built from this bundle."""
        return {"metrics": self.metrics, "audit": self.audit}

    def platform_kwargs(self) -> dict:
        """... and for the platform it runs on."""
        return {"metrics": self.metrics, "tracer": self.tracer, "spans": self.spans,
                "timeseries": self.timeseries, "forensics": self.forensics}


def make_observability(args) -> ObsBundle:
    """The observability bundle ``--obs-out`` / ``--obs`` / ``--slo`` ask for.

    ``--obs-out`` at level ``run`` turns on the surfaces that consume the
    finished run or sampled flows — the audit journal, the 1-in-N flow
    span sampler (``--span-every``), the telemetry windows
    (``--window-ns`` / ``--window-packets``) with their health model,
    and tail-latency forensics (``--worst-k``, its regime-shift detector
    also fed by the telemetry windows) — so the run's route and every
    simulated number stay put.  Level ``full`` adds the metrics registry
    and the packet tracer, which put the run on the per-packet pass and
    the discrete-event engine.  ``--slo`` alone turns on the telemetry
    windows and the SLO engine.
    """
    recording = args.obs_out is not None
    if args.obs != "run" and not recording:
        raise SystemExit(f"--obs {args.obs} needs --obs-out DIR")
    full = args.obs == "full"
    metrics = MetricsRegistry() if full else NULL_REGISTRY
    tracer = PacketTracer() if full else NULL_TRACER
    audit = AuditLog() if recording else NULL_AUDIT
    spans = FlowSpanRecorder(every=max(1, args.span_every)) if recording else None
    timeseries = health = slo = forensics = None
    if recording or args.slo:
        if args.window_packets:
            timeseries = TimeSeries(window_packets=args.window_packets, registry=metrics)
        else:
            timeseries = TimeSeries(window_ns=args.window_ns or 1_000_000.0, registry=metrics)
        health = HealthModel(timeseries=timeseries, audit=audit)
        if args.slo:
            slo = SLOEngine.from_specs(args.slo, timeseries=timeseries, audit=audit)
    if recording:
        forensics = ForensicsEngine(worst_k=max(1, args.worst_k), audit=audit)
        forensics.detector.attach(timeseries)
    return ObsBundle(metrics, tracer, audit, spans, timeseries, health, slo, forensics)


def emit_observability(args, obs: ObsBundle, chain: str, platform: str) -> None:
    """Write the run record ``--obs-out`` asked for; print ``--slo``'s verdicts.

    The record's one status line goes to stderr: stdout is the same with
    and without ``--obs-out``.
    """
    if args.obs_out is not None:
        manifest = write_record(
            args.obs_out,
            obs,
            level=args.obs,
            argv=args.argv,
            run={"command": args.command, "chain": chain, "platform": platform,
                 "seed": args.seed},
            cost_model=CostModel(),  # no command overrides a cost
            profiler=args.profiler,
        )
        print(f"wrote run record to {args.obs_out} (level {args.obs}: "
              f"{describe(manifest)})", file=sys.stderr)
    if obs.slo is not None:
        if obs.health.snapshot():
            print(f"cluster health: {obs.health.worst_state()}")
        print(obs.slo.render())


def make_trace_packets(flows: int, seed: int, mean_packets: float = 8.0):
    import math

    config = DatacenterTraceConfig(
        flows=flows,
        seed=seed,
        lognormal_mu=max(0.1, math.log(mean_packets)),
    )
    from repro.nf.snort.rules import parse_rules

    specs = DatacenterTraceGenerator(config, parse_rules(DEFAULT_RULES)).generate_flows()
    return TrafficGenerator(specs, interleave="round_robin").packets()


# -- commands -------------------------------------------------------------------


def cmd_demo(args: argparse.Namespace) -> int:
    if args.list_nfs:
        for name in sorted(NF_CATALOGUE):
            print(name)
        return 0

    packets = make_trace_packets(args.flows, args.seed)
    print(f"chain: {args.chain}   platform: {args.platform}   packets: {len(packets)}")

    obs = make_observability(args)
    rows = []
    variants = [("original", ServiceChain)]
    if not args.no_speedybox:
        variants.append(("speedybox", SpeedyBox))
    results = {}
    for label, runtime_cls in variants:
        if runtime_cls is SpeedyBox:
            runtime = SpeedyBox(build_chain(args.chain), **obs.speedybox_kwargs())
        else:
            runtime = ServiceChain(build_chain(args.chain), metrics=obs.metrics)
        platform = PLATFORMS[args.platform](runtime, **obs.platform_kwargs())
        latency = Distribution()
        dropped = 0
        for packet in clone_packets(packets):
            outcome = platform.process(packet)
            latency.add(outcome.latency_us)
            dropped += outcome.dropped
        platform.reset()
        load = platform.run_load(clone_packets(packets))
        results[label] = latency
        rows.append(
            [
                label,
                f"{latency.p50:.3f}",
                f"{latency.p99:.3f}",
                f"{load.throughput_mpps:.2f}",
                dropped,
            ]
        )
    print(format_table(["variant", "p50 us", "p99 us", "Mpps", "dropped"], rows))
    if "speedybox" in results:
        reduction = 100 * (1 - results["speedybox"].p50 / results["original"].p50)
        print(f"\np50 latency reduction: {reduction:.1f}%")
    emit_observability(args, obs, chain=args.chain, platform=args.platform)
    if args.dump_rules and not args.no_speedybox:
        # Re-run once to leave the runtime populated, then dump its MAT.
        # FIN packets are withheld so the rules survive for inspection.
        from repro.core.inspector import dump_global_mat
        from repro.net.headers import TCP_FIN, TCPHeader

        runtime = SpeedyBox(build_chain(args.chain))
        for packet in clone_packets(packets):
            if isinstance(packet.l4, TCPHeader) and packet.l4.has_flag(TCP_FIN):
                continue
            runtime.process(packet)
        print("\n" + dump_global_mat(runtime, limit=args.dump_rules))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    packets = make_trace_packets(args.flows, args.seed)
    max_len = args.max_length
    if args.platform == "onvm":
        max_len = min(max_len, OpenNetVMPlatform.MAX_CHAIN_LENGTH)
    obs = make_observability(args)
    rows = []
    for n in range(1, max_len + 1):
        row = [n]
        for runtime_cls in (ServiceChain, SpeedyBox):
            chain = [IPFilter(f"fw{i}") for i in range(n)]
            if runtime_cls is SpeedyBox:
                runtime = SpeedyBox(chain, **obs.speedybox_kwargs())
            else:
                runtime = ServiceChain(chain, metrics=obs.metrics)
            platform = PLATFORMS[args.platform](runtime, **obs.platform_kwargs())
            outcomes = platform.process_all(clone_packets(packets))
            if obs.forensics is not None:
                obs.forensics.observe_outcomes(
                    platform, outcomes, replica=f"{runtime_cls.__name__}:n={n}"
                )
            latency = Distribution([o.latency_us for o in outcomes])
            row.append(f"{latency.p50:.3f}")
        rows.append(row)
    print(format_table(
        ["chain length", "original p50 us", "speedybox p50 us"],
        rows,
        title=f"latency vs chain length on {args.platform}",
    ))
    emit_observability(
        args, obs, chain=f"firewall x 1..{max_len}", platform=args.platform
    )
    return 0


def cmd_equivalence(args: argparse.Namespace) -> int:
    packets = make_trace_packets(args.flows, args.seed)
    report = verify_equivalence(lambda: build_chain(args.chain), packets)
    for divergence in report.divergences[:5]:
        print(f"MISMATCH at packet {divergence.index}: {divergence.detail}")
    print(f"{report.packets} packets, {len(report.divergences)} mismatches; "
          f"fast path served {report.fast_packets}/{report.packets}")
    return 0 if report.equivalent else 1


def cmd_batch(args: argparse.Namespace) -> int:
    """Columnar batch run down the whole-batch lane, optionally compared
    leg for leg against the per-packet oracle."""
    import time as _time

    from repro.core.actions import Modify
    from repro.traffic.columnar import uniform_batch

    def batch_chain():
        # Steady-compilable header-rewrite chain: no state functions, so
        # flows compile and the lane's bulk admission engages.  The
        # catalogue chains keep per-flow state and would pin every
        # packet to the scalar fallback — correct, but not a batch demo.
        return [
            SyntheticNF("fw", action=Modify.ttl_dec(), sf_payload_class=None),
            SyntheticNF("nat", action=Modify.set(dst_port=8080), sf_payload_class=None),
            SyntheticNF("mon", sf_payload_class=None),
        ]

    batch = uniform_batch(
        args.flows,
        args.packets_per_flow,
        interleave="round_robin",
        block=args.block,
    )
    total = len(batch)
    print(
        f"batch: {total} packets, {args.flows} flows x {args.packets_per_flow} "
        f"packets, {args.block} concurrently live, flow table capacity {args.table}"
    )

    def run_leg(load, obs=ObsBundle()):
        runtime = SpeedyBox(
            batch_chain(), max_tracked_flows=args.table, max_flows=args.table,
            **obs.speedybox_kwargs(),
        )
        platform = PLATFORMS[args.platform](runtime, **obs.platform_kwargs())
        started = _time.perf_counter()
        result = platform.run_load(load)
        return _time.perf_counter() - started, result, runtime

    # Observation rides only the measured leg; what it does after the run
    # (window ingestion, the forensic decomposition) is inside the timed
    # window, so the wallclock column includes it under --obs-out.
    obs = make_observability(args)
    lane_s, lane_result, lane_runtime = run_leg(batch, obs)
    stats = lane_runtime.stats()
    rows = [
        [
            "batch lane",
            f"{lane_s:.2f}",
            f"{lane_s / total * 1e6:.2f}",
            f"{total / lane_s / 1e6:.2f}",
            stats["fast_packets"],
            stats["classifier_evictions"],
        ]
    ]
    if args.compare:
        legacy_s, legacy_result, legacy_runtime = run_leg(batch.packet_view())
        rows.append(
            [
                "per-packet",
                f"{legacy_s:.2f}",
                f"{legacy_s / total * 1e6:.2f}",
                f"{total / legacy_s / 1e6:.2f}",
                legacy_runtime.stats()["fast_packets"],
                legacy_runtime.stats()["classifier_evictions"],
            ]
        )
    print(
        format_table(
            ["leg", "wallclock s", "us/packet", "Mpps", "fast packets", "evictions"],
            rows,
        )
    )
    emit_observability(args, obs, chain="fw,nat,mon (synthetic)", platform=args.platform)
    if args.compare:
        same = (
            lane_result == legacy_result
            and lane_runtime.stats() == legacy_runtime.stats()
        )
        print(
            f"\nspeedup: {legacy_s / lane_s:.1f}x   "
            f"identical results: {'yes' if same else 'NO'}"
        )
        return 0 if same else 1
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    from repro.net.headers import TCP_FIN, TCPHeader
    from repro.scale import ScaleCluster

    packets = make_trace_packets(args.flows, args.seed)
    obs = make_observability(args)
    platforms = [name.strip() for name in args.platforms.split(",") if name.strip()]
    want_ft = args.checkpoint_every is not None or args.kill_at is not None
    rows = []
    for platform_name in platforms:
        baseline_mpps = None
        for count in range(1, args.replicas + 1):
            cluster = ScaleCluster(
                lambda: build_chain(args.chain),
                platform=platform_name,
                replicas=count,
                speedybox=not args.no_speedybox,
                physical_cores=args.physical_cores,
                audit=obs.audit,
                **obs.platform_kwargs(),
            )
            ft = None
            if want_ft:
                from repro.ft import FaultInjector, FaultTolerance

                ft = FaultTolerance(
                    cluster,
                    checkpoint_interval=args.checkpoint_every or 32,
                    # A one-replica row has nothing to fail over onto.
                    injector=FaultInjector(
                        kill_at=args.kill_at if count > 1 else None,
                        recover_after=args.recover_after,
                    ),
                    tracer=obs.tracer,
                    charge_recovery=not args.no_charge_recovery,
                    forensics=obs.forensics,
                )
                if obs.health is not None:
                    # Degraded windows trigger proactive checkpoints
                    # while the struggling replica is still reachable.
                    obs.health.add_listener(ft.on_health)
            migrations = 0
            if args.churn:
                # Establish live flows (FINs withheld so they survive),
                # then forcibly re-home --churn of them before the loaded
                # window: the migration-churn ablation.
                live = [
                    packet
                    for packet in packets
                    if not (isinstance(packet.l4, TCPHeader)
                            and packet.l4.has_flag(TCP_FIN))
                ]
                for packet in clone_packets(live[: len(live) // 2]):
                    cluster.process(packet)
                migrations = len(cluster.churn_flows(args.churn, seed=args.seed))
            result = cluster.run_load(
                clone_packets(packets), inter_arrival_ns=args.gap_ns
            )
            if ft is not None and ft.dead:
                ft.recover_all()
            total = result.total
            if ft is not None and ft.charged:
                # Buffered-during-failover deliveries re-enter the
                # latency population with their stall charged, so the
                # p99 column reflects the outage they sat through.
                total = total.merge(ft.charged_result())
            if baseline_mpps is None:
                baseline_mpps = total.throughput_mpps
            speedup = (
                total.throughput_mpps / baseline_mpps if baseline_mpps else 0.0
            )
            row = [
                platform_name,
                count,
                total.offered,
                total.delivered,
                f"{total.throughput_mpps:.2f}",
                f"{total.latency_percentile(0.99) / 1000.0:.3f}",
                f"{speedup:.2f}x",
                migrations,
            ]
            if want_ft:
                recovered = sum(r.packets_delivered for r in ft.recoveries)
                recovery_ms = sum(r.duration_s for r in ft.recoveries) * 1000.0
                row.extend(
                    [ft.packets_buffered, recovered, f"{recovery_ms:.2f}"]
                )
            rows.append(row)
    headers = ["platform", "replicas", "offered", "delivered", "Mpps", "p99 us",
               "vs 1 replica", "migrations"]
    if want_ft:
        headers.extend(["buffered", "recovered", "rec ms"])
    print(format_table(
        headers,
        rows,
        title=f"replica sweep over chain {args.chain}",
    ))
    emit_observability(args, obs, chain=args.chain, platform=args.platforms)
    return 0


def _open_record(label: str, args, require=()):
    """The record a read-side command was pointed at — or ``None`` after
    one stderr line saying why it cannot be read (the caller exits 2)."""
    try:
        if args.record is None:
            raise ValueError("pass a run record: the directory a run's --obs-out wrote")
        return load_record(args.record, require=require)
    except ValueError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return None


def cmd_obs(args: argparse.Namespace) -> int:
    if args.action == "diff":
        from repro.obs import collect_benches, diff_benches, render_diff
        from repro.obs.benchdiff import regressions

        if not (args.baseline and args.current):
            print("obs diff: pass --baseline PATH and --current PATH "
                  "(BENCH_*.json files or directories)", file=sys.stderr)
            return 2
        try:
            entries = diff_benches(
                collect_benches(args.baseline),
                collect_benches(args.current),
                threshold=args.threshold,
            )
        except (OSError, ValueError) as exc:
            print(f"obs diff: {exc}", file=sys.stderr)
            return 2
        print(render_diff(entries, show_ok=args.show_ok))
        bad = regressions(entries)
        for entry in bad:
            print(f"regressed: {entry.describe()}")
        return 1 if bad else 0

    require = {"watch": ("timeseries",), "explain": ("forensics",)}.get(args.action, ())
    record = _open_record(f"obs {args.action}", args, require)
    if record is None:
        return 2
    if args.action == "watch":
        from repro.obs import render_windows
        from repro.obs.report import HEALTH_KINDS, SLO_KINDS, render_health_slo

        print(render_windows(record.timeseries, title=f"telemetry windows ({record.path})"))
        if any(e.get("kind") in HEALTH_KINDS + SLO_KINDS for e in record.audit or ()):
            print()
            print(render_health_slo(record.audit))
    elif args.action == "explain":
        from repro.obs.forensics import render_explain

        print(render_explain(
            record.forensics, audit=record.audit, spans=record.spans,
            windows=record.timeseries, top=args.top,
        ))
    else:
        from repro.obs.report import render_report

        print(render_report(
            metrics=record.metrics,
            spans=record.spans,
            audit=record.audit,
            windows=record.timeseries,
            forensics=record.forensics,
            slo_us=args.slo_us,
            percentile=args.percentile,
            top=args.top,
        ))
    return 0


def cmd_ft(args: argparse.Namespace) -> int:
    if args.action == "report":
        from repro.ft.report import render_ft_report

        record = _open_record("ft report", args, require=("audit",))
        if record is None:
            return 2
        print(render_ft_report(record.audit, metrics=record.metrics))
        return 0

    # demo: kill a replica mid-stream, recover, prove nothing was lost.
    from repro.ft import FaultInjector, FaultTolerance
    from repro.scale import ScaleCluster

    packets = make_trace_packets(args.flows, args.seed)
    obs = make_observability(args)
    kill_at = args.kill_at if args.kill_at is not None else len(packets) // 2
    cluster = ScaleCluster(
        lambda: build_chain(args.chain),
        platform=args.platform,
        replicas=args.replicas,
        audit=obs.audit,
        **obs.platform_kwargs(),
    )
    ft = FaultTolerance(
        cluster,
        checkpoint_interval=args.checkpoint_every,
        injector=FaultInjector(
            kill_at=kill_at,
            replica=args.kill_replica,
            recover_after=args.recover_after,
        ),
        tracer=obs.tracer,
        charge_recovery=not args.no_charge_recovery,
        forensics=obs.forensics,
    )
    print(f"chain: {args.chain}   replicas: {args.replicas}   "
          f"packets: {len(packets)}   kill at: {kill_at}   "
          f"checkpoint every: {args.checkpoint_every}")
    live = sum(
        1 for packet in clone_packets(packets) if cluster.process(packet) is not None
    )
    if ft.dead:
        ft.recover_all()
    delivered = sum(r.packets_delivered for r in ft.recoveries)
    rows = [
        [
            r.replica,
            r.flows_restored,
            r.flows_rebuilt,
            r.packets_replayed,
            r.packets_delivered,
            f"{r.duration_s * 1000.0:.2f}",
            f"{r.stall_charged_ns / 1e6:.2f}",
        ]
        for r in ft.recoveries
    ]
    print(format_table(
        ["killed", "restored", "rebuilt", "replayed", "delivered", "ms", "stall ms"],
        rows,
        title=f"failover of replica {ft.injector.replica}",
    ))
    lost = len(packets) - live - delivered
    print(f"offered {len(packets)}  in-stream {live}  buffered {ft.packets_buffered}  "
          f"recovered {delivered}  lost {lost}")
    print("LOSS-FREE" if lost == 0 else f"LOST {lost} PACKETS")
    emit_observability(args, obs, chain=args.chain, platform=args.platform)
    return 0 if lost == 0 else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.net.trace import load_trace, write_trace

    if args.generate:
        packets = make_trace_packets(args.flows, args.seed)
        for index, packet in enumerate(packets):
            packet.timestamp_ns = index * float(args.gap_ns)
        count = write_trace(args.generate, packets)
        print(f"wrote {count} packets to {args.generate}")
        return 0
    if args.inspect:
        packets = load_trace(args.inspect)
        flows = {p.five_tuple() for p in packets}
        total_bytes = sum(p.byte_length() for p in packets)
        print(f"{args.inspect}: {len(packets)} packets, {len(flows)} flows, "
              f"{total_bytes} bytes on the wire")
        return 0
    if args.to_pcap:
        from repro.net.pcap import write_pcap

        source, destination = args.to_pcap
        packets = load_trace(source)
        count = write_pcap(destination, packets)
        print(f"converted {count} packets: {source} -> {destination} (open in Wireshark)")
        return 0
    print("trace: pass --generate PATH, --inspect PATH or --to-pcap SRC DST",
          file=sys.stderr)
    return 2


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (bad values exit 2 with a usage line)."""
    value = int(text)  # argparse reports a ValueError as a usage error too
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _gap_ns(text: str) -> float:
    """argparse type: a gap ``run_load`` accepts (bad values exit 2 likewise)."""
    try:
        return checked_gap(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpeedyBox reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--flows", type=int, default=40, help="flows in the synthetic trace")
        p.add_argument("--seed", type=int, default=1, help="trace seed")

    def recovery(p):
        p.add_argument(
            "--recover-after", type=int, default=None, metavar="M",
            help="auto-recover M packets after the kill (default: recover "
                 "at end of the window)",
        )
        p.add_argument(
            "--no-charge-recovery", action="store_true",
            help="do not charge failover stall (detect->drain wall time) to "
                 "buffered packets' simulated latency (pre-charging behaviour)",
        )

    def profiling(p):
        p.add_argument(
            "--profile",
            action="store_true",
            help="run the command under cProfile and print the top 30 "
                 "functions by cumulative time (with --obs-out the raw "
                 "stats are the record's profile.pstats)",
        )

    def observability(p):
        p.add_argument(
            "--obs-out",
            metavar="DIR",
            help="write the run record to DIR: audit.jsonl, spans.jsonl, "
                 "timeseries.jsonl, forensics.jsonl and a manifest.json "
                 "naming what ran — read it back with 'repro obs "
                 "report|watch|explain DIR' or 'repro ft report DIR'",
        )
        p.add_argument(
            "--obs",
            choices=LEVELS,
            default="run",
            help="record level: 'run' (default) observes the finished run "
                 "and sampled flows and leaves its route and simulated "
                 "numbers alone; 'full' adds the metrics registry "
                 "(metrics.prom) and the packet tracer (trace.json), which "
                 "put the run on the per-packet pass and the event engine",
        )
        p.add_argument(
            "--span-every",
            type=int,
            default=64,
            metavar="N",
            help="sample 1 in N flows for spans (default 64; 1 = every flow)",
        )
        p.add_argument(
            "--window-ns",
            type=float,
            default=None,
            metavar="NS",
            help="telemetry window width in simulated ns (default 1e6)",
        )
        p.add_argument(
            "--window-packets",
            type=int,
            default=None,
            metavar="N",
            help="use an N-packet window clock instead of simulated time",
        )
        p.add_argument(
            "--slo",
            action="append",
            default=None,
            metavar="SPEC",
            help="declare an SLO, e.g. 'p99<250us@0.999' or 'loss<0.1%%' "
                 "(repeatable; enables the telemetry windows and prints the "
                 "SLO table after the run)",
        )
        p.add_argument(
            "--worst-k",
            type=int,
            default=8,
            metavar="K",
            help="worst packets kept per forensics window (default 8)",
        )

    demo = sub.add_parser("demo", help="run a chain with and without SpeedyBox")
    demo.add_argument("--chain", default="nat,monitor,firewall")
    demo.add_argument("--platform", default="bess", choices=sorted(PLATFORMS))
    demo.add_argument("--no-speedybox", action="store_true")
    demo.add_argument("--list-nfs", action="store_true", help="print the NF catalogue")
    demo.add_argument(
        "--dump-rules",
        type=int,
        metavar="N",
        default=0,
        help="after the run, dump the last N consolidated Global MAT rules",
    )
    common(demo)
    observability(demo)
    profiling(demo)
    demo.set_defaults(func=cmd_demo)

    sweep = sub.add_parser("sweep", help="chain-length sweep (live Fig. 8)")
    sweep.add_argument("--platform", default="bess", choices=sorted(PLATFORMS))
    sweep.add_argument("--max-length", type=int, default=9)
    common(sweep)
    observability(sweep)
    profiling(sweep)
    sweep.set_defaults(func=cmd_sweep)

    equivalence = sub.add_parser("equivalence", help="lockstep output comparison")
    equivalence.add_argument("--chain", default="nat,maglev,monitor,firewall")
    common(equivalence)
    equivalence.set_defaults(func=cmd_equivalence)

    batch = sub.add_parser(
        "batch",
        help="columnar batch run down the whole-batch lane (vs the "
             "per-packet oracle with --compare)",
    )
    batch.add_argument("--platform", default="bess", choices=sorted(PLATFORMS))
    batch.add_argument(
        "--flows", type=_positive_int, default=100_000, metavar="N",
        help="total flows in the batch (default 100000)",
    )
    batch.add_argument(
        "--packets-per-flow", type=_positive_int, default=10, metavar="P",
        help="packets each flow sends (default 10)",
    )
    batch.add_argument(
        "--block", type=_positive_int, default=4096, metavar="B",
        help="concurrently live flows: round-robin interleave in blocks "
             "of B flows (default 4096)",
    )
    batch.add_argument(
        "--table", type=_positive_int, default=8192, metavar="C",
        help="flow-table and Global-MAT capacity (default 8192; older "
             "flows are LRU-evicted under pressure)",
    )
    batch.add_argument(
        "--compare", action="store_true",
        help="also run the per-packet oracle and verify the lane "
             "produced identical results (exit 1 on divergence)",
    )
    batch.add_argument("--seed", type=int, default=1, help=argparse.SUPPRESS)
    observability(batch)
    profiling(batch)
    batch.set_defaults(func=cmd_batch)

    scale = sub.add_parser(
        "scale", help="sharded replica sweep with optional migration churn"
    )
    scale.add_argument("--chain", default="nat,monitor,firewall")
    scale.add_argument(
        "--replicas", type=int, default=4, metavar="N",
        help="sweep replica counts 1..N (default 4)",
    )
    scale.add_argument(
        "--platforms", default="bess,onvm",
        help="comma-separated platform models to sweep (default both)",
    )
    scale.add_argument(
        "--churn", type=int, default=0, metavar="K",
        help="forcibly migrate K live flows between replicas before the "
             "loaded window (migration-churn ablation)",
    )
    scale.add_argument(
        "--physical-cores", type=_positive_int, default=None, metavar="C",
        help="shared core pool all replicas contend for (default: each "
             "replica gets its own cores)",
    )
    scale.add_argument(
        "--gap-ns", type=_gap_ns, default=0.0,
        help="inter-arrival gap of the offered load in ns (default 0)",
    )
    scale.add_argument("--no-speedybox", action="store_true")
    scale.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="enable fault tolerance: checkpoint each replica's flows "
             "every N packets it receives",
    )
    scale.add_argument(
        "--kill-at", type=int, default=None, metavar="K",
        help="kill the busiest replica when global packet K arrives "
             "(rows with >1 replica; implies fault tolerance)",
    )
    recovery(scale)
    common(scale)
    observability(scale)
    scale.set_defaults(func=cmd_scale)

    ft = sub.add_parser(
        "ft", help="fault-tolerance demo and recovery report"
    )
    ft.add_argument("action", choices=["demo", "report"], help="what to run")
    ft.add_argument("record", nargs="?", metavar="DIR",
                    help="(report) the run record an FT run's --obs-out wrote")
    ft.add_argument("--chain", default="nat,monitor,firewall")
    ft.add_argument("--platform", default="bess", choices=sorted(PLATFORMS))
    ft.add_argument(
        "--replicas", type=int, default=4, metavar="N",
        help="cluster size for the demo (default 4)",
    )
    ft.add_argument(
        "--checkpoint-every", type=int, default=16, metavar="N",
        help="checkpoint cadence in packets per replica (default 16)",
    )
    ft.add_argument(
        "--kill-at", type=int, default=None, metavar="K",
        help="global packet index of the kill (default: mid-stream)",
    )
    ft.add_argument(
        "--kill-replica", type=int, default=None, metavar="R",
        help="replica to kill (default: the one homing the most flows)",
    )
    recovery(ft)
    common(ft)
    observability(ft)
    ft.set_defaults(func=cmd_ft)

    obs = sub.add_parser(
        "obs",
        help="render a run record (report, watch, explain) or diff "
             "benchmark results",
    )
    obs.add_argument(
        "action", choices=["report", "watch", "diff", "explain"],
        help="what to render",
    )
    obs.add_argument("record", nargs="?", metavar="DIR",
                     help="report/watch/explain: the run record a run's "
                          "--obs-out wrote")
    obs.add_argument("--baseline", metavar="PATH",
                     help="diff: baseline BENCH_*.json file or directory")
    obs.add_argument("--current", metavar="PATH",
                     help="diff: current BENCH_*.json file or directory")
    obs.add_argument("--threshold", type=float, default=0.05, metavar="FRAC",
                     help="diff: regression threshold for sim keys, as a fraction "
                          "(default 0.05)")
    obs.add_argument("--show-ok", action="store_true",
                     help="diff: also list unchanged metrics")
    obs.add_argument("--slo-us", type=float, default=None, metavar="US",
                     help="latency SLO in microseconds for the attainment section")
    obs.add_argument("--percentile", type=float, default=0.99,
                     help="SLO percentile (default 0.99)")
    obs.add_argument("--top", type=int, default=5,
                     help="rows in the top-flows table (default 5)")
    obs.set_defaults(func=cmd_obs)

    trace = sub.add_parser("trace", help="generate, inspect or convert .sbtr traces")
    trace.add_argument("--generate", metavar="PATH")
    trace.add_argument("--inspect", metavar="PATH")
    trace.add_argument(
        "--to-pcap", nargs=2, metavar=("SRC", "DST"),
        help="convert an .sbtr capture to a Wireshark-compatible .pcap",
    )
    trace.add_argument("--gap-ns", type=_gap_ns, default=1000.0)
    common(trace)
    trace.set_defaults(func=cmd_trace)
    return parser


def run_profiled(args: argparse.Namespace) -> int:
    """Run the selected command under cProfile; report top-30 cumulative."""
    import cProfile
    import pstats

    args.profiler = cProfile.Profile()
    status = args.profiler.runcall(args.func, args)
    stats = pstats.Stats(args.profiler, stream=sys.stdout)
    print("\n-- profile (top 30 by cumulative time) " + "-" * 32)
    stats.strip_dirs().sort_stats("cumulative").print_stats(30)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    # what the record writer needs to know about the invocation
    args.argv = list(sys.argv[1:] if argv is None else argv)
    args.profiler = None
    if getattr(args, "profile", False):
        return run_profiled(args)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
