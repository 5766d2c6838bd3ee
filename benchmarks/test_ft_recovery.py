"""Failover-recovery sweep — recovery cost vs checkpoint interval.

Kills 1 of 4 replicas halfway through the scale-out churn workload and
recovers it, once per checkpoint interval.  The interval is the classic
snapshot-vs-log knob: a short interval snapshots often and replays
little; a long one checkpoints rarely and rebuilds more from the input
log.  Each run goes through :func:`verify_equivalence_failover`, so
every reported point is also a proof that recovery was loss-free,
duplicate-free and state-identical — the shared NAT port pool and
monitor aggregate included.

Recovery cost is charged onto the packets that paid it: with the
default ``charge_recovery`` policy every buffered in-flight delivery
carries the failure-to-delivery wall time as simulated stall, so the
``stall ms`` column is the tail-latency bill of the failover.  It and
``recovery ms`` are host-clock readings (declared ``wall``: reported,
never gated or asserted on); everything else in the table is a count.
``repro obs explain`` decomposes the same charge per packet.

What the sweep holds, none of it read off a stopwatch: every run is
equivalent, every buffered packet is delivered and charged, the
replayed-log depth respects the checkpoint bound (the per-replica log
is trimmed at every checkpoint, so replay work cannot exceed
``interval + buffered``), and checkpointing leaves the fast lanes
alone.  A flow has three reasons to compile its lane — it consolidated,
it migrated in, it was restored from a checkpoint — so the journal's
``fastpath_compile`` count is bounded by ``flows + churn + restored``
whatever the checkpoint interval; a checkpoint that disturbed the lanes
it snapshots (as the export → re-import capture once did, recompiling
every flow every round) breaks that bound on any runner.
"""

from benchmarks.harness import count, save_result, wall
from repro.ft import (
    SharedAggregate,
    SharedPortPool,
    TransactionalStore,
    verify_equivalence_failover,
)
from repro.nf import IPFilter, MazuNAT, Monitor
from repro.obs.audit import AuditLog
from repro.stats import format_table
from repro.traffic import FlowSpec, TrafficGenerator

CHECKPOINT_INTERVALS = (8, 16, 32)
REPLICAS = 4
FLOWS = 64
CHURN = 16
PORTS = (20000, 60000)
EXTERNAL_IP = "203.0.113.80"


def build_chain():
    return [
        MazuNAT("nat", external_ip=EXTERNAL_IP, port_range=PORTS),
        Monitor("mon"),
        IPFilter("fw"),
    ]


def shared_chain_factory():
    """Replica chains over one transactional store per run: ports come
    from the shared pool, monitor totals from the shared aggregate."""
    store = TransactionalStore()
    pool = SharedPortPool(store, port_range=PORTS)
    aggregate = SharedAggregate(store, name="mon_total")

    def chain():
        return [
            MazuNAT("nat", external_ip=EXTERNAL_IP, port_range=PORTS, port_pool=pool),
            Monitor("mon", aggregate=aggregate),
            IPFilter("fw"),
        ]

    return chain, aggregate


def workload(flows=FLOWS, packets_per_flow=14):
    specs = [
        FlowSpec.tcp(
            f"10.3.{i // 250}.{i % 250 + 1}",
            f"99.2.0.{i % 200 + 1}",
            6000 + i,
            80,
            packets=packets_per_flow,
            handshake=True,
            fin=True,
        )
        for i in range(flows)
    ]
    return TrafficGenerator(specs, interleave="round_robin", seed=9).packets()


def sweep(packets):
    results = {}
    for interval in CHECKPOINT_INTERVALS:
        factory, aggregate = shared_chain_factory()
        audit = AuditLog()
        report = verify_equivalence_failover(
            build_chain,
            packets,
            kill_at=len(packets) // 2,
            cluster_chain_factory=factory,
            replicas=REPLICAS,
            checkpoint_interval=interval,
            recover_after=len(packets) // 8,
            churn=CHURN,
            audit=audit,
        )
        results[interval] = (report, aggregate, audit.counts())
    return results


def test_ft_recovery_sweep(benchmark):
    packets = workload()
    results = benchmark.pedantic(lambda: sweep(packets), rounds=1, iterations=1)

    table_rows = []
    metrics = {
        "packets": count(len(packets)),
        "replicas": count(REPLICAS),
        "churn": count(CHURN),
        "flows": count(FLOWS),
    }
    for interval in CHECKPOINT_INTERVALS:
        report, aggregate, decisions = results[interval]
        compiles = decisions.get("fastpath_compile", 0)
        invalidations = decisions.get("fastpath_invalidate", 0)
        table_rows.append(
            [
                interval,
                report.buffered_packets,
                report.replayed_packets,
                report.flows_restored,
                report.flows_rebuilt,
                f"{report.recovery_ms:.2f}",
                f"{report.stall_charged_ns / 1e6:.2f}",
                compiles,
                invalidations,
                "yes" if report.equivalent else "NO",
            ]
        )
        prefix = f"interval_{interval}"
        metrics[f"{prefix}_recovery_ms"] = wall(round(report.recovery_ms, 3))
        metrics[f"{prefix}_charged_packets"] = count(report.charged_packets)
        metrics[f"{prefix}_stall_charged_ms"] = wall(round(report.stall_charged_ns / 1e6, 3))
        metrics[f"{prefix}_buffered"] = count(report.buffered_packets)
        metrics[f"{prefix}_delivered"] = count(report.delivered_packets)
        metrics[f"{prefix}_replayed"] = count(report.replayed_packets, "lower")
        metrics[f"{prefix}_restored"] = count(report.flows_restored)
        metrics[f"{prefix}_rebuilt"] = count(report.flows_rebuilt, "lower")
        metrics[f"{prefix}_equivalent"] = count(int(report.equivalent), "higher")
        metrics[f"{prefix}_divergences"] = count(len(report.divergences), "lower")
        metrics[f"{prefix}_lane_compiles"] = count(compiles, "lower")
        metrics[f"{prefix}_lane_invalidations"] = count(invalidations, "lower")
        # every packet counted exactly once by the shared aggregate,
        # recovery replay deduped by the transactional store
        assert aggregate.packets == len(packets), (interval, aggregate.packets)

    text = format_table(
        [
            "interval",
            "buffered",
            "replayed",
            "restored",
            "rebuilt",
            "recovery ms",
            "stall ms",
            "compiles",
            "invalidated",
            "equivalent",
        ],
        table_rows,
        title=(
            f"failover recovery vs checkpoint interval — kill 1/{REPLICAS} replicas "
            f"mid-run, {FLOWS} flows, churn {CHURN}, chain nat|monitor|firewall"
        ),
    )
    save_result("ft_recovery", text, metrics=metrics)

    for interval in CHECKPOINT_INTERVALS:
        report, __, decisions = results[interval]
        assert report.equivalent, report.summary()
        assert report.buffered_packets == report.delivered_packets
        # default charge_recovery policy: every buffered delivery carries
        # the failover stall on its simulated latency
        assert report.charged_packets == report.delivered_packets
        assert report.replayed_packets <= interval + report.buffered_packets
        assert decisions.get("fastpath_compile", 0) <= FLOWS + CHURN + report.flows_restored
