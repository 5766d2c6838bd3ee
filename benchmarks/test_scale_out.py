"""Scale-out sweep — aggregate throughput of sharded chain replicas.

The paper's prototype is one chain instance; ``repro.scale`` replicates
it.  This benchmark sweeps 1..4 replicas on both platform models over a
uniform 64-flow workload and reports aggregate Mpps, p99 latency and the
speedup over one replica — the scale-out headline — plus a
migration-churn ablation: forcibly re-homing live flows mid-run must not
change delivered counts (zero loss) and barely moves the numbers.
"""

from benchmarks.harness import count as count_of  # ``count`` is a replica count below
from benchmarks.harness import save_result, sim
from repro.net.headers import TCP_FIN
from repro.nf import IPFilter, MazuNAT, Monitor
from repro.scale import ScaleCluster
from repro.stats import format_table
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets

REPLICA_COUNTS = (1, 2, 3, 4)
FLOWS = 64


def build_chain():
    return [
        MazuNAT("nat", external_ip="203.0.113.80", port_range=(20000, 60000)),
        Monitor("mon"),
        IPFilter("fw"),
    ]


def workload(flows=FLOWS, packets_per_flow=14):
    """Uniform long-lived flows: equal sizes so sharding imbalance, not
    workload skew, is what the sweep measures."""
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


def sweep(platform_name, packets, churn=0):
    rows = {}
    for count in REPLICA_COUNTS:
        cluster = ScaleCluster(
            build_chain, platform=platform_name, replicas=count, buckets=128
        )
        migrations = 0
        if churn and count > 1:
            live = [p for p in packets if not p.l4.has_flag(TCP_FIN)]
            for packet in clone_packets(live[: len(live) // 2]):
                cluster.process(packet)
            migrations = len(cluster.churn_flows(churn, seed=3))
        result = cluster.run_load(clone_packets(packets))
        rows[count] = {
            "mpps": result.total.throughput_mpps,
            "p99_us": result.total.latency_percentile(0.99) / 1000.0,
            "offered": result.total.offered,
            "delivered": result.total.delivered,
            "migrations": migrations,
        }
    return rows


def test_scale_out_sweep(benchmark):
    packets = workload()
    results = benchmark.pedantic(
        lambda: {name: sweep(name, packets) for name in ("bess", "onvm")},
        rounds=1,
        iterations=1,
    )

    table_rows = []
    metrics = {}
    for platform_name, rows in results.items():
        base = rows[1]["mpps"]
        for count in REPLICA_COUNTS:
            row = rows[count]
            speedup = row["mpps"] / base
            table_rows.append(
                [
                    platform_name,
                    count,
                    row["offered"],
                    row["delivered"],
                    f"{row['mpps']:.2f}",
                    f"{row['p99_us']:.1f}",
                    f"{speedup:.2f}x",
                ]
            )
            metrics[f"{platform_name}_{count}r_mpps"] = sim(round(row["mpps"], 3), "higher")
            metrics[f"{platform_name}_{count}r_p99_us"] = sim(round(row["p99_us"], 2), "lower")
        # a ratio of simulated rates
        metrics[f"{platform_name}_speedup_4r"] = sim(round(rows[4]["mpps"] / base, 3), "higher")

    text = format_table(
        ["platform", "replicas", "offered", "delivered", "Mpps", "p99 us", "speedup"],
        table_rows,
        title=f"scale-out sweep, {FLOWS} uniform flows, chain nat|monitor|firewall",
    )
    save_result("scale_out", text, metrics=metrics)

    for platform_name, rows in results.items():
        for count in REPLICA_COUNTS:
            assert rows[count]["delivered"] == rows[count]["offered"]
    # The headline acceptance: ONVM aggregate throughput scales >= 3x
    # from one replica to four.
    assert metrics["onvm_speedup_4r"].value >= 3.0, metrics["onvm_speedup_4r"]


def test_migration_churn_ablation(benchmark):
    packets = workload()
    results = benchmark.pedantic(
        lambda: {
            "baseline": sweep("onvm", packets),
            "churned": sweep("onvm", packets, churn=16),
        },
        rounds=1,
        iterations=1,
    )

    table_rows = []
    metrics = {}
    for count in REPLICA_COUNTS:
        base = results["baseline"][count]
        churned = results["churned"][count]
        table_rows.append(
            [
                count,
                f"{base['mpps']:.2f}",
                f"{churned['mpps']:.2f}",
                churned["migrations"],
                churned["delivered"],
            ]
        )
        metrics[f"baseline_{count}r_mpps"] = sim(round(base["mpps"], 3), "higher")
        metrics[f"churned_{count}r_mpps"] = sim(round(churned["mpps"], 3), "higher")
        metrics[f"migrations_{count}r"] = count_of(churned["migrations"])
        # Zero loss under churn: every offered packet still delivered.
        assert churned["delivered"] == churned["offered"]

    text = format_table(
        ["replicas", "Mpps (no churn)", "Mpps (churn 16)", "migrations", "delivered"],
        table_rows,
        title="migration-churn ablation on onvm (16 flows re-homed mid-run)",
    )
    save_result("scale_churn", text, metrics=metrics)
    assert any(results["churned"][count]["migrations"] > 0 for count in (2, 3, 4))
