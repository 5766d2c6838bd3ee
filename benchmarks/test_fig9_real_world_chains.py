"""Figure 9 — CDF of flow processing time on real-world service chains.

Paper setup: two chains derived from IETF service-chaining use cases,
with concrete NFs substituted ("IDS" -> Snort, "NAT" -> MazuNAT,
"Load Balancer" -> Maglev, "Firewall" -> IPFilter):

- Chain 1: MazuNAT + Maglev + Monitor + IPFilter (the Motivation chain;
  no Maglev events in this experiment),
- Chain 2: IPFilter + Snort + Monitor,

driven by the Benson et al. datacenter trace with payloads synthesised
against the Snort rules.  The metric is the *flow processing time*: the
aggregate time spent processing all packets of a flow.

Paper anchors (p50 flow-time reduction): Chain 1: 39.6% (BESS) / 40.2%
(ONVM); Chain 2: 41.3% (BESS) / 34.2% (ONVM).
"""

from benchmarks.harness import (
    per_flow_processing_time_us,
    percent_reduction,
    save_result,
    sim,
)
from repro.core.framework import ServiceChain, SpeedyBox
from repro.nf import IPFilter, MaglevLoadBalancer, MazuNAT, Monitor, SnortIDS
from repro.nf.maglev import Backend
from repro.nf.snort.rules import parse_rules
from repro.stats import Distribution, format_table
from repro.traffic import DatacenterTraceConfig, DatacenterTraceGenerator, TrafficGenerator

RULES_TEXT = """
alert tcp any any -> any any (msg:"c2 beacon"; content:"malware-beacon"; sid:9001;)
log tcp any any -> any any (msg:"http get"; content:"GET /"; sid:9002;)
"""
RULES = parse_rules(RULES_TEXT)


def backends():
    return [Backend.make(f"b{i}", f"192.168.50.{i + 1}", 9000) for i in range(4)]


def chain1():
    return [
        MazuNAT("mazunat", external_ip="203.0.113.50", internal_prefix="10.0.0.0/8"),
        MaglevLoadBalancer("maglev", backends=backends(), table_size=131),
        Monitor("monitor"),
        IPFilter("ipfilter"),
    ]


def chain2():
    return [IPFilter("ipfilter"), SnortIDS("snort", RULES_TEXT), Monitor("monitor")]


def trace_packets():
    # Flow-size body tuned so the median flow carries ~8-10 data packets,
    # matching the ~20 us median flow times of the paper's trace replay
    # (each flow also pays a SYN and a FIN).
    config = DatacenterTraceConfig(
        flows=150,
        seed=2019,
        lognormal_mu=2.3,
        lognormal_sigma=0.8,
        large_packet_fraction=0.25,
        max_packets_per_flow=120,
    )
    specs = DatacenterTraceGenerator(config, RULES).generate_flows()
    return TrafficGenerator(specs, interleave="round_robin").packets()


def run_fig9():
    packets = trace_packets()
    results = {}
    for chain_name, builder in (("chain1", chain1), ("chain2", chain2)):
        for platform_name in ("bess", "onvm"):
            original = Distribution(
                per_flow_processing_time_us(lambda: ServiceChain(builder()), platform_name, packets)
            )
            speedybox = Distribution(
                per_flow_processing_time_us(lambda: SpeedyBox(builder()), platform_name, packets)
            )
            results[(chain_name, platform_name)] = {"original": original, "speedybox": speedybox}
    return results


def _report(results):
    for chain_name, title in (
        ("chain1", "Chain 1: MazuNAT+Maglev+Monitor+IPFilter"),
        ("chain2", "Chain 2: IPFilter+Snort+Monitor"),
    ):
        rows = []
        metrics = {}
        for platform_name, label in (("bess", "BESS"), ("onvm", "ONVM")):
            data = results[(chain_name, platform_name)]
            for variant, suffix in (("original", ""), ("speedybox", " w/ SBox")):
                dist = data[variant]
                rows.append(
                    [f"{label}{suffix}", dist.p(0.10), dist.p50, dist.p90, dist.p99, dist.mean]
                )
                for column in ("p50", "p90", "p99", "mean"):
                    metrics[f"{platform_name}_{variant}_flow_time_{column}_us"] = sim(
                        getattr(dist, column), "lower"
                    )
            reduction = percent_reduction(data["original"].p50, data["speedybox"].p50)
            rows.append([f"{label} p50 reduction", f"-{reduction:.1f}%", "", "", "", ""])
            metrics[f"{platform_name}_p50_reduction_pct"] = sim(reduction, "higher")
        text = format_table(
            ["Config", "p10 (us)", "p50 (us)", "p90 (us)", "p99 (us)", "mean (us)"],
            rows,
            title=f"Figure 9 ({title}): flow processing time distribution",
        )
        save_result(f"fig9_{chain_name}", text, metrics=metrics)

        # Also persist the CDF series the figure plots.
        for platform_name in ("bess", "onvm"):
            data = results[(chain_name, platform_name)]
            lines = ["flow_time_us,cdf,variant"]
            for variant, dist in (("original", data["original"]), ("speedybox", data["speedybox"])):
                for value, fraction in dist.cdf():
                    lines.append(f"{value:.3f},{fraction:.4f},{platform_name}-{variant}")
            save_result(f"fig9_{chain_name}_{platform_name}_cdf", "\n".join(lines))


def _assert_shape(results):
    paper_p50 = {
        ("chain1", "bess"): 39.6,
        ("chain1", "onvm"): 40.2,
        ("chain2", "bess"): 41.3,
        ("chain2", "onvm"): 34.2,
    }
    for key, paper_value in paper_p50.items():
        data = results[key]
        reduction = percent_reduction(data["original"].p50, data["speedybox"].p50)
        # Shape claim: a substantial p50 reduction, same ballpark as the
        # paper's 34-41%.
        assert 25.0 <= reduction <= 65.0, f"{key}: {reduction:.1f}% (paper: {paper_value}%)"
        # SpeedyBox dominates across the distribution, not just at p50.
        assert data["speedybox"].p90 < data["original"].p90
        assert data["speedybox"].mean < data["original"].mean


def test_fig9_real_world_chains(benchmark):
    results = benchmark.pedantic(run_fig9, rounds=1, iterations=1)
    _report(results)
    _assert_shape(results)
