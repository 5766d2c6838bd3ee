#!/usr/bin/env python3
"""Multi-chain deployment: steering traffic classes to their own chains.

An SFC-style deployment with three chains behind one director:

- web traffic (80/443/8080)  → NAT → Maglev → Monitor → Firewall
- dns traffic (53)           → Monitor (accounting only)
- everything else            → Snort → Monitor (inspect the unknown)

Each chain consolidates independently — per-chain Local/Global MATs and
Event Tables — and a mid-run steering change shows live flows staying
pinned to their original chain while new flows follow the new policy.

Run:  python examples/multi_chain.py
"""

from repro.core import ServiceDirector, SteeringRule, dump_global_mat
from repro.nf import IPFilter, MaglevLoadBalancer, MazuNAT, Monitor, SnortIDS
from repro.nf.ipfilter import AclRule
from repro.stats import format_table
from repro.traffic import DatacenterTraceConfig, DatacenterTraceGenerator, TrafficGenerator

RULES_TEXT = 'alert tcp any any -> any any (msg:"unknown-svc exploit"; content:"exploit"; sid:1;)'


def build_director():
    chains = {
        "web": [
            MazuNAT("web-nat", external_ip="203.0.113.10"),
            MaglevLoadBalancer("web-lb", table_size=131),
            Monitor("web-mon"),
            IPFilter("web-fw"),
        ],
        "dns": [Monitor("dns-mon")],
        "inspect": [SnortIDS("other-ids", RULES_TEXT), Monitor("other-mon")],
    }
    steering = [
        SteeringRule(AclRule.make(dst_ports=(80, 80)), "web"),
        SteeringRule(AclRule.make(dst_ports=(443, 443)), "web"),
        SteeringRule(AclRule.make(dst_ports=(8080, 8080)), "web"),
        SteeringRule(AclRule.make(dst_ports=(53, 53)), "dns"),
    ]
    return ServiceDirector(chains, steering, default_chain="inspect")


def main():
    config = DatacenterTraceConfig(
        flows=50, seed=23, service_ports=(80, 443, 8080, 53, 11211), with_fin=False
    )
    specs = DatacenterTraceGenerator(config).generate_flows()
    packets = TrafficGenerator(specs, interleave="round_robin").packets()

    director = build_director()
    for index, packet in enumerate(packets):
        if index == len(packets) // 2:
            # Mid-run policy change: port 8080 moves to the inspect chain.
            director.add_rule(SteeringRule(AclRule.make(dst_ports=(8080, 8080)), "inspect"))
            print("*** steering change: 8080 now routes to 'inspect' (live flows stay pinned)\n")
        director.process(packet)

    rows = []
    for chain, stats in director.stats().items():
        rows.append(
            [
                chain,
                int(stats["packets"]),
                f"{100 * stats.get('fast_path_rate', 0):.1f}%",
                int(stats.get("active_rules", 0)),
                int(stats.get("events_registered", 0)),
            ]
        )
    print(format_table(
        ["chain", "packets", "fast-path rate", "rules", "events"],
        rows,
        title="per-chain consolidation state",
    ))

    print("\nweb chain's Global MAT (2 most recent rules):")
    print(dump_global_mat(director.runtime("web"), limit=2))


if __name__ == "__main__":
    main()
