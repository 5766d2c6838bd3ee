"""Figure 4 — effect of header action consolidation.

Paper setup: chains of 1-3 IPFilter NFs, 64B packets; plots CPU cycles
per packet for initial and subsequent packets, with and without
SpeedyBox, on BESS (4a) and OpenNetVM (4b).

Paper anchors: for subsequent packets, SpeedyBox costs slightly *more*
than the original at 1 header action (Local-MAT machinery overhead), and
reduces CPU cycles by 40.9% / 57.7% at 2 / 3 header actions (BESS),
approaching the theoretical (N-1)/N.
"""

from benchmarks.harness import (
    chain_cycles,
    measure_four_ways,
    percent_reduction,
    save_result,
    sim,
    uniform_flow_packets,
)
from repro.nf import IPFilter
from repro.stats import format_table


def acl_rules():
    # A realistic blacklist the test flow never matches: initial packets
    # pay the full linear scan ("linear matching of ACL lists for new
    # flows"), subsequent packets hit the verdict cache.
    from repro.nf.ipfilter import AclRule, Verdict

    return [
        AclRule.make(src=f"192.168.{i % 256}.0/24", dst_ports=(1, 1023), verdict=Verdict.DROP)
        for i in range(300)
    ]


def build_chain(n):
    # Each IPFilter contributes one header action; DSCP marking gives the
    # action a real field write as in a policing firewall.
    return lambda: [
        IPFilter(f"ipfilter{i}", rules=acl_rules(), mark_dscp=10 + i) for i in range(n)
    ]


def run_fig4():
    packets = uniform_flow_packets(packets=8)
    return {n: measure_four_ways(build_chain(n), packets) for n in (1, 2, 3)}


def _report(rows):
    for platform in ("bess", "onvm"):
        table_rows = []
        metrics = {}
        for n in (1, 2, 3):
            result = rows[n][platform]
            table_rows.append(
                [
                    n,
                    chain_cycles(result["original"]["init"]),
                    chain_cycles(result["speedybox"]["init"]),
                    chain_cycles(result["original"]["sub"]),
                    chain_cycles(result["speedybox"]["sub"]),
                ]
            )
            for variant in ("original", "speedybox"):
                for phase in ("init", "sub"):
                    metrics[f"{variant}_{phase}_cycles_per_packet_n{n}"] = sim(
                        chain_cycles(result[variant][phase]), "lower"
                    )
        text = format_table(
            ["# Header Action", "Original-init", "SpeedyBox-init", "Original-sub", "SpeedyBox-sub"],
            table_rows,
            title=f"Figure 4 ({platform.upper()}): CPU cycles per packet vs header actions",
        )
        save_result(f"fig4_{platform}", text, metrics=metrics)


def _assert_shape(rows):
    for platform in ("bess", "onvm"):
        orig_sub = {n: chain_cycles(rows[n][platform]["original"]["sub"]) for n in (1, 2, 3)}
        sbox_sub = {n: chain_cycles(rows[n][platform]["speedybox"]["sub"]) for n in (1, 2, 3)}
        orig_init = {n: chain_cycles(rows[n][platform]["original"]["init"]) for n in (1, 2, 3)}
        sbox_init = {n: chain_cycles(rows[n][platform]["speedybox"]["init"]) for n in (1, 2, 3)}

        # Initial packets cost more than subsequent (flow setup work),
        # and SpeedyBox's initial packet is the most expensive of all:
        # it also records into Local MATs and consolidates.
        for n in (1, 2, 3):
            assert orig_init[n] > orig_sub[n]
            assert sbox_init[n] > sbox_sub[n]
            assert sbox_init[n] > orig_init[n]

        # At 1 header action SpeedyBox *loses* on subsequent packets.
        assert sbox_sub[1] > orig_sub[1]

        # At 2 and 3 header actions consolidation wins, approaching (N-1)/N.
        reduction2 = percent_reduction(orig_sub[2], sbox_sub[2])
        reduction3 = percent_reduction(orig_sub[3], sbox_sub[3])
        assert 30.0 <= reduction2 <= 55.0, f"{platform}: {reduction2:.1f}% (paper: 40.9%)"
        assert 50.0 <= reduction3 <= 70.0, f"{platform}: {reduction3:.1f}% (paper: 57.7%)"
        assert reduction3 > reduction2

        # SpeedyBox subsequent cost is (nearly) flat in chain length: the
        # extra merged fields cost far less than extra NF hops.
        assert sbox_sub[3] - sbox_sub[1] < 0.25 * (orig_sub[3] - orig_sub[1])


def test_fig4_header_action_consolidation(benchmark):
    rows = benchmark.pedantic(run_fig4, rounds=3, iterations=1)
    _report(rows)
    _assert_shape(rows)
