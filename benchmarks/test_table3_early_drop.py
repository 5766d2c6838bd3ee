"""Table III — early packet drop saves CPU cycles.

Paper setup: a chain of three IPFilters with actions
{forward, forward, drop}: the original chain carries every packet to NF3
before dropping it; SpeedyBox drops subsequent packets at the chain
entry.

Paper values:

    (CPU cycle)      NF1   NF2   NF3   Aggregate
    BESS             530   582   577   1689
    BESS w/ SBox      -     -     -     591 (-65.0%)
    ONVM             510   570   540   1620
    ONVM w/ SBox      -     -     -     570 (-64.8%)
"""

from benchmarks.harness import (
    chain_cycles,
    count,
    make_platform,
    percent_reduction,
    save_result,
    sim,
    uniform_flow_packets,
)
from repro.core.framework import ServiceChain, SpeedyBox
from repro.nf import IPFilter
from repro.nf.ipfilter import AclRule, Verdict
from repro.stats import format_table
from repro.traffic.generator import clone_packets


def build_chain():
    # NF1/NF2 forward; NF3 drops everything.  Slightly different ACL
    # sizes give the NFs the paper's slightly different per-NF costs.
    return [
        IPFilter("nf1", rules=[AclRule.make(src="192.0.2.0/24", verdict=Verdict.DROP)]),
        IPFilter("nf2", rules=[AclRule.make(src=f"198.51.{i}.0/24", verdict=Verdict.DROP) for i in range(4)]),
        IPFilter("nf3", rules=[AclRule.make(verdict=Verdict.DROP)]),
    ]


def build_monitored_chain():
    """The early-drop chain with a Monitor in front of the firewall:
    SpeedyBox must keep counting dropped-flow packets (pre-drop state
    fidelity), which claws back part of the drop savings."""
    from repro.nf import Monitor

    return [
        IPFilter("nf1", rules=[AclRule.make(src="192.0.2.0/24", verdict=Verdict.DROP)]),
        Monitor("mon"),
        IPFilter("nf3", rules=[AclRule.make(verdict=Verdict.DROP)]),
    ]


def run_table3():
    packets = uniform_flow_packets(packets=8)
    results = {}
    for platform_name in ("bess", "onvm"):
        original = make_platform(platform_name, ServiceChain(build_chain()))
        speedybox = make_platform(platform_name, SpeedyBox(build_chain()))

        orig_outcomes = original.process_all(clone_packets(packets))
        sbox_outcomes = speedybox.process_all(clone_packets(packets))

        orig_sub = orig_outcomes[-1]
        per_nf = {}
        hop = original._transport_cycles_per_hop()
        for name, meter in orig_sub.report.nf_meters:
            per_nf[name] = meter.cycles(original.costs) + hop

        monitored_orig = make_platform(platform_name, ServiceChain(build_monitored_chain()))
        monitored_sbox = make_platform(platform_name, SpeedyBox(build_monitored_chain()))
        mon_orig_sub = monitored_orig.process_all(clone_packets(packets))[-1]
        mon_sbox_sub = monitored_sbox.process_all(clone_packets(packets))[-1]

        results[platform_name] = {
            "per_nf": per_nf,
            "orig_aggregate": chain_cycles(orig_sub),
            "sbox_aggregate": chain_cycles(sbox_outcomes[-1]),
            "monitored_orig": chain_cycles(mon_orig_sub),
            "monitored_sbox": chain_cycles(mon_sbox_sub),
            "monitor_counts": monitored_sbox.runtime.nf_by_name["mon"].total_packets(),
        }
    return results


def _report(results):
    rows = []
    metrics = {}
    for platform_name, label in (("bess", "BESS"), ("onvm", "ONVM")):
        data = results[platform_name]
        per_nf = data["per_nf"]
        rows.append(
            [label, per_nf.get("nf1", 0), per_nf.get("nf2", 0), per_nf.get("nf3", 0), data["orig_aggregate"]]
        )
        saving = percent_reduction(data["orig_aggregate"], data["sbox_aggregate"])
        rows.append(
            [f"{label} w/ SBox", "-", "-", "-", f"{data['sbox_aggregate']:.0f} (-{saving:.1f}%)"]
        )
        for name, cycles in per_nf.items():
            metrics[f"{platform_name}_{name}_cycles"] = sim(cycles, "lower")
        metrics[f"{platform_name}_orig_aggregate_cycles"] = sim(data["orig_aggregate"], "lower")
        metrics[f"{platform_name}_sbox_aggregate_cycles"] = sim(data["sbox_aggregate"], "lower")
        metrics[f"{platform_name}_saving_pct"] = sim(saving, "higher")
    text = format_table(
        ["(CPU cycle)", "NF1", "NF2", "NF3", "Aggregate"],
        rows,
        title="Table III: early packet drop saves CPU cycles",
    )
    extension_rows = []
    for platform_name, label in (("bess", "BESS"), ("onvm", "ONVM")):
        data = results[platform_name]
        saving = percent_reduction(data["monitored_orig"], data["monitored_sbox"])
        extension_rows.append(
            [label, data["monitored_orig"], f"{data['monitored_sbox']:.0f} (-{saving:.1f}%)"]
        )
        metrics[f"{platform_name}_monitored_orig_cycles"] = sim(data["monitored_orig"], "lower")
        metrics[f"{platform_name}_monitored_sbox_cycles"] = sim(data["monitored_sbox"], "lower")
        metrics[f"{platform_name}_monitored_saving_pct"] = sim(saving, "higher")
        # pre-drop state fidelity: the Monitor saw every dropped packet
        metrics[f"{platform_name}_monitor_counts"] = count(data["monitor_counts"], "higher")
    text += "\n\n" + format_table(
        ["(CPU cycle)", "Original", "w/ SBox"],
        extension_rows,
        title=(
            "Extension: a Monitor in front of the firewall — pre-drop state\n"
            "fidelity keeps its counters exact, trading back part of the saving"
        ),
    )
    save_result("table3_early_drop", text, metrics=metrics)


def _assert_shape(results):
    for platform_name in ("bess", "onvm"):
        data = results[platform_name]
        # All three NFs ran on the original path...
        assert set(data["per_nf"]) == {"nf1", "nf2", "nf3"}
        # ...with per-NF costs in the paper's ballpark (~500-700 cycles).
        for cycles in data["per_nf"].values():
            assert 350 <= cycles <= 800
        # Early drop saves ~65% of aggregate cycles (paper: 65.0 / 64.8).
        saving = percent_reduction(data["orig_aggregate"], data["sbox_aggregate"])
        assert 50.0 <= saving <= 75.0, f"{platform_name}: {saving:.1f}% (paper: ~65%)"
        # With a Monitor in front of the firewall the saving shrinks (its
        # state function still runs on every dropped packet) but stays
        # substantial — and every dropped packet is counted (8 packets).
        monitored_saving = percent_reduction(data["monitored_orig"], data["monitored_sbox"])
        assert 25.0 <= monitored_saving < saving
        assert data["monitor_counts"] == 8


def test_table3_early_drop(benchmark):
    results = benchmark.pedantic(run_table3, rounds=3, iterations=1)
    _report(results)
    _assert_shape(results)
