"""Figure 7 — latency reduction split between the two optimizations.

Paper setup: the Snort+Monitor chain; total latency reduction is
decomposed into the contribution of header-action consolidation (HA) and
state-function parallelism (SF).

Paper anchors: BESS latency falls 35.9%, split 49.4% HA / 50.6% SF;
on ONVM parallelism contributes a larger share (58.9%) because inter-core
communication overhead eats part of the consolidation benefit.

Methodology here (ablation): run three configurations —
original, SpeedyBox with parallelism disabled (HA only), and full
SpeedyBox — and attribute (original − HA-only) to HA and
(HA-only − full) to SF.
"""

from benchmarks.harness import (
    make_platform,
    percent_reduction,
    save_result,
    sim,
    uniform_flow_packets,
)
from repro.core.framework import ServiceChain, SpeedyBox
from repro.nf import Monitor, SnortIDS
from repro.stats import format_table
from repro.traffic.generator import clone_packets

RULES_TEXT = """
alert tcp any any -> any any (msg:"exploit"; content:"exploit"; sid:1;)
log tcp any any -> any any (msg:"http"; content:"GET "; sid:2;)
"""


#: which way each column of a platform's row is good; how the gain
#: splits between the two optimizations is a finding, not a score
BETTER = {
    "original_us": "lower",
    "ha_only_us": "lower",
    "full_us": "lower",
    "reduction_pct": "higher",
    "ha_share_pct": "none",
    "sf_share_pct": "none",
}


def build_chain():
    return [SnortIDS("snort", RULES_TEXT), Monitor("monitor")]


def latency_us(platform_name, runtime):
    platform = make_platform(platform_name, runtime)
    packets = uniform_flow_packets(packets=4, payload=b"x" * 26)
    outcomes = platform.process_all(clone_packets(packets))
    return outcomes[-1].latency_ns / 1000.0


def run_fig7():
    results = {}
    for platform_name in ("bess", "onvm"):
        original = latency_us(platform_name, ServiceChain(build_chain()))
        ha_only = latency_us(platform_name, SpeedyBox(build_chain(), enable_parallelism=False))
        full = latency_us(platform_name, SpeedyBox(build_chain()))
        ha_gain = original - ha_only
        sf_gain = ha_only - full
        total_gain = original - full
        results[platform_name] = {
            "original_us": original,
            "ha_only_us": ha_only,
            "full_us": full,
            "reduction_pct": percent_reduction(original, full),
            "ha_share_pct": 100.0 * ha_gain / total_gain if total_gain else 0.0,
            "sf_share_pct": 100.0 * sf_gain / total_gain if total_gain else 0.0,
        }
    return results


def _report(results):
    rows = []
    for platform_name, label in (("bess", "BESS"), ("onvm", "ONVM")):
        data = results[platform_name]
        rows.append(
            [
                label,
                data["original_us"],
                data["full_us"],
                f"-{data['reduction_pct']:.1f}%",
                f"HA {data['ha_share_pct']:.1f}%",
                f"SF {data['sf_share_pct']:.1f}%",
            ]
        )
    text = format_table(
        ["Platform", "Original (us)", "w/ SBox (us)", "Reduction", "HA share", "SF share"],
        rows,
        title="Figure 7: latency reduction of Snort+Monitor and optimization split",
    )
    metrics = {
        f"{platform_name}_{column}": sim(value, BETTER[column])
        for platform_name, data in results.items()
        for column, value in data.items()
    }
    save_result("fig7_latency_breakdown", text, metrics=metrics)


def _assert_shape(results):
    # BESS: overall latency falls substantially (paper: 35.9%) with the
    # two optimizations contributing about half each (paper: 49.4/50.6).
    bess = results["bess"]
    assert 20.0 <= bess["reduction_pct"] <= 60.0, f"BESS: {bess['reduction_pct']:.1f}% (paper: 35.9%)"
    assert 35.0 <= bess["ha_share_pct"] <= 65.0
    assert 35.0 <= bess["sf_share_pct"] <= 65.0

    # ONVM: latency also falls; inter-core overhead (ring to the TX
    # thread, wave signalling) shrinks the net gains.  The paper found
    # SF parallelism the larger contributor there (58.9%); our model
    # attributes more to HA — see EXPERIMENTS.md.
    onvm = results["onvm"]
    assert 12.0 <= onvm["reduction_pct"] <= 60.0, f"ONVM: {onvm['reduction_pct']:.1f}%"
    assert 15.0 <= onvm["ha_share_pct"] <= 85.0
    assert 15.0 <= onvm["sf_share_pct"] <= 85.0
    for data in (bess, onvm):
        assert abs(data["ha_share_pct"] + data["sf_share_pct"] - 100.0) < 1e-6

    # ONVM's absolute latencies exceed BESS's (ring hops), as in Fig. 7.
    assert results["onvm"]["original_us"] > results["bess"]["original_us"]


def test_fig7_latency_breakdown(benchmark):
    results = benchmark.pedantic(run_fig7, rounds=3, iterations=1)
    _report(results)
    _assert_shape(results)
