"""Ablation — how often can events fire before consolidation stops paying?

Observation 2's premise is that events are *infrequent*.  The token-bucket
policer lets us dial event frequency directly: traffic offered right at
the policed rate makes the flow's verdict oscillate (many events), while
under-rate traffic never flips (no events).  We sweep the offered/policed
ratio and measure fast-path cost and rule churn — quantifying the premise
that SpeedyBox is built on.
"""

from benchmarks.harness import count, save_result, sim
from repro.core.framework import SpeedyBox
from repro.nf import Monitor, TokenBucketPolicer
from repro.platform import BessPlatform
from repro.stats import format_table
from repro.traffic import FlowSpec
from repro.traffic.generator import packets_for_flow

POLICED_RATE_PPS = 100_000.0  # one token per 10 us
PACKETS = 400


def offered_packets(ratio):
    """One flow offered at ratio x the policed rate (timestamped)."""
    spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000, 80, packets=PACKETS, payload=b"x")
    packets = packets_for_flow(spec)
    gap_ns = 1e9 / (POLICED_RATE_PPS * ratio)
    for index, packet in enumerate(packets):
        packet.timestamp_ns = index * gap_ns
    return packets


#: what each per-ratio column is; how often the policer fires and what
#: it drops at a given overload is its behaviour, not a cost to shrink
DECLARED = {
    "events_per_pkt": lambda value: sim(value, "none"),
    "reconsolidations": count,
    "mean_fast_cycles": lambda value: sim(value, "lower"),
    "dropped": count,
}


def run_one(ratio):
    chain = [TokenBucketPolicer("pol", rate_pps=POLICED_RATE_PPS, burst=4), Monitor("mon")]
    platform = BessPlatform(SpeedyBox(chain))
    outcomes = platform.process_all(offered_packets(ratio))
    runtime = platform.runtime
    stats = runtime.stats()
    fast = [o for o in outcomes if o.report.is_fast]
    mean_fast_cycles = sum(o.work_cycles for o in fast) / len(fast)
    return {
        "events_per_pkt": stats["events_triggered"] / stats["packets"],
        "reconsolidations": stats["reconsolidations"],
        "mean_fast_cycles": mean_fast_cycles,
        "dropped": sum(1 for o in outcomes if o.dropped),
    }


def run_ablation():
    return {ratio: run_one(ratio) for ratio in (0.5, 0.9, 1.1, 2.0, 5.0)}


def _report(results):
    rows = [
        [
            f"{ratio}x",
            f"{d['events_per_pkt']:.3f}",
            d["reconsolidations"],
            f"{d['mean_fast_cycles']:.0f}",
            d["dropped"],
        ]
        for ratio, d in sorted(results.items())
    ]
    save_result(
        "ablation_event_frequency",
        format_table(
            ["offered/policed", "events per pkt", "reconsolidations", "mean fast cycles", "dropped"],
            rows,
            title="Ablation: event frequency vs fast-path cost (policer + monitor)",
        ),
        metrics={
            f"{name}_at_{ratio}x": DECLARED[name](value)
            for ratio, d in sorted(results.items())
            for name, value in d.items()
        },
    )


def _assert_shape(results):
    # Under the rate: no oscillation, no reconsolidation, nothing dropped.
    calm = results[0.5]
    assert calm["events_per_pkt"] == 0.0
    assert calm["reconsolidations"] == 0
    assert calm["dropped"] == 0

    # Over the rate: events fire and rules churn...
    hot = results[2.0]
    assert hot["events_per_pkt"] > 0.0
    assert hot["reconsolidations"] > 0
    assert hot["dropped"] > 0

    # ...and the mean fast-path cost rises with event frequency (each
    # trigger pays condition checks + reconsolidation).
    assert hot["mean_fast_cycles"] > calm["mean_fast_cycles"]

    # Even at 5x overload the fast path stays bounded: events cost a
    # reconsolidation, not a chain walk.
    assert results[5.0]["mean_fast_cycles"] < 3.0 * calm["mean_fast_cycles"]


def test_ablation_event_frequency(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=2, iterations=1)
    _report(results)
    _assert_shape(results)
