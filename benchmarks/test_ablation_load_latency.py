"""Ablation — the load-latency curve.

The paper reports unloaded latency and saturation rate separately; this
ablation connects them: per-packet latency as a function of offered load
on the BESS model.  The original chain saturates at a lower offered rate,
so its queueing delay explodes earlier — SpeedyBox both lowers the
service time *and* pushes the knee of the curve to the right.  A classic
open-loop queueing result, reproduced on the discrete-event engine.
"""

from benchmarks.harness import save_result, sim, uniform_flow_packets
from repro.core.framework import ServiceChain, SpeedyBox
from repro.nf import IPFilter
from repro.platform import BessPlatform
from repro.stats import format_table
from repro.traffic.generator import clone_packets

OFFERED_MPPS = [0.2, 0.4, 0.8, 1.2, 1.6, 2.0]


def build_chain():
    return [IPFilter(f"fw{i}") for i in range(4)]


def p99_us_at(runtime_cls, offered_mpps, packets):
    platform = BessPlatform(runtime_cls(build_chain()))
    inter_arrival_ns = 1000.0 / offered_mpps  # Mpps -> ns between packets
    result = platform.run_load(clone_packets(packets), inter_arrival_ns=inter_arrival_ns)
    return result.latency_percentile(0.99) / 1000.0


def run_ablation():
    packets = uniform_flow_packets(packets=200)
    results = {}
    for offered in OFFERED_MPPS:
        results[offered] = {
            "original": p99_us_at(ServiceChain, offered, packets),
            "speedybox": p99_us_at(SpeedyBox, offered, packets),
        }
    return results


def _report(results):
    rows = [
        [offered, f"{data['original']:.2f}", f"{data['speedybox']:.2f}"]
        for offered, data in sorted(results.items())
    ]
    metrics = {
        f"{variant}_p99_us_at_{offered}mpps": sim(data[variant], "lower")
        for offered, data in sorted(results.items())
        for variant in ("original", "speedybox")
    }
    save_result(
        "ablation_load_latency",
        format_table(
            ["offered (Mpps)", "original p99 (us)", "speedybox p99 (us)"],
            rows,
            title="Ablation: p99 latency vs offered load (BESS, 4 x IPFilter)",
        ),
        metrics=metrics,
    )


def _assert_shape(results):
    low = OFFERED_MPPS[0]
    high = OFFERED_MPPS[-1]
    # At light load both run near their unloaded latency, SBox lower.
    assert results[low]["speedybox"] < results[low]["original"]
    # The original chain's capacity on this setup is ~0.85 Mpps: beyond
    # it, queueing blows its p99 up by an order of magnitude...
    assert results[high]["original"] > 10 * results[low]["original"]
    # ...while SpeedyBox (capacity ~2.3 Mpps) still serves 2.0 Mpps with
    # bounded queueing.
    assert results[high]["speedybox"] < 0.2 * results[high]["original"]
    # Latency is monotone in offered load for the original chain.
    original_curve = [results[o]["original"] for o in OFFERED_MPPS]
    assert original_curve == sorted(original_curve)


def test_ablation_load_latency(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    _report(results)
    _assert_shape(results)
