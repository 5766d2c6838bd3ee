"""Figure 8 — supporting long service chains.

Paper setup: chains of 1-9 IPFilters (ACLs tuned to avoid drops); ONVM
is capped at 5 NFs by the testbed's 14 cores.  Plots per-packet latency
and processing rate for all four configurations.

Paper anchors: SpeedyBox's latency is "nearly irrelevant to the chain
length" while the original chains' latency climbs with every NF;
SpeedyBox holds BESS's rate high on long chains; ONVM's pipelined rate
stays flat regardless.
"""

from benchmarks.harness import make_platform, save_result, sim, uniform_flow_packets
from repro.core.framework import ServiceChain, SpeedyBox
from repro.nf import IPFilter
from repro.platform import OpenNetVMPlatform
from repro.stats import format_table
from repro.traffic.generator import clone_packets

LENGTHS = list(range(1, 10))


def build_chain(n):
    return [IPFilter(f"ipfilter{i}") for i in range(n)]


def run_fig8():
    # Enough packets that the single slow initial packet (whose cost
    # grows with chain length) is amortised out of the rate measurement.
    packets = uniform_flow_packets(packets=120)
    results = {}
    for platform_name in ("bess", "onvm"):
        for variant, runtime_cls in (("original", ServiceChain), ("speedybox", SpeedyBox)):
            for n in LENGTHS:
                if platform_name == "onvm" and n > OpenNetVMPlatform.MAX_CHAIN_LENGTH:
                    continue
                platform = make_platform(platform_name, runtime_cls(build_chain(n)))
                load = platform.run_load(clone_packets(packets))
                platform.reset()
                outcomes = platform.process_all(clone_packets(packets[:4]))
                results[(platform_name, variant, n)] = {
                    "latency_us": outcomes[-1].latency_ns / 1000.0,
                    "rate_mpps": load.throughput_mpps,
                }
    return results


def _cell(results, platform, variant, n, metric):
    entry = results.get((platform, variant, n))
    return entry[metric] if entry is not None else "-"


def _report(results):
    for metric, label, fname, better in (
        ("latency_us", "Processing Latency (us)", "fig8_latency", "lower"),
        ("rate_mpps", "Processing Rate (Mpps)", "fig8_rate", "higher"),
    ):
        rows = []
        for n in LENGTHS:
            rows.append(
                [
                    n,
                    _cell(results, "bess", "original", n, metric),
                    _cell(results, "bess", "speedybox", n, metric),
                    _cell(results, "onvm", "original", n, metric),
                    _cell(results, "onvm", "speedybox", n, metric),
                ]
            )
        metrics = {
            f"{platform}_{variant}_{metric}_n{n}": sim(entry[metric], better)
            for (platform, variant, n), entry in results.items()
        }
        text = format_table(
            ["Chain Length", "BESS", "BESS w/ SBox", "ONVM", "ONVM w/ SBox"],
            rows,
            title=f"Figure 8: {label} vs service chain length (ONVM max 5: core limit)",
        )
        save_result(fname, text, metrics=metrics)


def _assert_shape(results):
    def latency(platform, variant, n):
        return results[(platform, variant, n)]["latency_us"]

    def rate(platform, variant, n):
        return results[(platform, variant, n)]["rate_mpps"]

    # ONVM rows stop at 5 — the testbed core limit is enforced.
    assert ("onvm", "original", 6) not in results
    assert ("onvm", "original", 5) in results

    # Latency: originals grow ~linearly with chain length.
    for platform, max_n in (("bess", 9), ("onvm", 5)):
        assert latency(platform, "original", max_n) > 2.5 * latency(platform, "original", 1)

    # Latency: SpeedyBox is nearly flat in chain length.
    assert latency("bess", "speedybox", 9) < 1.1 * latency("bess", "speedybox", 1)
    assert latency("onvm", "speedybox", 5) < 1.1 * latency("onvm", "speedybox", 1)

    # ...and beats the original heavily on long chains (paper: ~4x at 9).
    assert latency("bess", "original", 9) / latency("bess", "speedybox", 9) > 3.0

    # Rate: BESS's original decays with length; SpeedyBox holds it up
    # (the residual slope is the one slow initial packet amortised over
    # the run).
    assert rate("bess", "original", 9) < 0.45 * rate("bess", "original", 1)
    assert rate("bess", "speedybox", 9) > 0.85 * rate("bess", "speedybox", 1)
    assert rate("bess", "speedybox", 9) > 2.0 * rate("bess", "original", 9)

    # Rate: ONVM's pipeline keeps the original roughly flat.
    assert rate("onvm", "original", 5) > 0.75 * rate("onvm", "original", 1)


def test_fig8_chain_length(benchmark):
    results = benchmark.pedantic(run_fig8, rounds=1, iterations=1)
    _report(results)
    _assert_shape(results)
