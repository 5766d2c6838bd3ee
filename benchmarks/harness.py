"""Shared harness for the per-table/per-figure benchmarks.

Every benchmark regenerates one table or figure of the paper's §VII:
it builds the paper's chain and workload, runs both the original chain
and SpeedyBox on both platform models, prints the same rows/series the
paper reports, and writes the rendered text to
``benchmarks/results/<experiment>.txt`` (the source for EXPERIMENTS.md).

The pytest-benchmark fixture times the simulation run itself, so
``pytest benchmarks/ --benchmark-only`` both regenerates the numbers and
tracks the harness's own performance.

A benchmark that tracks numbers hands them to :func:`save_result` as
``metrics``, each one declared where it is produced — :func:`sim`,
:func:`count` or :func:`wall` — and the declaration is written into
``BENCH_<experiment>.json`` beside the value, which is all the
regression gate (:mod:`repro.obs.benchdiff`) knows about a key.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.framework import ServiceChain, SpeedyBox
from repro.net.packet import Packet
from repro.obs.benchdiff import DIRECTIONS, Metric
from repro.platform import BessPlatform, OpenNetVMPlatform
from repro.platform.base import PacketOutcome, Platform
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets

RESULTS_DIR = Path(__file__).parent / "results"
#: BENCH_<experiment>.json files land at the repo root so the perf
#: trajectory (throughput, latency percentiles, cycles/packet) is a
#: flat, diffable set of artifacts tracked across PRs.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Cycles charged for NIC RX+TX with default costs; the paper's
#: "CPU cycle per packet" tables count chain processing only.
NIC_CYCLES = 260.0


def sim(value: float, direction: str) -> Metric:
    """A deterministic simulated quantity (cycles, Mpps, simulated µs):
    gated at the differ's threshold in ``direction``."""
    return Metric(value, "sim", direction)


def count(value: float, direction: str = "none") -> Metric:
    """An exact integer (packets, flows, calls, identity flags): any
    change against ``direction`` gates."""
    return Metric(value, "count", direction)


def wall(value: float) -> Metric:
    """Host time, RSS or a ratio of host times: reported, never gated."""
    return Metric(value, "wall", "none")


def save_result(name: str, text: str, metrics: Optional[Dict[str, Metric]] = None) -> None:
    """Print the rendered table/series and persist it under results/.

    When ``metrics`` is given, the machine-readable companion
    ``BENCH_<name>.json`` is written at the repo root as well: the
    values under ``metrics``, what each one is under ``schema``.
    ``TypeError`` for a value that does not say what it is.
    """
    for key, metric in (metrics or {}).items():
        if not isinstance(metric, Metric):
            raise TypeError(
                f"{name}: {key} = {metric!r} is undeclared; wrap it in sim(), count() or wall()"
            )
        if metric.direction not in DIRECTIONS:
            raise ValueError(f"{name}: {key}: direction is one of {DIRECTIONS}: {metric}")
        if metric.kind == "count" and metric.value != int(metric.value):
            raise ValueError(f"{name}: {key}: a count is an integer: {metric}")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")
    if metrics is None:
        return
    payload = {
        "experiment": name,
        "metrics": {key: metric.value for key, metric in metrics.items()},
        "schema": {
            key: {"kind": metric.kind, "direction": metric.direction}
            for key, metric in metrics.items()
        },
    }
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def make_platform(platform_name: str, runtime, **kwargs) -> Platform:
    if platform_name == "bess":
        return BessPlatform(runtime, **kwargs)
    if platform_name == "onvm":
        return OpenNetVMPlatform(runtime, **kwargs)
    raise ValueError(f"unknown platform {platform_name!r}")


def uniform_flow_packets(
    packets: int = 8,
    payload: bytes = b"x" * 26,  # 64B frames end to end
    sport: int = 1000,
    dport: int = 80,
) -> List[Packet]:
    """One plain TCP flow (no handshake): packet 0 is the initial packet."""
    spec = FlowSpec.tcp("10.0.0.1", "20.0.0.1", sport, dport, packets=packets, payload=payload)
    return TrafficGenerator([spec]).packets()


def initial_and_subsequent(
    platform: Platform, packets: Sequence[Packet]
) -> Tuple[PacketOutcome, PacketOutcome]:
    """Process a flow; return (initial outcome, steady-state subsequent outcome)."""
    outcomes = platform.process_all(clone_packets(packets))
    return outcomes[0], outcomes[-1]


def chain_cycles(outcome: PacketOutcome) -> float:
    """Work cycles excluding NIC — the paper's 'CPU cycle per packet'."""
    return outcome.work_cycles - NIC_CYCLES


def chain_latency_cycles(outcome: PacketOutcome) -> float:
    return outcome.latency_cycles - NIC_CYCLES


def chain_main_core_cycles(outcome: PacketOutcome) -> float:
    """Main-core cycles excluding NIC — what the paper's per-packet CPU
    counters on the chain/manager core measure when SF waves are
    offloaded to worker cores."""
    return outcome.main_core_cycles - NIC_CYCLES


def measure_four_ways(
    chain_builder: Callable[[], list],
    packets: Sequence[Packet],
    platforms: Sequence[str] = ("bess", "onvm"),
    **platform_kwargs,
) -> Dict[str, Dict[str, PacketOutcome]]:
    """Run {platform} x {original, speedybox} and collect init/sub outcomes.

    Returns ``results[platform][variant]`` -> dict with 'init' and 'sub'.
    """
    results: Dict[str, Dict[str, Dict[str, PacketOutcome]]] = {}
    for platform_name in platforms:
        results[platform_name] = {}
        for variant, runtime_cls in (("original", ServiceChain), ("speedybox", SpeedyBox)):
            platform = make_platform(platform_name, runtime_cls(chain_builder()), **platform_kwargs)
            init, sub = initial_and_subsequent(platform, packets)
            results[platform_name][variant] = {"init": init, "sub": sub}
    return results


def saturation_rate_mpps(
    platform: Platform, packets: Sequence[Packet], warmup: int = 0
) -> float:
    """Back-to-back offered load; returns the sustained Mpps."""
    result = platform.run_load(clone_packets(packets))
    return result.throughput_mpps


def per_flow_processing_time_us(
    runtime_builder: Callable[[], Union[ServiceChain, SpeedyBox]],
    platform_name: str,
    packets: Sequence[Packet],
) -> List[float]:
    """Fig. 9 metric: per-flow aggregate processing time in microseconds.

    "We measure the flow processing time as the aggregated time spent
    processing all packets in a flow."
    """
    platform = make_platform(platform_name, runtime_builder())
    totals: Dict = {}
    order: List = []
    for packet in clone_packets(packets):
        flow = packet.five_tuple()  # pre-chain identity
        outcome = platform.process(packet)
        if flow not in totals:
            totals[flow] = 0.0
            order.append(flow)
        totals[flow] += outcome.latency_ns / 1000.0
    return [totals[flow] for flow in order]


def percent_reduction(before: float, after: float) -> float:
    return 100.0 * (1.0 - after / before)
