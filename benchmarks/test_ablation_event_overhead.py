"""Ablation — the Event Table's per-packet cost.

Observation 2 says events are rare but must be *checked* constantly: the
fast path evaluates every active condition of the flow before and after
the state functions.  This ablation sweeps the number of registered
events per flow and measures the fast-path cost — quantifying the
paper's implicit claim that the Event Table is cheap when NFs register a
handful of events per flow.
"""

from benchmarks.harness import chain_cycles, save_result, sim, uniform_flow_packets
from repro.core.actions import Drop, Forward
from repro.core.framework import SpeedyBox
from repro.core.local_mat import InstrumentationAPI
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.platform import BessPlatform
from repro.stats import format_table
from repro.traffic.generator import clone_packets


class EventHeavyNF(NetworkFunction):
    """Registers ``event_count`` never-firing events per flow."""

    def __init__(self, name: str, event_count: int):
        super().__init__(name)
        self.event_count = event_count

    @staticmethod
    def never() -> bool:
        return False

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        self.ingress(packet)
        fid = api.nf_extract_fid(packet)
        api.add_header_action(fid, Forward())
        for __ in range(self.event_count):
            api.register_event(fid, self.never, update_action=Drop())


def fast_path_cycles(event_count: int) -> float:
    platform = BessPlatform(SpeedyBox([EventHeavyNF("ev", event_count)]))
    packets = uniform_flow_packets(packets=4)
    outcomes = platform.process_all(clone_packets(packets))
    return chain_cycles(outcomes[-1])


def run_ablation():
    return {count: fast_path_cycles(count) for count in (0, 1, 2, 4, 8, 16, 32)}


def _report(results):
    baseline = results[0]
    rows = [
        [count, f"{cycles:.0f}", f"+{cycles - baseline:.0f}"]
        for count, cycles in sorted(results.items())
    ]
    save_result(
        "ablation_event_overhead",
        format_table(
            ["events per flow", "fast-path cycles", "overhead vs none"],
            rows,
            title="Ablation: fast-path cost vs registered events per flow",
        ),
        metrics={
            f"events_{count}_fast_path_cycles": sim(cycles, "lower")
            for count, cycles in sorted(results.items())
        },
    )


def _assert_shape(results):
    # Cost grows linearly in the number of active events (two checks per
    # packet: pre and post).
    per_event = (results[32] - results[0]) / 32
    assert per_event > 0
    mid_estimate = results[0] + per_event * 8
    assert abs(results[8] - mid_estimate) < 1.0  # linear to numerical noise
    # A handful of events costs a small fraction of the fast path (the
    # realistic regime: one Maglev event, maybe a DoS event).
    assert results[2] - results[0] < 0.2 * results[0]


def test_ablation_event_overhead(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=3, iterations=1)
    _report(results)
    _assert_shape(results)
