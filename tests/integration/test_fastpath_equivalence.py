"""Fast-engine equivalence: compiled flows + analytic replay vs the references.

The fast engine (what ``run_load`` does with nothing attached) must be
*numerically invisible*: every ``LoadResult`` field — including the
per-packet latency list, element for element — must match the same
stream served by the interpreted fast path and replayed by the
generator-based DES (``tests/integration/helpers.py``'s two selectors).

Coverage follows the acceptance matrix: both platform models, chain
lengths 1–9, with and without SpeedyBox, plus chains whose NFs register
events, run SF schedules or drop packets (forcing the compiled lane to
fall back per packet) and the gapped / trace-timestamped arrival modes.

The hostile event schedules at the end drop below ``run_load``: the
compiling runtime and the interpreted one process one stream in
lockstep and must agree packet by packet — bytes, report, meters in
charge order — while events fire at both of the lane's check positions
and bounded tables evict under them.
"""

from __future__ import annotations

import pytest

from repro.core.framework import ServiceChain, SpeedyBox
from repro.nf import (
    DosPrevention,
    IPFilter,
    MaglevLoadBalancer,
    MazuNAT,
    Monitor,
    TokenBucketPolicer,
)
from repro.platform import BessPlatform, OpenNetVMPlatform
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets
from tests.integration.helpers import (
    InterpretedSpeedyBox,
    des_run_load,
    fail_tracked_backend,
    lockstep,
    nf_by_name,
)


def multi_flow_packets(flows: int = 4, per_flow: int = 30):
    specs = [
        FlowSpec.tcp(
            f"10.0.{index}.1",
            "20.0.0.1",
            4000 + index,
            80,
            packets=per_flow,
            payload=b"y" * 20,
        )
        for index in range(flows)
    ]
    return TrafficGenerator(specs, interleave="round_robin").packets()


def build_platform(platform_name, runtime):
    if platform_name == "onvm":
        # Lengths past the testbed's 5-NF core budget still exercise the
        # stage-pipeline model with the limit lifted.
        return OpenNetVMPlatform(runtime, enforce_core_limit=False)
    return BessPlatform(runtime)


def run_both(platform_name, runtime_cls, build_chain, packets, **load_kwargs):
    """``runtime_cls`` over ``build_chain()`` on the fast engine, and its
    reference: interpreted when it is a SpeedyBox, replayed by the DES."""
    fast = build_platform(platform_name, runtime_cls(build_chain()))
    fast_result = fast.run_load(clone_packets(packets), **load_kwargs)
    reference_cls = InterpretedSpeedyBox if runtime_cls is SpeedyBox else runtime_cls
    legacy = build_platform(platform_name, reference_cls(build_chain()))
    legacy_result = des_run_load(legacy, clone_packets(packets), **load_kwargs)
    # counts, makespan and every latency, in the same order
    assert fast_result == legacy_result
    return fast_result, legacy_result


@pytest.mark.parametrize("platform_name", ["bess", "onvm"])
@pytest.mark.parametrize("runtime_cls", [ServiceChain, SpeedyBox])
@pytest.mark.parametrize("length", range(1, 10))
def test_chain_length_sweep(platform_name, runtime_cls, length):
    packets = multi_flow_packets(flows=3, per_flow=14)
    run_both(
        platform_name,
        runtime_cls,
        lambda: [IPFilter(f"fw{i}") for i in range(length)],
        packets,
    )


EVENT_CHAINS = {
    # Maglev registers backend-failure events; Monitor runs SF batches.
    "maglev-monitor": lambda: [
        MaglevLoadBalancer("maglev0", table_size=131),
        Monitor("monitor0"),
    ],
    # NAT rewrites headers (non-noop consolidated action) ahead of a
    # stateful chain tail.
    "nat-monitor-fw": lambda: [
        MazuNAT("nat0"),
        Monitor("monitor0"),
        IPFilter("fw0"),
    ],
    # DoS preventer flips flows to DROP mid-run (threshold crossed) and
    # the policer drops on token exhaustion: per-packet event checks and
    # mid-flow rule rebuilds keep knocking flows off the compiled lane.
    "dos-policer-fw": lambda: [
        DosPrevention("dos0", threshold=20, mode="packets"),
        TokenBucketPolicer("policer0", rate_pps=1e6, burst=16),
        IPFilter("fw0"),
    ],
}


@pytest.mark.parametrize("platform_name", ["bess", "onvm"])
@pytest.mark.parametrize("chain_key", sorted(EVENT_CHAINS))
def test_event_and_drop_chains(platform_name, chain_key):
    packets = multi_flow_packets(flows=4, per_flow=24)
    run_both(platform_name, SpeedyBox, EVENT_CHAINS[chain_key], packets)


@pytest.mark.parametrize("platform_name", ["bess", "onvm"])
def test_gapped_arrivals(platform_name):
    packets = multi_flow_packets(flows=3, per_flow=20)
    fast, __ = run_both(
        platform_name,
        SpeedyBox,
        lambda: [IPFilter(f"fw{i}") for i in range(4)],
        packets,
        inter_arrival_ns=137.5,
    )
    assert fast.offered == len(packets)


def test_timestamped_replay():
    packets = multi_flow_packets(flows=2, per_flow=16)
    for index, packet in enumerate(packets):
        packet.timestamp_ns = index * 211.25
    run_both(
        "bess",
        SpeedyBox,
        lambda: [IPFilter(f"fw{i}") for i in range(3)],
        packets,
        use_timestamps=True,
    )


def test_fin_teardown_flows():
    """Closing flows exercise the compiled lane's FIN fallback + teardown."""
    specs = [
        FlowSpec.tcp(
            "10.1.0.1", "20.0.0.1", 5000 + i, 80,
            packets=12, payload=b"z" * 8, handshake=True, fin=True,
        )
        for i in range(3)
    ]
    packets = TrafficGenerator(specs, interleave="round_robin").packets()
    run_both("bess", SpeedyBox, lambda: [IPFilter("fw0"), Monitor("mon0")], packets)


# -- hostile event schedules: the lane and the oracle in lockstep ---------------


def shuffled_flows(flows, per_flow):
    specs = [
        FlowSpec.tcp(f"10.3.{i}.1", "20.0.0.1", 6000 + i, 80, packets=per_flow, payload=b"h" * 12)
        for i in range(flows)
    ]
    return TrafficGenerator(specs, interleave="shuffled", seed=11).packets()


BOUNDS = [{}, {"max_flows": 2}]


@pytest.mark.parametrize("bounds", BOUNDS, ids=["unbounded", "max_flows=2"])
def test_maglev_failover_storm_in_lockstep(bounds):
    """Fail / recover / fail again between packets: the lane's pre-check
    sees the true condition and hands the packet to ``_run_fast``."""
    packets = shuffled_flows(flows=4, per_flow=30)
    fail = fail_tracked_backend("maglev0")

    def recover(runtime):
        maglev = nf_by_name(runtime, "maglev0")
        for backend in maglev.backends:
            if not backend.healthy:
                maglev.recover_backend(backend.name)

    served = lockstep(
        lambda: [MaglevLoadBalancer("maglev0", table_size=131), Monitor("monitor0")],
        packets,
        {30: fail, 60: recover, 90: fail},
        **bounds,
    )
    fired_off_lane = [r for r, on_lane in served if r.events_fired and not on_lane]
    assert fired_off_lane and all(r.is_fast for r in fired_off_lane)
    assert not any(r.events_fired for r, on_lane in served if on_lane)
    assert sum(on_lane for __, on_lane in served) > len(packets) // 4


@pytest.mark.parametrize("bounds", BOUNDS, ids=["unbounded", "max_flows=2"])
def test_dos_threshold_crossing_in_lockstep(bounds):
    """The counter crosses the threshold *in* a packet's SF wave: the
    lane's post-update check fires the one-shot and rebuilds the rule."""
    packets = shuffled_flows(flows=4, per_flow=30)
    served = lockstep(
        lambda: [
            DosPrevention("dos0", threshold=10, mode="packets"),
            Monitor("monitor0"),
            IPFilter("fw0"),
        ],
        packets,
        **bounds,
    )
    fired_on_lane = [r.events_fired for r, on_lane in served if on_lane and r.events_fired]
    assert fired_on_lane and set(fired_on_lane) == {1}
    if not bounds:
        assert len(fired_on_lane) == 4  # every flow crosses once, on the lane
    assert any(r.dropped for r, on_lane in served if on_lane)


@pytest.mark.parametrize("bounds", BOUNDS, ids=["unbounded", "max_flows=2"])
def test_policer_event_storm_in_lockstep(bounds):
    """Each flow offered at 2.0x its policed rate, by timestamp: the
    verdict flips almost every packet (the event-frequency ablation's
    worst cell), so rules rebuild and lanes recompile continuously."""
    packets = multi_flow_packets(flows=3, per_flow=120)
    for index, packet in enumerate(packets):
        packet.timestamp_ns = (index // 3) * 5_000.0  # 2.0 x 100 kpps per flow
    # Bursts of six per flow, so a two-rule table serves hits between evictions.
    order = sorted(range(len(packets)), key=lambda i: (i // 18, i % 3, i))
    packets = [packets[i] for i in order]
    served = lockstep(
        lambda: [TokenBucketPolicer("policer0", rate_pps=100_000.0, burst=4), Monitor("monitor0")],
        packets,
        **bounds,
    )
    fired = sum(r.events_fired for r, __ in served)
    if not bounds:
        assert fired > 0.9 * len(packets)
    assert any(r.events_fired for r, on_lane in served if on_lane)
    assert any(r.events_fired for r, on_lane in served if not on_lane)
