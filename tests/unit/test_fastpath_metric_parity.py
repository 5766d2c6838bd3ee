"""Metric parity: the compiled fast lane increments identical counters.

The compiled lane (what a ``SpeedyBox`` does on its own) is a pure
execution-strategy change; ``repro.core.fastpath`` documents the
contract that a run on it produces *exactly* the registry snapshot of
the interpreted fast path — same counters, same values, same label sets.  Per-lane signals (compiles, invalidations) belong in
the AuditLog instead.  These tests pin that contract over chains that
exercise the interesting report shapes: steady singletons, SF schedules,
registered events, drops, and FIN teardown.
"""

import pytest

from repro.core.framework import SpeedyBox
from repro.nf import (
    DosPrevention,
    IPFilter,
    MaglevLoadBalancer,
    MazuNAT,
    Monitor,
    TokenBucketPolicer,
)
from repro.obs import MetricsRegistry
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets
from tests.integration.helpers import InterpretedSpeedyBox, fail_tracked_backend

CHAINS = {
    "filters": lambda: [IPFilter(f"fw{i}") for i in range(3)],
    "stateful": lambda: [MazuNAT("nat"), Monitor("mon"), IPFilter("fw")],
    "events": lambda: [DosPrevention("dos", threshold=20, mode="packets"),
                       Monitor("mon")],
    "drops": lambda: [TokenBucketPolicer("pol", rate_pps=1e6, burst=4),
                      IPFilter("fw")],
    "rewrite": lambda: [MaglevLoadBalancer("lb", table_size=131),
                        MazuNAT("nat")],
}


def make_packets(flows=3, per_flow=40, fin=True):
    specs = [
        FlowSpec.tcp(f"10.0.{i}.1", "20.0.0.1", 4000 + i, 80,
                     packets=per_flow, fin=fin)
        for i in range(flows)
    ]
    return TrafficGenerator(specs, interleave="round_robin").packets()


def snapshot_for(chain_factory, packets, compiled, interventions=None):
    """``interventions[i]`` runs against the runtime before packet ``i``."""
    registry = MetricsRegistry()
    runtime_cls = SpeedyBox if compiled else InterpretedSpeedyBox
    runtime = runtime_cls(chain_factory(), metrics=registry)
    for index, packet in enumerate(clone_packets(packets)):
        if interventions and index in interventions:
            interventions[index](runtime)
        runtime.process(packet)
    return registry.snapshot()


@pytest.mark.parametrize("chain_name", sorted(CHAINS))
def test_compiled_lane_metric_parity(chain_name):
    chain_factory = CHAINS[chain_name]
    packets = make_packets()
    interpreted = snapshot_for(chain_factory, packets, compiled=False)
    compiled = snapshot_for(chain_factory, packets, compiled=True)
    assert compiled == interpreted
    # The run actually took the fast path, so parity is non-vacuous.
    assert compiled.get("path_packets_total{path=fast}", 0) > 0


def test_parity_through_a_maglev_failover():
    """Quiet checks are booked on the lane, the firing ones by the
    interpreted path the lane hands the packet to: one total either way."""
    packets = make_packets()
    interventions = {len(packets) // 2: fail_tracked_backend("lb")}
    interpreted = snapshot_for(CHAINS["rewrite"], packets, False, interventions)
    compiled = snapshot_for(CHAINS["rewrite"], packets, True, interventions)
    assert compiled == interpreted
    assert compiled["events_triggered_total"] >= 1
    assert compiled["event_checks_total"] > len(packets)


def test_parity_survives_fin_teardown_and_reuse():
    """Flows that close and re-open recompile; counters must not notice."""
    chain_factory = CHAINS["stateful"]
    # Two generations of the same five-tuples: FIN closes each flow,
    # the second generation re-records and re-compiles it.
    packets = make_packets(flows=2, per_flow=20, fin=True)
    packets = packets + clone_packets(packets)
    interpreted = snapshot_for(chain_factory, packets, compiled=False)
    compiled = snapshot_for(chain_factory, packets, compiled=True)
    assert compiled == interpreted
    assert compiled["flow_deletes_total"] == 4


def test_parity_includes_label_sets_not_just_totals():
    packets = make_packets()
    interpreted = snapshot_for(CHAINS["filters"], packets, compiled=False)
    compiled = snapshot_for(CHAINS["filters"], packets, compiled=True)
    assert set(compiled) == set(interpreted)
    labelled = [name for name in compiled if "{" in name]
    assert labelled, "snapshot contains labelled series"
