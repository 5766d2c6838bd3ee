"""Batch lane vs the legacy per-packet oracle — end-to-end equivalence.

The §VII-C methodology applied to the whole-batch lane: drive the same
columnar workload down the lane and through ``packet_view()`` with the
lane disabled, and require *numerically identical* results — LoadResult
(latency list element for element), runtime stats, NF-visible state and
the audit stream (timestamps excluded).  Covers UDP bulk, TCP lifecycle
traffic, flow-table churn, state-function chains (which pin the lane to
its scalar path), both platforms, and the cluster's sharded batch entry
point.
"""

import pytest

from repro.core.actions import Modify
from repro.core.framework import SpeedyBox
from repro.nf import SyntheticNF
from repro.obs.audit import AuditLog
from repro.obs.span import FlowSpanRecorder
from repro.platform import BessPlatform, OpenNetVMPlatform
from repro.traffic.columnar import batch_from_specs, uniform_batch
from repro.traffic.generator import FlowSpec

PLATFORMS = {"bess": BessPlatform, "onvm": OpenNetVMPlatform}


def modify_chain():
    return [
        SyntheticNF("ttl", action=Modify.ttl_dec(), sf_payload_class=None),
        SyntheticNF("mark", action=Modify.set(dst_port=8080), sf_payload_class=None),
        SyntheticNF("fwd", sf_payload_class=None),
    ]


def stateful_chain():
    # Default sf_payload_class registers a state function per flow: the
    # lane's template guards reject it, forcing the scalar path — which
    # must still be exactly equivalent.
    return [SyntheticNF("dpi"), SyntheticNF("dpi2")]


def run_leg(platform_cls, build_chain, load, sbox_kwargs=None):
    """A ``PacketBatch`` takes the lane; ``batch.packet_view()`` is the oracle."""
    audit = AuditLog()
    runtime = SpeedyBox(build_chain(), audit=audit, **(sbox_kwargs or {}))
    platform = platform_cls(runtime)
    result = platform.run_load(load)
    return result, runtime, audit.events()


def assert_legs_identical(platform_cls, build_chain, batch, sbox_kwargs=None):
    fast, fast_rt, fast_audit = run_leg(platform_cls, build_chain, batch, sbox_kwargs)
    slow, slow_rt, slow_audit = run_leg(
        platform_cls, build_chain, batch.packet_view(), sbox_kwargs
    )
    assert fast == slow
    assert fast_rt.stats() == slow_rt.stats()
    assert fast_audit == slow_audit
    for fast_nf, slow_nf in zip(fast_rt.nfs, slow_rt.nfs):
        assert fast_nf.sf_invocations == slow_nf.sf_invocations, fast_nf.name
        assert fast_nf.payload_writes == slow_nf.payload_writes, fast_nf.name
    return fast, slow


@pytest.mark.parametrize("platform_name", ["bess", "onvm"])
def test_udp_bulk_equivalence(platform_name):
    batch = uniform_batch(64, 6, payload=b"pp", interleave="round_robin", block=16)
    assert_legs_identical(PLATFORMS[platform_name], modify_chain, batch)


@pytest.mark.parametrize("platform_name", ["bess", "onvm"])
def test_sampled_root_spans_carry_the_oracles_sim_times(platform_name):
    """Whichever replay a lane run takes (vector on BESS, scalar on
    ONVM), its sampled roots are stamped like the per-packet oracle's."""
    batch = uniform_batch(8, 6)

    def roots_of(load):
        recorder = FlowSpanRecorder(every=2, max_spans_per_flow=3)
        platform = PLATFORMS[platform_name](SpeedyBox(modify_chain()), spans=recorder)
        platform.run_load(load)
        return recorder.roots()

    lane_roots, oracle_roots = roots_of(batch), roots_of(batch.packet_view())
    assert len(lane_roots) == 12
    for root in lane_roots:
        assert {"sim_arrival_ns", "sim_finish_ns", "sim_latency_ns"} <= set(root["args"])
    assert lane_roots == oracle_roots


@pytest.mark.parametrize("platform_name", ["bess", "onvm"])
def test_tcp_lifecycle_equivalence(platform_name):
    batch = uniform_batch(
        24, 4, protocol="tcp", handshake=True, fin=True, interleave="round_robin"
    )
    assert_legs_identical(PLATFORMS[platform_name], modify_chain, batch)


def test_churn_through_bounded_tables():
    batch = uniform_batch(300, 3, interleave="round_robin", block=32)
    fast, __ = assert_legs_identical(
        BessPlatform,
        modify_chain,
        batch,
        sbox_kwargs=dict(max_tracked_flows=64, max_flows=64),
    )
    assert fast.delivered == len(batch)


def test_stateful_chain_pins_scalar_path():
    batch = uniform_batch(20, 5, payload=b"abc", interleave="round_robin")
    fast, __ = assert_legs_identical(BessPlatform, stateful_chain, batch)
    assert fast.delivered == len(batch)


def test_mixed_specs_shuffled_equivalence():
    specs = [
        FlowSpec.udp("10.1.0.1", "20.0.0.1", 1000, 80, packets=5, payload=b"q"),
        FlowSpec.tcp("10.1.0.2", "20.0.0.1", 1001, 443, packets=3,
                     handshake=True, fin=True),
        FlowSpec.udp("10.1.0.3", "20.0.0.9", 1002, 53, packets=7),
        FlowSpec.tcp("10.1.0.4", "20.0.0.1", 1003, 80, packets=2, handshake=True),
    ]
    batch = batch_from_specs(specs, interleave="shuffled", seed=11)
    assert_legs_identical(BessPlatform, modify_chain, batch)


def test_cluster_batch_matches_per_packet():
    from repro.scale.cluster import ScaleCluster

    def factory():
        return modify_chain()

    batch = uniform_batch(90, 4, interleave="round_robin", block=16)
    lane_cluster = ScaleCluster(factory, platform="bess", replicas=3)
    oracle_cluster = ScaleCluster(factory, platform="bess", replicas=3)

    lane = lane_cluster.run_load_batch(batch)
    oracle = oracle_cluster.run_load(batch.packet_view())

    assert lane.total.offered == oracle.total.offered
    assert lane.total.delivered == oracle.total.delivered
    assert lane.total.dropped == oracle.total.dropped
    assert sorted(lane.total.latencies_ns) == sorted(oracle.total.latencies_ns)
    assert set(lane.per_replica) == set(oracle.per_replica)
    for rid in lane.per_replica:
        assert lane.per_replica[rid].offered == oracle.per_replica[rid].offered, rid
        assert (
            lane.per_replica[rid].delivered == oracle.per_replica[rid].delivered
        ), rid


def test_cluster_batch_rejects_frozen_and_ft():
    from repro.scale.cluster import MigrationError, ScaleCluster

    cluster = ScaleCluster(modify_chain, platform="bess", replicas=2)
    batch = uniform_batch(4, 1)
    cluster._frozen[batch.five_tuple_of(0).canonical()] = []
    with pytest.raises(MigrationError):
        cluster.run_load_batch(batch)
