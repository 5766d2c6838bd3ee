"""Property tests: checkpoint/restore round-trips are invisible.

Three claims, over Hypothesis-chosen workloads:

1. :func:`~repro.ft.checkpoint.capture_flow` followed by
   :func:`~repro.ft.checkpoint.restore_flow` onto a fresh runtime yields
   a chain whose per-flow state and continued output match a runtime
   that was never interrupted, at *any* capture point.
2. The whole failover protocol (checkpoint cadence + log replay +
   buffered delivery) stays loss-free, duplicate-free and
   state-identical for arbitrary kill positions, checkpoint intervals
   and replica counts — :func:`verify_equivalence_failover` is the
   oracle.
3. Capture alone is invisible even under table pressure: with the
   classifier and the Global MAT bounded below the live flow count, a
   runtime checkpointed at arbitrary points keeps the same LRU orders,
   evicts the same victims in the same order and reports every packet
   exactly like a twin that was never captured.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.framework import SpeedyBox
from repro.ft import (
    SharedPortPool,
    TransactionalStore,
    capture_flow,
    restore_flow,
    verify_equivalence_failover,
)
from repro.nf import IPFilter, MazuNAT, Monitor
from repro.obs.audit import AuditLog
from repro.scale import ScaleCluster, chain_state_snapshot
from repro.traffic import FlowSpec, TrafficGenerator
from tests.integration.helpers import FID23_PAIR, colliding_flows, report_view

PORTS = (25000, 60000)


def build_chain():
    return [
        MazuNAT("nat", external_ip="203.0.113.66", port_range=PORTS),
        Monitor("mon"),
        IPFilter("fw"),
    ]


def pooled_chain_factory():
    """Replica chains drawing ports from one shared pool, so the cluster
    allocates in global arrival order exactly like the single-box
    reference's private allocator."""
    pool = SharedPortPool(TransactionalStore(), port_range=PORTS)

    def chain():
        return [
            MazuNAT("nat", external_ip="203.0.113.66", port_range=PORTS, port_pool=pool),
            Monitor("mon"),
            IPFilter("fw"),
        ]

    return chain


@st.composite
def workloads(draw):
    """(packets, flow keys) for a small TCP mix with optional teardown."""
    flow_count = draw(st.integers(min_value=1, max_value=5))
    specs = []
    for i in range(flow_count):
        specs.append(
            FlowSpec.tcp(
                f"10.7.{i}.9",
                f"99.4.0.{i + 1}",
                7000 + i,
                draw(st.sampled_from([80, 443, 8080])),
                packets=draw(st.integers(min_value=2, max_value=8)),
                handshake=draw(st.booleans()),
                fin=draw(st.booleans()),
            )
        )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    packets = TrafficGenerator(specs, interleave="round_robin", seed=seed).packets()
    return packets, sorted({p.five_tuple().canonical() for p in packets})


@settings(max_examples=40, deadline=None)
@given(data=st.data(), case=workloads())
def test_capture_restore_roundtrip_matches_uninterrupted_run(data, case):
    packets, flows = case
    cut = data.draw(
        st.integers(min_value=1, max_value=len(packets) - 1), label="cut"
    )

    source = SpeedyBox(build_chain())
    reference = SpeedyBox(build_chain())
    for packet in packets[:cut]:
        source.process(packet.clone())
        reference.process(packet.clone())

    target = SpeedyBox(build_chain())
    restored_any = False
    for flow in flows:
        checkpoint = capture_flow(source, flow)
        if checkpoint is not None:
            restore_flow(checkpoint, target, list(source.nfs))
            restored_any = True

    runtime = target if restored_any else reference
    tgt_stream = [p.clone() for p in packets[cut:]]
    ref_stream = [p.clone() for p in packets[cut:]]
    for tgt_pkt, ref_pkt in zip(tgt_stream, ref_stream):
        if restored_any:
            target.process(tgt_pkt)
        reference.process(ref_pkt)
    if restored_any:
        for tgt_pkt, ref_pkt in zip(tgt_stream, ref_stream):
            assert tgt_pkt.dropped == ref_pkt.dropped
            if not tgt_pkt.dropped:
                assert tgt_pkt.serialize() == ref_pkt.serialize()
        for flow in flows:
            assert chain_state_snapshot(runtime.nfs, flow) == chain_state_snapshot(
                reference.nfs, flow
            )


@settings(max_examples=15, deadline=None)
@given(data=st.data(), case=workloads())
def test_failover_is_equivalent_for_arbitrary_schedules(data, case):
    packets, flows = case
    # Byte-identity is promised for flows established before the kill
    # (see verify_equivalence_failover); with round-robin interleave
    # every flow has sent its first packet after len(flows) arrivals.
    kill_at = data.draw(
        st.integers(min_value=len(flows), max_value=len(packets) - 1),
        label="kill_at",
    )
    interval = data.draw(
        st.sampled_from([1, 3, 8, 64, 10 * len(packets)]), label="interval"
    )
    replicas = data.draw(st.integers(min_value=2, max_value=4), label="replicas")
    recover_after = data.draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=len(packets))),
        label="recover_after",
    )
    report = verify_equivalence_failover(
        build_chain,
        packets,
        kill_at=kill_at,
        cluster_chain_factory=pooled_chain_factory(),
        replicas=replicas,
        checkpoint_interval=interval,
        recover_after=recover_after,
    )
    assert report.equivalent, report.summary()
    assert report.buffered_packets == report.delivered_packets


@st.composite
def bounded_tables(draw):
    """Table bounds that bite: each at most the workload's flow count."""
    return {
        "max_flows": draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4))),
        "max_tracked_flows": draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=5))
        ),
    }


@settings(max_examples=40, deadline=None)
@given(data=st.data(), case=workloads(), bounds=bounded_tables())
def test_capture_is_invisible_under_bounded_tables(data, case, bounds):
    packets, flows = case
    capture_after = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(packets) - 1), max_size=6),
        label="capture_after",
    )
    audit_cap, audit_twin = AuditLog(), AuditLog()
    captured = SpeedyBox(build_chain(), audit=audit_cap, **bounds)
    twin = SpeedyBox(build_chain(), audit=audit_twin, **bounds)

    for index, packet in enumerate(packets):
        cap_pkt, twin_pkt = packet.clone(), packet.clone()
        assert report_view(captured.process(cap_pkt)) == report_view(
            twin.process(twin_pkt)
        )
        assert cap_pkt.dropped == twin_pkt.dropped
        if not cap_pkt.dropped:
            assert cap_pkt.serialize() == twin_pkt.serialize()
        if index in capture_after:
            for flow in flows:
                capture_flow(captured, flow)
        assert captured.global_mat.flows() == twin.global_mat.flows()
        assert list(captured.classifier._flows) == list(twin.classifier._flows)

    # one journal: every insert, rebuild, eviction, compile and
    # invalidation in the same order — a capture writes nothing
    assert audit_cap.events() == audit_twin.events()
    assert captured.stats() == twin.stats()


# -- restoring into an occupied FID (the pair whose hash is 23) -----------------


def stateless_nat_free_chain():
    """No NAT: two runtimes that never met must not race for one port."""
    return [Monitor("mon"), IPFilter("fw")]


def pair_packets(flow, count):
    return TrafficGenerator([FlowSpec(flow, packets=count, payload=b"x" * 14)]).packets()


def test_restore_into_an_occupied_fid_keeps_both_flows():
    """The target already tracks a live flow on the checkpointed flow's
    home FID: the restored flow is placed on the next free FID, its
    record re-keyed, and carries on where the checkpoint left it."""
    migrant, resident = FID23_PAIR
    source = SpeedyBox(stateless_nat_free_chain())
    reference = SpeedyBox(stateless_nat_free_chain())
    target = SpeedyBox(stateless_nat_free_chain())
    for packet in pair_packets(migrant, 4):
        source.process(packet.clone())
        reference.process(packet.clone())
    for packet in pair_packets(resident, 3):
        target.process(packet)
    resident_state = chain_state_snapshot(target.nfs, resident)
    resident_rule = target.global_mat.peek(23)

    checkpoint = capture_flow(source, migrant)
    restore_flow(checkpoint, target, list(source.nfs))
    assert checkpoint.records[0].fid == 23  # the stored copy keeps the source's FID
    assert target.classifier.fid_for(migrant) == 24
    assert target.classifier.fid_for(resident) == 23
    assert target.peek_flow(24).global_rule.fid == 24
    assert target.global_mat.peek(23) is resident_rule
    assert chain_state_snapshot(target.nfs, resident) == resident_state

    for packet in pair_packets(migrant, 3):
        tgt_report = target.process(packet.clone())
        ref_report = reference.process(packet.clone())
        assert tgt_report.is_fast and ref_report.is_fast
        assert (tgt_report.fid, ref_report.fid) == (24, 23)
    assert chain_state_snapshot(target.nfs, migrant) == chain_state_snapshot(
        reference.nfs, migrant
    )
    assert target.stats()["fid_collisions"] == 1  # one probe step, counted once


def test_failover_restores_beside_a_flow_on_the_same_home_fid():
    """Two replicas, each homing flows that hash to one FID: whichever
    dies, its flows are restored onto a survivor that already holds that
    FID (and its successors), so every restore probes and re-keys."""
    flows = colliding_flows(8)
    probe = ScaleCluster(stateless_nat_free_chain, replicas=2)
    assert {probe.home_of(flow) for flow in flows} == {0, 1}
    specs = [FlowSpec(flow, packets=12, payload=b"pair") for flow in flows]
    specs += [
        FlowSpec.tcp("10.7.0.9", "99.4.0.1", 7000, 80, packets=12, handshake=True)
    ]
    packets = TrafficGenerator(specs, interleave="round_robin").packets()
    for kill_replica in (0, 1):
        audit = AuditLog()
        report = verify_equivalence_failover(
            stateless_nat_free_chain,
            packets,
            kill_at=60,
            replicas=2,
            checkpoint_interval=4,
            kill_replica=kill_replica,
            audit=audit,
        )
        assert report.equivalent, report.summary()
        assert report.buffered_packets == report.delivered_packets
        # every colliding flow the dead replica homed came back from a
        # checkpoint, onto the replica that holds the rest of them
        homed = sum(1 for flow in flows if probe.home_of(flow) == kill_replica)
        restores = [event for event in audit.events() if event["kind"] == "ft_restore"]
        assert len(restores) == report.flows_restored >= homed > 0
