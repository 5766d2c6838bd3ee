"""Checkpoint capture/restore, the packet log, and the fault injector.

Capture must be invisible (the flow keeps running, identical to a twin
runtime that was never captured); restore must install the full snapshot
onto a fresh runtime with handlers resolved there; the log must stay bounded
and the injector deterministic on the packet-index clock.
"""

import pytest

from repro.core.classifier import fid_of
from repro.core.framework import SpeedyBox
from repro.ft import (
    FaultInjector,
    FaultTolerance,
    PacketLog,
    capture_flow,
    restore_flow,
)
from repro.net.flow import FiveTuple
from repro.nf import IPFilter, MaglevLoadBalancer, MazuNAT, Monitor, SnortIDS
from repro.nf.maglev import Backend
from repro.obs.audit import AuditLog
from repro.scale import MigrationError, ScaleCluster, chain_state_snapshot
from repro.traffic import FlowSpec, TrafficGenerator
from tests.integration.helpers import (
    assert_handlers_resolved_on,
    recorded_handlers,
    report_view,
)


def build_chain():
    return [
        MazuNAT("nat", external_ip="203.0.113.50", port_range=(30000, 60000)),
        Monitor("mon"),
        IPFilter("fw"),
    ]


def trace(flows=4, packets=6, seed=5, interleave="round_robin"):
    specs = [
        FlowSpec.tcp(
            f"10.9.{i}.4", f"99.1.0.{i + 1}", 5000 + i, 443, packets=packets
        )
        for i in range(flows)
    ]
    return TrafficGenerator(specs, interleave=interleave, seed=seed).packets()


def snapshots_for_replica(manager, replica_id):
    return [
        checkpoint
        for checkpoint in manager._snapshots.values()
        if checkpoint.replica_id == replica_id
    ]


def entries_after(log, seq):
    """Entries newer than ``seq``, in arrival order."""
    return [entry for entry in log.entries() if entry.seq > seq]


class TestCaptureFlow:
    def test_capture_is_invisible_to_the_flow(self):
        """A captured runtime and a never-captured twin stay identical."""
        captured = SpeedyBox(build_chain())
        twin = SpeedyBox(build_chain())
        packets = trace()
        half = len(packets) // 2
        for packet in packets[:half]:
            captured.process(packet.clone())
            twin.process(packet.clone())

        flows = sorted({p.five_tuple().canonical() for p in packets})
        checkpoints = [capture_flow(captured, flow) for flow in flows]
        assert any(cp is not None for cp in checkpoints)

        cap_stream = [p.clone() for p in packets[half:]]
        twin_stream = [p.clone() for p in packets[half:]]
        for cap_pkt, twin_pkt in zip(cap_stream, twin_stream):
            captured.process(cap_pkt)
            twin.process(twin_pkt)
        for cap_pkt, twin_pkt in zip(cap_stream, twin_stream):
            assert cap_pkt.dropped == twin_pkt.dropped
            if not cap_pkt.dropped:
                assert cap_pkt.serialize() == twin_pkt.serialize()
        for flow in flows:
            assert chain_state_snapshot(captured.nfs, flow) == chain_state_snapshot(
                twin.nfs, flow
            )

    def test_capture_under_bounded_tables_matches_a_never_captured_twin(self):
        """Regression: capture used to pop and re-insert every flow's
        classifier entry and Global MAT rule in sorted-key order, so a
        checkpointed runtime under table pressure evicted other victims
        than its twin.  Reading in place leaves both LRU orders alone."""
        bounds = dict(max_flows=3, max_tracked_flows=4)
        audit_cap, audit_twin = AuditLog(), AuditLog()
        captured = SpeedyBox(build_chain(), audit=audit_cap, **bounds)
        twin = SpeedyBox(build_chain(), audit=audit_twin, **bounds)
        packets = trace(flows=6, packets=8, seed=11, interleave="shuffled")
        flows = sorted({p.five_tuple().canonical() for p in packets})

        for index, packet in enumerate(packets):
            cap_report = captured.process(packet.clone())
            twin_report = twin.process(packet.clone())
            assert report_view(cap_report) == report_view(twin_report), index
            if index % 3 == 2:
                for flow in flows:
                    capture_flow(captured, flow)
            assert captured.global_mat.flows() == twin.global_mat.flows(), index
            assert list(captured.classifier._flows) == list(twin.classifier._flows), index

        def evictions(audit):
            return [
                (event["kind"], event["fid"])
                for event in audit.events()
                if event["kind"] in ("global_mat_evict", "classifier_evict")
            ]

        assert evictions(audit_twin), "the bounds must actually bite"
        assert evictions(audit_cap) == evictions(audit_twin)
        assert captured.stats() == twin.stats()

    def test_capture_leaves_compiled_lane_and_audit_journal_untouched(self):
        """Regression: capture used to drop the flow's compiled lane and
        journal a fastpath_invalidate / fastpath_compile pair per flow."""
        audit = AuditLog()
        runtime = SpeedyBox(build_chain(), audit=audit)
        packets = trace(flows=3, packets=6)
        for packet in packets[:12]:
            runtime.process(packet)
        flows = sorted({p.five_tuple().canonical() for p in packets})
        compiled = dict(runtime._compiled)
        compiled_fids = dict(runtime._compiled_fids)
        assert compiled, "flows must be on the compiled lane before capture"
        journal = len(audit)

        for flow in flows:
            assert capture_flow(runtime, flow) is not None

        assert len(audit) == journal
        assert runtime._compiled == compiled
        assert all(runtime._compiled[key] is lane for key, lane in compiled.items())
        assert runtime._compiled_fids == compiled_fids
        # ... and the next packets stay on those lanes: nothing recompiles
        for packet in packets[12:]:
            runtime.process(packet)
        assert not [
            event
            for event in audit.events()[journal:]
            if event["kind"] in ("fastpath_compile", "fastpath_invalidate")
        ]

    def test_peek_flow_reads_what_export_flow_detaches(self):
        runtime = SpeedyBox(build_chain())
        packets = trace(flows=1, packets=6)
        fid = fid_of(packets[0].five_tuple())  # before the NAT rewrites it
        for packet in packets[:4]:
            runtime.process(packet)
        peeked = runtime.peek_flow(fid)
        assert peeked is not None and peeked.global_rule is not None
        assert runtime.peek_flow(fid) == peeked  # reading twice changes nothing
        exported = runtime.export_flow(fid)
        assert exported == peeked  # same live rows, field by field
        assert exported.global_rule is peeked.global_rule
        assert runtime.peek_flow(fid) is None
        assert fid not in runtime.global_mat

    def test_capture_returns_none_for_unknown_flow(self):
        runtime = SpeedyBox(build_chain())
        ghost = FiveTuple(1, 2, 3, 4, 6)
        assert capture_flow(runtime, ghost) is None

    def test_checkpoint_is_detached_from_the_source(self):
        """Mutating the source after capture does not touch the snapshot."""
        runtime = SpeedyBox(build_chain())
        packets = trace(flows=1)
        for packet in packets[:4]:
            runtime.process(packet)
        flow = packets[0].five_tuple().canonical()
        checkpoint = capture_flow(runtime, flow)
        before = [state for __, __, state in checkpoint.nf_states]
        for packet in packets[4:]:
            runtime.process(packet)  # moves monitor counters on the source
        assert [state for __, __, state in checkpoint.nf_states] == before


NF_STATE_OWNERS = {
    "mazunat": lambda: MazuNAT("nat", external_ip="203.0.113.50", port_range=(30000, 60000)),
    "monitor": lambda: Monitor("mon"),
    "ipfilter": lambda: IPFilter("fw"),
    "maglev": lambda: MaglevLoadBalancer(
        "lb", backends=[Backend.make("b0", "192.168.7.1", 8080)], table_size=131
    ),
    "snort": lambda: SnortIDS(
        "snort", 'alert tcp any any -> any 443 (msg:"x"; content:"x"; sid:1;)'
    ),
}


@pytest.mark.parametrize("make_nf", NF_STATE_OWNERS.values(), ids=NF_STATE_OWNERS.keys())
def test_exported_nf_state_is_an_immutable_value(make_nf):
    """A checkpoint stores the very value it hands back to the live NF,
    so every exported per-flow state must be immutable (hashable)."""
    runtime = SpeedyBox([make_nf()])
    packets = trace(flows=1)
    for packet in packets:
        runtime.process(packet.clone())
    (nf,) = runtime.nfs
    state = nf.export_flow_state(packets[0].five_tuple())
    assert state is not None
    hash(state)


class TestRestoreFlow:
    def test_restore_onto_fresh_runtime_reproduces_state_and_output(self):
        source = SpeedyBox(build_chain())
        reference = SpeedyBox(build_chain())
        packets = trace(flows=1, packets=8)
        half = len(packets) // 2
        for packet in packets[:half]:
            source.process(packet.clone())
            reference.process(packet.clone())
        flow = packets[0].five_tuple().canonical()
        checkpoint = capture_flow(source, flow)

        target = SpeedyBox(build_chain())
        restore_flow(checkpoint, target)
        # every handler the import installed is a method of the target's
        # NFs — monitor's count_packet at minimum
        restored = [target.peek_flow(fid) for fid in target.classifier._flows]
        assert ("mon", "count_packet") in {
            handler[:2] for record in restored for handler in recorded_handlers(record)
        }
        for record in restored:
            assert_handlers_resolved_on(target, record)
        assert chain_state_snapshot(target.nfs, flow) == chain_state_snapshot(
            reference.nfs, flow
        )

        # the restored flow continues exactly like the uninterrupted one
        tgt_stream = [p.clone() for p in packets[half:]]
        ref_stream = [p.clone() for p in packets[half:]]
        for tgt_pkt, ref_pkt in zip(tgt_stream, ref_stream):
            target.process(tgt_pkt)
            reference.process(ref_pkt)
            assert tgt_pkt.dropped == ref_pkt.dropped
            if not tgt_pkt.dropped:
                assert tgt_pkt.serialize() == ref_pkt.serialize()
        assert chain_state_snapshot(target.nfs, flow) == chain_state_snapshot(
            reference.nfs, flow
        )

    def test_restored_handlers_bind_to_target_nfs(self):
        """Replayed packets on the target must update the *target's*
        monitor, not reach back into the source chain."""
        source = SpeedyBox(build_chain())
        packets = trace(flows=1, packets=6)
        for packet in packets[:4]:
            source.process(packet.clone())
        flow = packets[0].five_tuple().canonical()
        checkpoint = capture_flow(source, flow)
        target = SpeedyBox(build_chain())
        restore_flow(checkpoint, target)

        source_total = source.nfs[1].total_packets()
        target.process(packets[4].clone())
        assert source.nfs[1].total_packets() == source_total
        assert target.nfs[1].total_packets() > 0

    @pytest.mark.parametrize(
        "target_chain",
        [
            lambda: build_chain()[:2],  # shorter chain
            lambda: [build_chain()[0], IPFilter("mon"), IPFilter("fw")],  # NF type
            lambda: [build_chain()[0], Monitor("counter"), build_chain()[2]],  # name
        ],
        ids=["length", "type", "name"],
    )
    def test_restore_rejects_a_mismatched_chain(self, target_chain):
        """zip() over unequal chains used to truncate silently and bind
        the flow's handlers to the wrong NFs."""
        source = SpeedyBox(build_chain())
        packets = trace(flows=1)
        for packet in packets[:4]:
            source.process(packet.clone())
        checkpoint = capture_flow(source, packets[0].five_tuple().canonical())
        target = SpeedyBox(target_chain())
        with pytest.raises(MigrationError, match="replica chains differ"):
            restore_flow(checkpoint, target)
        assert len(target.classifier) == 0  # nothing half-installed

    def test_checkpoint_is_reusable_after_restore(self):
        source = SpeedyBox(build_chain())
        packets = trace(flows=1)
        for packet in packets[:4]:
            source.process(packet.clone())
        flow = packets[0].five_tuple().canonical()
        checkpoint = capture_flow(source, flow)
        first = SpeedyBox(build_chain())
        second = SpeedyBox(build_chain())
        restore_flow(checkpoint, first)
        restore_flow(checkpoint, second)
        assert chain_state_snapshot(first.nfs, flow) == chain_state_snapshot(
            second.nfs, flow
        )


class TestSnapshotReplica:
    def test_round_captures_only_that_replicas_flows_in_sorted_order(self, monkeypatch):
        import repro.ft.checkpoint as checkpoint_module

        audit = AuditLog()
        cluster = ScaleCluster(build_chain, replicas=2, audit=audit)
        ft = FaultTolerance(cluster, checkpoint_interval=10_000)
        for packet in trace(flows=8, packets=4):
            cluster.process(packet)
        homes = cluster.flow_homes()
        assert set(homes.values()) == {0, 1}, "both replicas must home flows"

        order = []
        real_capture = checkpoint_module.capture_flow

        def spy(runtime, flow, **kwargs):
            order.append(flow)
            return real_capture(runtime, flow, **kwargs)

        monkeypatch.setattr(checkpoint_module, "capture_flow", spy)
        captured = ft.checkpoints.snapshot_replica(1, log_seq=7, cause="manual")

        assert order == sorted(order)
        assert all(homes[key] == 1 for key in order)
        assert sorted(cluster.flows_homed_on(1)) == sorted(
            key for key, home in homes.items() if home == 1
        )
        event = audit.last("ft_checkpoint")
        assert {k: event[k] for k in ("replica", "flows", "log_seq", "cause")} == {
            "replica": 1,
            "flows": captured,
            "log_seq": 7,
            "cause": "manual",
        }
        assert captured == len(snapshots_for_replica(ft.checkpoints, 1)) > 0


class TestPacketLog:
    def test_appends_clone_and_sequence(self):
        log = PacketLog(capacity=8)
        packets = trace(flows=1, packets=3)
        seqs = [log.append(packet, packet.five_tuple().canonical()) for packet in packets[:3]]
        assert seqs == [1, 2, 3]
        assert log.last_seq == 3
        # the log holds clones: mutating the original leaves them alone
        entry = log.entries()[0]
        assert entry.packet is not packets[0]
        assert entry.key == packets[0].five_tuple().canonical()

    def test_trim_drops_only_older_entries(self):
        log = PacketLog(capacity=8)
        for packet in trace(flows=1, packets=5)[:5]:
            log.append(packet, packet.five_tuple().canonical())
        assert log.trim(3) == 3
        assert [entry.seq for entry in log.entries()] == [4, 5]
        assert [entry.seq for entry in entries_after(log, 4)] == [5]
        assert log.trimmed == 3

    def test_pressure_hook_fires_before_overflow(self):
        calls = []
        log = PacketLog(capacity=3, on_full=lambda: calls.append(log.last_seq))
        packets = trace(flows=1, packets=6)
        for packet in packets[:3]:
            log.append(packet, packet.five_tuple().canonical())
        assert not calls
        log.append(packets[3], packets[3].five_tuple().canonical())  # would overflow: hook fires first
        assert calls == [3]

    def test_overflow_without_hook_drops_oldest(self):
        log = PacketLog(capacity=2)
        for packet in trace(flows=1, packets=4)[:3]:
            log.append(packet, packet.five_tuple().canonical())
        assert [entry.seq for entry in log.entries()] == [2, 3]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PacketLog(capacity=0)


class TestFaultInjector:
    def test_kill_fires_once_at_index(self):
        injector = FaultInjector(kill_at=2)
        assert [injector.tick() for __ in range(5)] == [
            None, None, "kill", None, None,
        ]
        assert injector.kill_index == 2

    def test_recover_after_fires_once(self):
        injector = FaultInjector(kill_at=1, recover_after=2)
        assert [injector.tick() for __ in range(6)] == [
            None, "kill", None, "recover", None, None,
        ]

    def test_unarmed_injector_never_fires(self):
        injector = FaultInjector()
        assert all(injector.tick() is None for __ in range(10))
        assert injector.packet_index == 10

    def test_rejects_negative_schedule(self):
        with pytest.raises(ValueError):
            FaultInjector(kill_at=-1)
        with pytest.raises(ValueError):
            FaultInjector(kill_at=1, recover_after=-2)
