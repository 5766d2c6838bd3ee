"""Unit tests for the SpeedyBox runtime and baseline chain (repro.core.framework)."""

import pytest

from repro.core.actions import Drop, Modify
from repro.core.framework import PathTaken, ServiceChain, SpeedyBox
from repro.nf import DosPrevention, IPFilter, Monitor, SyntheticNF
from repro.nf.ipfilter import AclRule, Verdict
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets
from tests.integration.helpers import total_meter


def flow_packets(packets=5, handshake=False, fin=False, sport=1000, payload=b"data"):
    spec = FlowSpec.tcp(
        "10.0.0.1", "10.0.0.2", sport, 80,
        packets=packets, payload=payload, handshake=handshake, fin=fin,
    )
    return TrafficGenerator([spec]).packets()


class TestServiceChain:
    def test_requires_nfs(self):
        with pytest.raises(ValueError):
            ServiceChain([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            ServiceChain([Monitor("m"), Monitor("m")])

    def test_runs_all_nfs(self):
        chain = ServiceChain([Monitor("m1"), Monitor("m2")])
        report = chain.process(flow_packets(1)[0])
        assert [name for name, __ in report.nf_meters] == ["m1", "m2"]
        assert report.path is PathTaken.ORIGINAL

    def test_stops_at_drop(self):
        fw = IPFilter("fw", rules=[AclRule.make(verdict=Verdict.DROP)])
        chain = ServiceChain([fw, Monitor("m")])
        report = chain.process(flow_packets(1)[0])
        assert report.dropped
        assert [name for name, __ in report.nf_meters] == ["fw"]
        assert chain.nfs[1].total_packets() == 0


class TestSpeedyBoxPaths:
    def test_first_data_packet_is_original_then_fast(self):
        sbox = SpeedyBox([Monitor("m")])
        packets = flow_packets(3)
        paths = [sbox.process(p).path for p in packets]
        assert paths == [PathTaken.ORIGINAL, PathTaken.FAST, PathTaken.FAST]
        assert sbox.slow_packets == 1
        assert sbox.fast_packets == 2

    def test_handshake_packets_stay_slow_and_do_not_arm(self):
        sbox = SpeedyBox([Monitor("m")])
        packets = flow_packets(2, handshake=True)
        paths = [sbox.process(p).path for p in packets]
        assert paths == [PathTaken.ORIGINAL_HANDSHAKE, PathTaken.ORIGINAL, PathTaken.FAST]

    def test_fin_deletes_rules(self):
        sbox = SpeedyBox([Monitor("m")])
        packets = flow_packets(2, fin=True)
        reports = [sbox.process(p) for p in packets]
        assert reports[-1].closing
        fid = reports[0].fid
        assert sbox.global_mat.peek(fid) is None
        assert fid not in sbox.local_mats["m"]
        assert sbox.classifier.flow(fid) is None

    def test_new_flow_after_fin_rebuilds(self):
        sbox = SpeedyBox([Monitor("m")])
        for packet in flow_packets(2, fin=True):
            sbox.process(packet)
        paths = [sbox.process(p).path for p in flow_packets(2)]
        assert paths == [PathTaken.ORIGINAL, PathTaken.FAST]

    def test_distinct_flows_get_distinct_rules(self):
        sbox = SpeedyBox([Monitor("m")])
        for sport in (1000, 1001, 1002):
            for packet in flow_packets(1, sport=sport):
                sbox.process(packet)
        assert len(sbox.global_mat) == 3


class TestSpeedyBoxFastPath:
    def test_fast_path_applies_consolidated_modify(self):
        nf = SyntheticNF("mod", action=Modify.set(dst_port=9999), sf_payload_class=None)
        sbox = SpeedyBox([nf])
        packets = flow_packets(2)
        first = sbox.process(packets[0])
        second = sbox.process(packets[1])
        assert second.path is PathTaken.FAST
        assert packets[1].l4.dst_port == 9999

    def test_fast_path_drop(self):
        fw = IPFilter("fw", rules=[AclRule.make(verdict=Verdict.DROP)])
        sbox = SpeedyBox([fw, Monitor("m")])
        packets = flow_packets(2)
        sbox.process(packets[0])
        report = sbox.process(packets[1])
        assert report.path is PathTaken.FAST
        assert report.dropped
        assert packets[1].dropped

    def test_fast_path_runs_state_functions(self):
        sbox = SpeedyBox([Monitor("m")])
        packets = flow_packets(3)
        for packet in packets:
            sbox.process(packet)
        monitor = sbox.nfs[0]
        assert monitor.total_packets() == 3

    def test_sf_waves_reported(self):
        chain = [SyntheticNF("s1"), SyntheticNF("s2")]  # both READ -> one wave
        sbox = SpeedyBox(chain)
        packets = flow_packets(2)
        sbox.process(packets[0])
        report = sbox.process(packets[1])
        assert len(report.sf_waves) == 1
        assert len(report.sf_waves[0]) == 2

    def test_parallelism_flag_serialises_waves(self):
        chain = [SyntheticNF("s1"), SyntheticNF("s2")]
        sbox = SpeedyBox(chain, enable_parallelism=False)
        packets = flow_packets(2)
        sbox.process(packets[0])
        report = sbox.process(packets[1])
        assert len(report.sf_waves) == 2


class TestSpeedyBoxEvents:
    def test_event_flips_flow_to_drop(self):
        dos = DosPrevention("dos", threshold=3, mode="packets")
        sbox = SpeedyBox([dos])
        packets = flow_packets(8)
        dropped = [sbox.process(p).dropped for p in packets]
        # Packets 1-3 pass (counter 1..3); the post-SF check after packet 4
        # (counter 4 > 3) fires the event; packet 5 onward drop on the
        # fast path.
        assert dropped[0] is False
        assert any(dropped)
        first_drop = dropped.index(True)
        assert all(dropped[first_drop:])
        assert sbox.event_table.total_triggered >= 1

    def test_event_reconsolidates_rule(self):
        dos = DosPrevention("dos", threshold=2, mode="packets")
        sbox = SpeedyBox([dos])
        packets = flow_packets(6)
        fid = None
        for packet in packets:
            report = sbox.process(packet)
            fid = report.fid
        assert sbox.global_mat.peek(fid).version >= 2


class TestSpeedyBoxReset:
    def test_reset_clears_everything(self):
        sbox = SpeedyBox([Monitor("m")])
        for packet in flow_packets(3):
            sbox.process(packet)
        sbox.reset()
        assert sbox.slow_packets == 0
        assert sbox.fast_packets == 0
        assert len(sbox.global_mat) == 0
        assert sbox.nfs[0].total_packets() == 0
        paths = [sbox.process(p).path for p in flow_packets(2)]
        assert paths == [PathTaken.ORIGINAL, PathTaken.FAST]


class TestEquivalenceSmoke:
    def test_total_meter_merges_everything(self):
        sbox = SpeedyBox([Monitor("m")])
        packets = flow_packets(2)
        sbox.process(packets[0])
        report = sbox.process(packets[1])
        total = total_meter(report)
        assert total.cycles(__import__("repro.platform.costs", fromlist=["CostModel"]).CostModel()) > 0

    def test_baseline_and_speedybox_same_outputs(self):
        def build():
            return [Monitor("m"), IPFilter("fw")]

        base = ServiceChain(build())
        sbox = SpeedyBox(build())
        packets = flow_packets(5, handshake=True, fin=True)
        base_packets = clone_packets(packets)
        sbox_packets = clone_packets(packets)
        for packet in base_packets:
            base.process(packet)
        for packet in sbox_packets:
            sbox.process(packet)
        for base_pkt, sbox_pkt in zip(base_packets, sbox_packets):
            assert base_pkt.serialize() == sbox_pkt.serialize()
            assert base_pkt.dropped == sbox_pkt.dropped
