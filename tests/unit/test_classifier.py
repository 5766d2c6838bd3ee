"""Unit tests for the Packet Classifier (repro.core.classifier)."""

import pytest

import repro.core.classifier as classifier_module
from repro.core.classifier import (
    FID_BITS,
    FID_SPACE,
    FidSpaceExhausted,
    FlowEntry,
    PacketClassifier,
    fid_of,
)
from repro.net import FiveTuple, Packet, PROTO_UDP
from repro.net.headers import TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN
from repro.platform.costs import CycleMeter, Operation
from tests.integration.helpers import colliding_flows, displaced_index


def tcp_packet(src="10.0.0.1", dst="10.0.0.2", sport=1000, dport=80, flags=TCP_ACK):
    return Packet.from_five_tuple(FiveTuple.make(src, dst, sport, dport), tcp_flags=flags)


class TestFidHash:
    def test_fid_fits_20_bits(self):
        ft = FiveTuple.make("10.0.0.1", "10.0.0.2", 1000, 80)
        assert 0 <= fid_of(ft) < FID_SPACE
        assert FID_BITS == 20

    def test_fid_deterministic(self):
        ft = FiveTuple.make("10.0.0.1", "10.0.0.2", 1000, 80)
        assert fid_of(ft) == fid_of(FiveTuple.make("10.0.0.1", "10.0.0.2", 1000, 80))

    def test_different_flows_usually_differ(self):
        fids = {
            fid_of(FiveTuple.make("10.0.0.1", "10.0.0.2", 1000 + i, 80)) for i in range(200)
        }
        # 200 flows in a 1M-slot space: collisions are possible but the
        # hash must not degenerate.
        assert len(fids) >= 195

    def test_direction_sensitive(self):
        ft = FiveTuple.make("10.0.0.1", "10.0.0.2", 1000, 80)
        assert fid_of(ft) != fid_of(ft.reversed())


class TestClassification:
    def test_attaches_fid_metadata(self):
        classifier = PacketClassifier()
        packet = tcp_packet()
        decision = classifier.classify(packet)
        assert packet.metadata["fid"] == decision.fid

    def test_detach_removes_metadata(self):
        classifier = PacketClassifier()
        packet = tcp_packet()
        classifier.classify(packet)
        classifier.detach(packet)
        assert "fid" not in packet.metadata

    def test_syn_is_handshake_until_established(self):
        classifier = PacketClassifier()
        syn = classifier.classify(tcp_packet(flags=TCP_SYN))
        assert syn.is_handshake
        assert syn.is_handshake
        data = classifier.classify(tcp_packet(flags=TCP_ACK))
        assert not data.is_handshake
        assert not data.is_handshake

    def test_syn_after_establishment_not_handshake(self):
        # Retransmitted SYN on an established flow stays on normal rules.
        classifier = PacketClassifier()
        classifier.classify(tcp_packet(flags=TCP_ACK))
        retrans = classifier.classify(tcp_packet(flags=TCP_SYN))
        assert not retrans.is_handshake

    def test_udp_established_immediately(self):
        classifier = PacketClassifier()
        packet = Packet.from_five_tuple(
            FiveTuple.make("10.0.0.1", "10.0.0.2", 53, 5353, protocol=PROTO_UDP)
        )
        decision = classifier.classify(packet)
        assert not decision.is_handshake
        assert not decision.is_handshake

    def test_fin_marks_closing(self):
        classifier = PacketClassifier()
        classifier.classify(tcp_packet())
        fin = classifier.classify(tcp_packet(flags=TCP_FIN | TCP_ACK))
        assert fin.is_closing

    def test_rst_marks_closing(self):
        classifier = PacketClassifier()
        classifier.classify(tcp_packet())
        rst = classifier.classify(tcp_packet(flags=TCP_RST))
        assert rst.is_closing

    def test_flow_entry_counts_packets(self):
        classifier = PacketClassifier()
        first = classifier.classify(tcp_packet())
        classifier.classify(tcp_packet())
        assert classifier.flow(first.fid).packets == 2

    def test_remove_flow(self):
        classifier = PacketClassifier()
        decision = classifier.classify(tcp_packet())
        assert classifier.remove_flow(decision.fid)
        assert classifier.flow(decision.fid) is None
        assert not classifier.remove_flow(decision.fid)


class TestCollisions:
    """Every live flow owns its FID: a taken home probes forward."""

    def test_flows_on_one_home_probe_to_consecutive_fids(self):
        flows = colliding_flows(16)
        home = fid_of(flows[0])
        classifier = PacketClassifier()
        for position, flow in enumerate(flows):
            meter = CycleMeter()
            decision = classifier.classify(Packet.from_five_tuple(flow), meter)
            assert decision.fid == (home + position) & (FID_SPACE - 1)
            assert decision.entry.probes == position
            assert not decision.is_handshake
            assert meter.counts[Operation.FID_HASH] == 1 + position
        assert len(classifier) == 16
        assert classifier.collisions == sum(range(16))
        assert classifier._displaced == displaced_index(classifier)
        assert len(classifier._displaced) == 15
        # every later packet finds the flow again and pays its probes again
        for position, flow in enumerate(flows):
            meter = CycleMeter()
            packet = Packet.from_five_tuple(flow)
            decision = classifier.classify(packet, meter)
            assert packet.metadata == {"fid": home + position}
            assert decision.entry.packets == 2
            assert meter.counts[Operation.FID_HASH] == 1 + position
            assert classifier.fid_for(flow) == home + position
        assert classifier.collisions == sum(range(16))  # per flow, not per packet

    def test_displaced_flow_outlives_its_homes_owner(self):
        owner, displaced, newcomer = colliding_flows(3)
        home = fid_of(owner)
        classifier = PacketClassifier()
        classifier.classify(Packet.from_five_tuple(owner))
        classifier.classify(Packet.from_five_tuple(displaced))
        assert classifier.remove_flow(home)
        # the home is empty now, and that is not a new flow
        again = classifier.classify(Packet.from_five_tuple(displaced))
        assert (again.fid, again.entry.packets, again.entry.probes) == (home + 1, 2, 1)
        assert len(classifier) == 1
        # a new flow takes the freed home; the displaced one is not re-homed
        fresh = classifier.classify(Packet.from_five_tuple(newcomer))
        assert (fresh.fid, fresh.entry.probes) == (home, 0)
        assert classifier.fid_for(displaced) == home + 1
        assert classifier.fid_for(owner) is None
        assert classifier._displaced == displaced_index(classifier) == {displaced: home + 1}

    def test_removal_and_eviction_forget_the_displaced_index(self):
        flows = colliding_flows(4)
        evicted = []
        classifier = PacketClassifier(capacity=3, on_evict=evicted.append)
        for flow in flows[:3]:
            classifier.classify(Packet.from_five_tuple(flow))
        assert classifier.remove_flow(classifier.fid_for(flows[2]))
        assert classifier._displaced == displaced_index(classifier) == {
            flows[1]: fid_of(flows[0]) + 1
        }
        classifier.classify(Packet.from_five_tuple(flows[2]))
        # full: the next new flow evicts the oldest (the home's owner)
        # *before* it probes, so it lands on the freed home
        decision = classifier.classify(Packet.from_five_tuple(flows[3]))
        assert [entry.five_tuple for entry in evicted] == [flows[0]]
        assert (decision.fid, decision.entry.probes) == (fid_of(flows[0]), 0)
        classifier.classify(Packet.from_five_tuple(flows[0]))  # evicts flows[1]
        assert [entry.five_tuple for entry in evicted] == flows[:2]
        assert classifier._displaced == displaced_index(classifier)
        assert flows[1] not in classifier._displaced

    def test_import_places_the_flow_afresh(self):
        resident, migrant = colliding_flows(2)
        home = fid_of(resident)
        classifier = PacketClassifier()
        classifier.classify(Packet.from_five_tuple(resident))
        entry = FlowEntry(fid=home, five_tuple=migrant, established=True, packets=9)
        assert classifier.import_flow(entry) == home + 1
        assert (entry.fid, entry.probes) == (home + 1, 1)
        assert classifier.flow(home).five_tuple == resident
        assert classifier.collisions == 1
        # importing a five-tuple the table tracks replaces it where it is
        newer = FlowEntry(fid=7, five_tuple=migrant, established=True, packets=11)
        assert classifier.import_flow(newer) == home + 1
        assert classifier.flow(home + 1) is newer and newer.probes == 1
        assert classifier._displaced == displaced_index(classifier)
        assert classifier.collisions == 1

    def test_full_fid_space_is_a_typed_error_before_any_change(self, monkeypatch):
        monkeypatch.setattr(classifier_module, "FID_SPACE", 4)
        fid_of.cache_clear()
        try:
            flows = [FiveTuple.make("10.0.0.1", "10.0.0.2", 1000 + i, 80) for i in range(6)]
            classifier = PacketClassifier()
            for flow in flows[:4]:
                classifier.classify(Packet.from_five_tuple(flow))
            assert sorted(classifier._flows) == [0, 1, 2, 3]  # probing wrapped
            before = (list(classifier._flows.items()), dict(classifier._displaced))
            with pytest.raises(FidSpaceExhausted):
                classifier.classify(Packet.from_five_tuple(flows[4]))
            with pytest.raises(FidSpaceExhausted):
                classifier.import_flow(FlowEntry(fid=0, five_tuple=flows[4]))
            assert (list(classifier._flows.items()), dict(classifier._displaced)) == before
            # a bound no larger than the space evicts instead, so it never fills
            with pytest.raises(ValueError):
                PacketClassifier(capacity=5)
            bounded = PacketClassifier(capacity=4)
            for flow in flows:
                bounded.classify(Packet.from_five_tuple(flow))
            assert len(bounded) == 4 and bounded.evictions == 2
            assert bounded._displaced == displaced_index(bounded)
        finally:
            fid_of.cache_clear()
