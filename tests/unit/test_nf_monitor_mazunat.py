"""Unit tests for Monitor and MazuNAT (repro.nf.monitor, repro.nf.mazunat)."""

import pytest

from repro.core.local_mat import NullInstrumentationAPI
from repro.net import FiveTuple, Packet
from repro.net.addresses import ip_to_int, ip_to_str
from repro.nf.mazunat import MazuNAT, NatPortExhausted
from repro.nf.monitor import Monitor


def make_packet(src="10.0.0.1", dst="172.16.0.9", sport=1000, dport=80, payload=b"", fid=1):
    packet = Packet.from_five_tuple(FiveTuple.make(src, dst, sport, dport), payload=payload)
    packet.metadata["fid"] = fid
    return packet


class TestMonitor:
    def test_counts_packets_and_bytes(self):
        monitor = Monitor("m")
        packet = make_packet(payload=b"x" * 10)
        key = packet.five_tuple()
        monitor.process(packet, NullInstrumentationAPI())
        monitor.process(make_packet(payload=b"x" * 10), NullInstrumentationAPI())
        packets, bytes_ = monitor.counters[key]
        assert packets == 2
        assert bytes_ == 2 * packet.byte_length()

    def test_flows_tracked_separately(self):
        monitor = Monitor("m")
        monitor.process(make_packet(sport=1000), NullInstrumentationAPI())
        monitor.process(make_packet(sport=2000), NullInstrumentationAPI())
        assert len(monitor.counters) == 2
        assert monitor.total_packets() == 2

    def test_unseen_flow_reads_zero(self):
        monitor = Monitor("m")
        monitor.process(make_packet(), NullInstrumentationAPI())
        assert FiveTuple.make("9.9.9.9", "8.8.8.8", 1, 2) not in monitor.counters

    def test_reset(self):
        monitor = Monitor("m")
        monitor.process(make_packet(), NullInstrumentationAPI())
        monitor.reset()
        assert monitor.total_packets() == 0


class TestMazuNATOutbound:
    def test_rewrites_source(self):
        nat = MazuNAT("nat", external_ip="203.0.113.1", internal_prefix="10.0.0.0/8")
        packet = make_packet()
        nat.process(packet, NullInstrumentationAPI())
        assert ip_to_str(packet.ip.src_ip) == "203.0.113.1"
        assert packet.l4.src_port >= nat.port_lo
        assert nat.translations == 1

    def test_mapping_is_stable_per_flow(self):
        nat = MazuNAT("nat")
        first = make_packet()
        nat.process(first, NullInstrumentationAPI())
        second = make_packet()
        nat.process(second, NullInstrumentationAPI())
        assert first.l4.src_port == second.l4.src_port

    def test_different_flows_get_different_ports(self):
        nat = MazuNAT("nat")
        a = make_packet(sport=1000)
        b = make_packet(sport=2000)
        nat.process(a, NullInstrumentationAPI())
        nat.process(b, NullInstrumentationAPI())
        assert a.l4.src_port != b.l4.src_port

    def test_port_exhaustion_raises(self):
        nat = MazuNAT("nat", port_range=(10000, 10001))
        nat.process(make_packet(sport=1), NullInstrumentationAPI())
        nat.process(make_packet(sport=2), NullInstrumentationAPI())
        with pytest.raises(NatPortExhausted):
            nat.process(make_packet(sport=3), NullInstrumentationAPI())

    def test_released_port_is_reused(self):
        nat = MazuNAT("nat", port_range=(10000, 10001))
        packet = make_packet(sport=1)
        nat.process(packet, NullInstrumentationAPI())
        original_flow = FiveTuple.make("10.0.0.1", "172.16.0.9", 1, 80)
        assert nat.release_mapping(original_flow)
        nat.process(make_packet(sport=2), NullInstrumentationAPI())
        nat.process(make_packet(sport=3), NullInstrumentationAPI())  # reuses freed port


class TestMazuNATInbound:
    def test_reverse_translation(self):
        nat = MazuNAT("nat", external_ip="203.0.113.1")
        outbound = make_packet()
        nat.process(outbound, NullInstrumentationAPI())
        ext_port = outbound.l4.src_port

        inbound = Packet.from_five_tuple(
            FiveTuple.make("172.16.0.9", "203.0.113.1", 80, ext_port)
        )
        inbound.metadata["fid"] = 2
        nat.process(inbound, NullInstrumentationAPI())
        assert ip_to_str(inbound.ip.dst_ip) == "10.0.0.1"
        assert inbound.l4.dst_port == 1000

    def test_unknown_inbound_forwarded_untranslated(self):
        nat = MazuNAT("nat")
        inbound = Packet.from_five_tuple(FiveTuple.make("172.16.0.9", "203.0.113.1", 80, 5555))
        inbound.metadata["fid"] = 3
        before = inbound.serialize()
        nat.process(inbound, NullInstrumentationAPI())
        assert inbound.serialize() == before

    def test_is_internal(self):
        nat = MazuNAT("nat", internal_prefix="10.0.0.0/8")
        assert nat.is_internal(ip_to_int("10.255.0.1"))
        assert not nat.is_internal(ip_to_int("11.0.0.1"))

    def test_invalid_port_range_rejected(self):
        with pytest.raises(ValueError):
            MazuNAT("nat", port_range=(200, 100))

    def test_reset_clears_mappings(self):
        nat = MazuNAT("nat")
        nat.process(make_packet(), NullInstrumentationAPI())
        nat.reset()
        assert not nat.mappings
        assert not nat.reverse
        assert nat.translations == 0
