"""Shuffled interleave + header boundary-value tests."""

import pytest

from repro.net import FiveTuple, IPv4Header, Packet, TCPHeader, UDPHeader
from repro.net.flow import PROTO_UDP
from repro.traffic import FlowSpec, TrafficGenerator


def specs(n=3, packets=4):
    return [
        FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000 + i, 80, packets=packets, payload=bytes([i]))
        for i in range(n)
    ]


class TestShuffledInterleave:
    def test_per_flow_order_preserved(self):
        packets = TrafficGenerator(specs(), interleave="shuffled", seed=7).packets()
        seqs = {}
        for packet in packets:
            seqs.setdefault(packet.l4.src_port, []).append(packet.l4.seq)
        for port, sequence in seqs.items():
            assert sequence == sorted(sequence), f"flow {port} reordered"

    def test_deterministic_per_seed(self):
        a = TrafficGenerator(specs(), interleave="shuffled", seed=7).packets()
        b = TrafficGenerator(specs(), interleave="shuffled", seed=7).packets()
        assert [p.l4.src_port for p in a] == [p.l4.src_port for p in b]

    def test_different_seeds_differ(self):
        a = TrafficGenerator(specs(5, 6), interleave="shuffled", seed=1).packets()
        b = TrafficGenerator(specs(5, 6), interleave="shuffled", seed=2).packets()
        assert [p.l4.src_port for p in a] != [p.l4.src_port for p in b]

    def test_all_packets_emitted(self):
        generator = TrafficGenerator(specs(4, 5), interleave="shuffled")
        assert len(generator.packets()) == generator.total_packets

    def test_equivalence_holds_under_shuffled_order(self):
        from repro.core.framework import ServiceChain, SpeedyBox
        from repro.nf import MazuNAT, Monitor
        from repro.traffic.generator import clone_packets

        packets = TrafficGenerator(specs(4, 5), interleave="shuffled", seed=11).packets()
        baseline = ServiceChain([MazuNAT("nat"), Monitor("mon")])
        speedybox = SpeedyBox([MazuNAT("nat"), Monitor("mon")])
        base_stream = clone_packets(packets)
        sbox_stream = clone_packets(packets)
        for packet in base_stream:
            baseline.process(packet)
        for packet in sbox_stream:
            speedybox.process(packet)
        for a, b in zip(base_stream, sbox_stream):
            assert a.serialize() == b.serialize()


class TestHeaderBoundaries:
    def test_port_zero_and_max(self):
        ft = FiveTuple.make("0.0.0.0", "255.255.255.255", 0, 65535)
        packet = Packet.from_five_tuple(ft, payload=b"")
        parsed = Packet.parse(packet.serialize())
        assert parsed.five_tuple() == ft

    def test_ttl_boundaries(self):
        header = IPv4Header("1.1.1.1", "2.2.2.2", ttl=0)
        assert IPv4Header.unpack(header.pack()).ttl == 0
        header.ttl = 255
        assert IPv4Header.unpack(header.pack()).ttl == 255

    def test_max_dscp(self):
        header = IPv4Header("1.1.1.1", "2.2.2.2", dscp=63)
        assert IPv4Header.unpack(header.pack()).dscp == 63

    def test_mtu_sized_payload_roundtrip(self):
        ft = FiveTuple.make("10.0.0.1", "10.0.0.2", 1, 2)
        packet = Packet.from_five_tuple(ft, payload=b"\xab" * 1460)
        parsed = Packet.parse(packet.serialize())
        assert parsed.payload == packet.payload
        assert parsed.ip.total_length == 20 + 20 + 1460

    def test_empty_payload_udp_length(self):
        ft = FiveTuple.make("10.0.0.1", "10.0.0.2", 53, 53, protocol=PROTO_UDP)
        packet = Packet.from_five_tuple(ft)
        assert isinstance(packet.l4, UDPHeader)
        assert packet.l4.length == 8

    def test_tcp_seq_ack_wraparound_values(self):
        header = TCPHeader(1, 2, seq=0xFFFFFFFF, ack=0xFFFFFFFF)
        parsed = TCPHeader.unpack(header.pack())
        assert parsed.seq == 0xFFFFFFFF
        assert parsed.ack == 0xFFFFFFFF

    def test_checksum_odd_length_stability(self):
        from tests.integration.helpers import internet_checksum

        data = b"\x01\x02\x03"  # odd length pads with zero
        assert internet_checksum(data) == internet_checksum(data + b"\x00")
