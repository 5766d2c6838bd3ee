"""Unit tests for the packet substrate (repro.net)."""

import pytest

from repro.core.actions import Decap
from repro.net import (
    AuthenticationHeader,
    EthernetHeader,
    FiveTuple,
    IPv4Header,
    MACAddress,
    Packet,
    PacketField,
    PROTO_TCP,
    PROTO_UDP,
    TCP_FIN,
    TCP_SYN,
    TCPHeader,
    UDPHeader,
    VxlanHeader,
    ip_to_int,
    ip_to_str,
)
from tests.integration.helpers import checksum_valid, internet_checksum


class TestAddresses:
    def test_ip_roundtrip(self):
        assert ip_to_str(ip_to_int("192.168.1.7")) == "192.168.1.7"

    def test_ip_int_passthrough(self):
        assert ip_to_int(0x0A000001) == 0x0A000001

    def test_ip_invalid_string(self):
        with pytest.raises(ValueError):
            ip_to_int("256.0.0.1")
        with pytest.raises(ValueError):
            ip_to_int("10.0.0")

    def test_ip_int_out_of_range(self):
        with pytest.raises(ValueError):
            ip_to_int(2**32)
        with pytest.raises(ValueError):
            ip_to_str(-1)

    def test_mac_roundtrip(self):
        mac = MACAddress("de:ad:be:ef:00:01")
        assert str(mac) == "de:ad:be:ef:00:01"
        assert MACAddress.from_bytes(mac.to_bytes()) == mac

    def test_mac_invalid(self):
        with pytest.raises(ValueError):
            MACAddress("de:ad:be:ef:00")
        with pytest.raises(ValueError):
            MACAddress(2**48)


class TestFiveTuple:
    def test_make_and_str(self):
        ft = FiveTuple.make("10.0.0.1", "10.0.0.2", 1234, 80)
        assert ft.protocol == PROTO_TCP
        assert "10.0.0.1:1234" in str(ft)

    def test_reversed_is_involution(self):
        ft = FiveTuple.make("10.0.0.1", "10.0.0.2", 1234, 80)
        assert ft.reversed().reversed() == ft

    def test_canonical_direction_independent(self):
        ft = FiveTuple.make("10.0.0.9", "10.0.0.2", 1234, 80)
        assert ft.canonical() == ft.reversed().canonical()

    def test_port_validation(self):
        with pytest.raises(ValueError):
            FiveTuple.make("10.0.0.1", "10.0.0.2", 70000, 80)


class TestHeaders:
    def test_internet_checksum_verifies(self):
        header = IPv4Header("10.1.2.3", "10.4.5.6", total_length=40)
        header.refresh_checksum()
        assert checksum_valid(header)

    def test_checksum_detects_corruption(self):
        header = IPv4Header("10.1.2.3", "10.4.5.6", total_length=40)
        header.refresh_checksum()
        header.dst_ip = ip_to_int("10.4.5.7")
        assert not checksum_valid(header)

    def test_ipv4_pack_unpack_roundtrip(self):
        header = IPv4Header("172.16.0.1", "172.16.0.2", protocol=17, ttl=33, dscp=10, identification=77)
        header.total_length = 60
        header.refresh_checksum()
        parsed = IPv4Header.unpack(header.pack())
        assert parsed == header

    def test_tcp_pack_unpack_roundtrip(self):
        header = TCPHeader(4321, 443, seq=100, ack=200, flags=TCP_SYN, window=1024)
        assert TCPHeader.unpack(header.pack()) == header

    def test_tcp_flags(self):
        header = TCPHeader(1, 2, flags=TCP_SYN | TCP_FIN)
        assert header.has_flag(TCP_SYN)
        assert header.has_flag(TCP_FIN)
        assert not header.has_flag(0x10)

    def test_udp_roundtrip(self):
        header = UDPHeader(53, 5353, length=28)
        assert UDPHeader.unpack(header.pack()) == header

    def test_eth_roundtrip(self):
        header = EthernetHeader(MACAddress("02:00:00:00:00:02"), MACAddress("02:00:00:00:00:01"))
        assert EthernetHeader.unpack(header.pack()) == header

    def test_ah_roundtrip(self):
        header = AuthenticationHeader(next_header=6, spi=0xDEADBEEF, sequence=9, icv=123456)
        assert AuthenticationHeader.unpack(header.pack()) == header

    def test_vxlan_roundtrip(self):
        header = VxlanHeader(vni=0xABCDE)
        assert VxlanHeader.unpack(header.pack()) == header

    def test_vxlan_vni_range(self):
        with pytest.raises(ValueError):
            VxlanHeader(vni=1 << 24)

    def test_truncated_headers_rejected(self):
        with pytest.raises(ValueError):
            IPv4Header.unpack(b"\x45\x00")
        with pytest.raises(ValueError):
            TCPHeader.unpack(b"\x00" * 10)


class TestPacket:
    def make_packet(self, payload=b"hello"):
        ft = FiveTuple.make("10.0.0.1", "10.0.0.2", 1234, 80)
        return Packet.from_five_tuple(ft, payload=payload)

    def test_five_tuple_reflects_headers(self):
        packet = self.make_packet()
        ft = packet.five_tuple()
        assert ip_to_str(ft.src_ip) == "10.0.0.1"
        assert ft.dst_port == 80

    def test_udp_packet_synthesis(self):
        ft = FiveTuple.make("10.0.0.1", "10.0.0.2", 53, 5353, protocol=PROTO_UDP)
        packet = Packet.from_five_tuple(ft, payload=b"x" * 10)
        assert isinstance(packet.l4, UDPHeader)
        assert packet.l4.length == 18

    def test_byte_length_accounts_everything(self):
        packet = self.make_packet(payload=b"x" * 26)
        assert packet.byte_length() == 14 + 20 + 20 + 26

    def test_field_read_write(self):
        packet = self.make_packet()
        PacketField.DST_IP.write(packet, ip_to_int("9.9.9.9"))
        assert ip_to_str(PacketField.DST_IP.read(packet)) == "9.9.9.9"
        PacketField.DST_PORT.write(packet, 8080)
        assert packet.l4.dst_port == 8080

    def test_field_validation(self):
        packet = self.make_packet()
        with pytest.raises(ValueError):
            PacketField.TTL.write(packet, 300)
        with pytest.raises(ValueError):
            PacketField.DSCP.write(packet, 64)

    def test_finalisation_fields_flagged(self):
        assert PacketField.TTL.is_finalisation_field
        assert PacketField.SRC_MAC.is_finalisation_field
        assert not PacketField.DST_IP.is_finalisation_field
        assert not PacketField.DST_PORT.is_finalisation_field

    def test_encap_stack_lifo(self):
        packet = self.make_packet()
        ah = AuthenticationHeader(spi=1)
        vxlan = VxlanHeader(vni=5)
        packet.push_encap(ah)
        packet.push_encap(vxlan)
        assert packet.pop_encap() is vxlan
        assert packet.pop_encap() is ah
        with pytest.raises(ValueError):
            packet.pop_encap()

    def test_drop_sets_flag(self):
        packet = self.make_packet()
        packet.drop()
        assert packet.dropped

    def test_clone_is_independent(self):
        packet = self.make_packet()
        packet.metadata["fid"] = 7
        copy = packet.clone()
        PacketField.DST_IP.write(copy, ip_to_int("1.1.1.1"))
        copy.metadata["fid"] = 9
        assert ip_to_str(packet.ip.dst_ip) == "10.0.0.2"
        assert packet.metadata["fid"] == 7

    def test_serialize_parse_roundtrip(self):
        packet = self.make_packet(payload=b"payload-bytes")
        parsed = Packet.parse(packet.serialize())
        assert parsed.five_tuple() == packet.five_tuple()
        assert parsed.payload == packet.payload
        assert checksum_valid(parsed.ip)

    def test_serialize_parse_roundtrip_with_ah(self):
        packet = self.make_packet(payload=b"secret")
        packet.push_encap(AuthenticationHeader(next_header=PROTO_TCP, spi=0x10, sequence=3))
        parsed = Packet.parse(packet.serialize())
        assert len(parsed.encaps) == 1
        assert parsed.encaps[0].spi == 0x10
        assert parsed.five_tuple() == packet.five_tuple()

    @pytest.mark.parametrize("protocol", [PROTO_TCP, PROTO_UDP], ids=["tcp", "udp"])
    def test_a_decapped_packet_serializes_its_l4_protocol(self, protocol):
        """An AH-carrying packet decapped (``Decap(AuthenticationHeader)``)
        leaves with the L4 protocol again, and its bytes parse back."""
        ft = FiveTuple.make("10.0.0.1", "10.0.0.2", 1234, 80, protocol=protocol)
        packet = Packet.from_five_tuple(ft, payload=b"inner")
        packet.push_encap(AuthenticationHeader(next_header=protocol, spi=0x10))
        assert Packet.parse(packet.serialize()).ip.protocol == 51
        Decap(AuthenticationHeader).apply(packet)
        parsed = Packet.parse(packet.serialize())
        assert packet.ip.protocol == parsed.ip.protocol == protocol
        assert not parsed.encaps and parsed.payload == b"inner"
        assert parsed.five_tuple() == ft
        assert checksum_valid(parsed.ip)

    def test_every_truncation_of_a_frame_is_refused(self):
        """A 60-byte TCP frame parses whole; each of its 59 truncations
        raises, the ones that keep every header (54-59 bytes) too: a
        frame shorter than its IPv4 total length is not a packet."""
        wire = self.make_packet(payload=b"x" * 6).serialize()
        assert len(wire) == 60
        assert Packet.parse(wire).payload == b"x" * 6
        for length in range(1, len(wire)):
            with pytest.raises(ValueError):
                Packet.parse(wire[:length])

    def test_serialize_sets_total_length(self):
        packet = self.make_packet(payload=b"x" * 100)
        packet.serialize()
        assert packet.ip.total_length == 20 + 20 + 100

    def test_repr_mentions_drop(self):
        packet = self.make_packet()
        packet.drop()
        assert "DROPPED" in repr(packet)

    def test_internet_checksum_known_vector(self):
        # Classic RFC 1071 example.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D


class TestSharedDefaultMacs:
    """Every packet's default Ethernet header shares two MACAddress
    objects, which is sound only while no MACAddress changes in place."""

    def test_only_the_constructor_assigns_a_mac_value(self):
        import ast
        from pathlib import Path

        import repro

        assignments = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            scopes = {}
            for node in ast.walk(tree):
                for child in ast.iter_child_nodes(node):
                    scopes[child] = node
            for node in ast.walk(tree):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr == "value":
                        scope = scopes.get(node)
                        while scope is not None and not isinstance(scope, ast.FunctionDef):
                            scope = scopes.get(scope)
                        owner = scopes.get(scope)
                        assignments.append(
                            (path.name, getattr(owner, "name", None), getattr(scope, "name", None))
                        )
        assert assignments and set(assignments) == {("addresses.py", "MACAddress", "__init__")}

    def test_a_mac_write_leaves_other_packets_alone(self):
        flow = FiveTuple.make("10.0.0.1", "10.0.0.2", 1, 2)
        first, second = Packet.from_five_tuple(flow), Packet.from_five_tuple(flow)
        assert first.eth.src_mac is second.eth.src_mac
        default_src, default_dst = second.eth.src_mac.value, second.eth.dst_mac.value
        PacketField.SRC_MAC.write(first, 0x0A0B0C0D0E0F)
        PacketField.DST_MAC.write(first, 0x010203040506)
        assert PacketField.SRC_MAC.read(first) == 0x0A0B0C0D0E0F
        assert (second.eth.src_mac.value, second.eth.dst_mac.value) == (default_src, default_dst)
        assert Packet().eth.src_mac.value == default_src
