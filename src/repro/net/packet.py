"""The packet model.

A :class:`Packet` mirrors a DPDK mbuf + descriptor: Ethernet, IPv4, an
optional stack of encapsulation headers (AH/VXLAN, pushed between L3 and
L4 as the VPN/gateway NFs do), an L4 header (TCP or UDP), a payload, and a
metadata dict.  SpeedyBox attaches the FID as packet metadata (§VI-B);
dropping a packet sets the descriptor's ``dropped`` flag ("set the packet
descriptor to nil", §IV-A1).

:class:`PacketField` names the mutable header fields that MODIFY header
actions operate on; it provides uniform read/write accessors so the
consolidation engine can treat heterogeneous fields uniformly.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Union

from repro.net.addresses import MACAddress, ip_to_int
from repro.net.flow import FiveTuple
from repro.net.headers import (
    AuthenticationHeader,
    EthernetHeader,
    Header,
    IPv4Header,
    PROTO_AH,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCPHeader,
    UDPHeader,
    VxlanHeader,
)

# Every packet's default Ethernet header shares these two.  Sharing is
# safe because a MACAddress is never changed in place: a MAC write
# installs a new object (``_write_src_mac``), and only ``__init__``
# assigns ``.value`` (tests/unit/test_net_packet.py pins both).
_DEFAULT_DST_MAC = MACAddress("02:00:00:00:00:02")
_DEFAULT_SRC_MAC = MACAddress("02:00:00:00:00:01")
_new_tuple = tuple.__new__  # FiveTuple without its generated __new__'s frame


class PacketField(enum.Enum):
    """Header fields addressable by MODIFY actions (§IV-A1, §V-B).

    The paper distinguishes "main" routing fields (IPs and ports, part of
    NF logic) from "remaining" fields fixed up at the end of consolidation
    (checksum, TTL, MAC addresses); ``is_finalisation_field`` captures
    that split.
    """

    SRC_MAC = "src_mac"
    DST_MAC = "dst_mac"
    SRC_IP = "src_ip"
    DST_IP = "dst_ip"
    TTL = "ttl"
    DSCP = "dscp"
    SRC_PORT = "src_port"
    DST_PORT = "dst_port"

    @property
    def is_finalisation_field(self) -> bool:
        """Fields the paper modifies "at the end of the consolidation" (§V-B)."""
        return self in _FINALISATION_FIELDS

    def read(self, packet: "Packet") -> int:
        return _FIELD_READERS[self](packet)

    def write(self, packet: "Packet", value: int) -> None:
        _FIELD_WRITERS[self](packet, value)


# the C-level identity hash, as the cost model gives its Operation enum
PacketField.__hash__ = object.__hash__  # type: ignore[method-assign]
FIELD_BY_NAME = {field.value: field for field in PacketField}
_FINALISATION_FIELDS = {PacketField.SRC_MAC, PacketField.DST_MAC, PacketField.TTL, PacketField.DSCP}


def _require_l4(packet: "Packet"):
    if packet.l4 is None:
        raise ValueError("packet has no L4 header")
    return packet.l4


_FIELD_READERS = {
    PacketField.SRC_MAC: lambda p: p.eth.src_mac.value,
    PacketField.DST_MAC: lambda p: p.eth.dst_mac.value,
    PacketField.SRC_IP: lambda p: p.ip.src_ip,
    PacketField.DST_IP: lambda p: p.ip.dst_ip,
    PacketField.TTL: lambda p: p.ip.ttl,
    PacketField.DSCP: lambda p: p.ip.dscp,
    PacketField.SRC_PORT: lambda p: _require_l4(p).src_port,
    PacketField.DST_PORT: lambda p: _require_l4(p).dst_port,
}


def _write_src_port(packet: "Packet", value: int) -> None:
    _require_l4(packet).src_port = value


def _write_dst_port(packet: "Packet", value: int) -> None:
    _require_l4(packet).dst_port = value


def _write_src_mac(packet: "Packet", value: int) -> None:
    packet.eth.src_mac = MACAddress(value)


def _write_dst_mac(packet: "Packet", value: int) -> None:
    packet.eth.dst_mac = MACAddress(value)


def _write_src_ip(packet: "Packet", value: int) -> None:
    packet.ip.src_ip = ip_to_int(value)


def _write_dst_ip(packet: "Packet", value: int) -> None:
    packet.ip.dst_ip = ip_to_int(value)


def _write_ttl(packet: "Packet", value: int) -> None:
    if not 0 <= value <= 255:
        raise ValueError(f"TTL out of range: {value!r}")
    packet.ip.ttl = value


def _write_dscp(packet: "Packet", value: int) -> None:
    if not 0 <= value <= 63:
        raise ValueError(f"DSCP out of range: {value!r}")
    packet.ip.dscp = value


_FIELD_WRITERS = {
    PacketField.SRC_MAC: _write_src_mac,
    PacketField.DST_MAC: _write_dst_mac,
    PacketField.SRC_IP: _write_src_ip,
    PacketField.DST_IP: _write_dst_ip,
    PacketField.TTL: _write_ttl,
    PacketField.DSCP: _write_dscp,
    PacketField.SRC_PORT: _write_src_port,
    PacketField.DST_PORT: _write_dst_port,
}


class Packet:
    """A packet descriptor plus its buffer.

    ``encaps`` is a LIFO stack of encapsulation headers: ``push_encap``
    appends, ``pop_encap`` removes the most recent — matching the stack
    model the consolidation algorithm uses for ENCAP/DECAP (§V-B).
    """

    __slots__ = ("eth", "ip", "l4", "encaps", "payload", "metadata", "dropped", "timestamp_ns")

    def __init__(
        self,
        eth: Optional[EthernetHeader] = None,
        ip: Optional[IPv4Header] = None,
        l4: Optional[Union[TCPHeader, UDPHeader]] = None,
        payload: bytes = b"",
        timestamp_ns: float = 0.0,
    ):
        if eth is None:
            eth = EthernetHeader(_DEFAULT_DST_MAC, _DEFAULT_SRC_MAC)
        if ip is None:
            ip = IPv4Header("10.0.0.1", "10.0.0.2")
        self.eth = eth
        self.ip = ip
        self.l4 = l4
        self.encaps: List[Header] = []
        self.payload = payload
        self.metadata: Dict[str, Any] = {}
        self.dropped = False
        self.timestamp_ns = timestamp_ns

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_five_tuple(
        cls,
        five_tuple: FiveTuple,
        payload: bytes = b"",
        tcp_flags: int = TCP_ACK,
        seq: int = 0,
        timestamp_ns: float = 0.0,
    ) -> "Packet":
        """Build a TCP or UDP packet whose headers realise ``five_tuple``."""
        return HeaderStamp(five_tuple).packet(payload, tcp_flags, seq, timestamp_ns)

    # -- flow identity -----------------------------------------------------

    def five_tuple(self) -> FiveTuple:
        """The current five-tuple (reflects any header rewrites so far)."""
        l4 = self.l4
        if l4 is None:
            raise ValueError("packet has no L4 header")
        ip = self.ip
        return _new_tuple(FiveTuple, (ip.src_ip, ip.dst_ip, l4.src_port, l4.dst_port, ip.protocol))

    # -- encapsulation -----------------------------------------------------

    def push_encap(self, header: Header) -> None:
        """Push an encapsulation header (innermost = most recently pushed)."""
        self.encaps.append(header)

    def pop_encap(self) -> Header:
        """Pop the most recently pushed encapsulation header."""
        if not self.encaps:
            raise ValueError("decap on a packet with no encapsulation headers")
        return self.encaps.pop()

    def peek_encap(self) -> Optional[Header]:
        return self.encaps[-1] if self.encaps else None

    # -- descriptor operations ----------------------------------------------

    def drop(self) -> None:
        """Mark the descriptor dropped (the §IV-A1 'set descriptor to nil')."""
        self.dropped = True

    def clone(self) -> "Packet":
        """Deep copy headers, payload and metadata (not shared with original)."""
        copy = Packet.__new__(Packet)
        copy.eth = self.eth.clone()
        copy.ip = self.ip.clone()
        copy.l4 = self.l4.clone() if self.l4 is not None else None
        copy.encaps = [header.clone() for header in self.encaps] if self.encaps else []
        copy.payload = self.payload
        copy.metadata = dict(self.metadata)
        copy.dropped = self.dropped
        copy.timestamp_ns = self.timestamp_ns
        return copy

    # -- sizes, serialisation -----------------------------------------------

    def byte_length(self) -> int:
        # Ethernet, IPv4 (no options), TCP and UDP headers have fixed lengths
        total = EthernetHeader.LENGTH + IPv4Header.LENGTH + len(self.payload)
        for header in self.encaps:
            total += header.byte_length()
        if self.l4 is not None:
            total += self.l4.LENGTH
        return total

    def finalize(self) -> None:
        """Fix up derived fields: IP total length, protocol chain, checksums."""
        inner_len = len(self.payload)
        l4 = self.l4
        if l4 is not None:
            inner_len += l4.LENGTH
            if isinstance(l4, UDPHeader):
                l4.length = inner_len
        ip = self.ip
        encaps = self.encaps
        if encaps:
            encap_len = sum(header.byte_length() for header in encaps)
            if isinstance(encaps[0], AuthenticationHeader):
                ip.protocol = PROTO_AH
        else:
            encap_len = 0
        if ip.protocol == PROTO_AH and l4 is not None and not any(
            isinstance(header, AuthenticationHeader) for header in encaps
        ):
            # the last AH is gone: the IP header names the L4 protocol again
            ip.protocol = PROTO_UDP if isinstance(l4, UDPHeader) else PROTO_TCP
        ip.total_length = IPv4Header.LENGTH + encap_len + inner_len
        ip.refresh_checksum()

    def serialize(self) -> bytes:
        """Wire bytes: Ethernet | IPv4 | encaps (outermost first) | L4 | payload."""
        self.finalize()
        parts = [self.eth.pack(), self.ip.pack()]
        parts.extend(header.pack() for header in self.encaps)
        if self.l4 is not None:
            parts.append(self.l4.pack())
        parts.append(self.payload)
        return b"".join(parts)

    @classmethod
    def parse(cls, data: bytes) -> "Packet":
        """Parse wire bytes back into a packet (inverse of :meth:`serialize`).

        Encapsulation headers are recognised structurally: an AH directly
        after IPv4 (protocol 51), or a VXLAN header flagged by metadata is
        out of scope for raw parsing — only AH round-trips from bytes.
        A frame shorter than its IPv4 total length is a ``ValueError``.
        """
        eth = EthernetHeader.unpack(data)
        offset = eth.byte_length()
        ip = IPv4Header.unpack(data[offset:])
        if len(data) - offset < ip.total_length:
            raise ValueError(
                f"truncated IPv4 packet: {len(data) - offset} of {ip.total_length} bytes"
            )
        offset += ip.byte_length()
        packet = cls(eth=eth, ip=ip)
        protocol = ip.protocol
        while protocol == PROTO_AH:
            ah = AuthenticationHeader.unpack(data[offset:])
            offset += ah.byte_length()
            packet.push_encap(ah)
            protocol = ah.next_header
        from repro.net.flow import PROTO_TCP, PROTO_UDP

        if protocol == PROTO_TCP:
            packet.l4 = TCPHeader.unpack(data[offset:])
            offset += packet.l4.byte_length()
        elif protocol == PROTO_UDP:
            packet.l4 = UDPHeader.unpack(data[offset:])
            offset += packet.l4.byte_length()
        packet.payload = data[offset:]
        return packet

    def __repr__(self) -> str:
        state = " DROPPED" if self.dropped else ""
        encaps = f" +{len(self.encaps)} encap" if self.encaps else ""
        try:
            flow = str(self.five_tuple())
        except ValueError:
            flow = "<no L4>"
        return f"<Packet {flow} len={self.byte_length()}{encaps}{state}>"


class HeaderStamp:
    """One flow's header values, validated once, stamped onto each packet.

    A stamped packet is finalized as built: the IPv4 total length follows
    from the payload length, and the checksum, which depends on nothing
    else that varies, is computed once per distinct length.  Each packet
    gets its own headers; the default MAC addresses are the shared ones
    every :class:`Packet` starts with.
    """

    __slots__ = ("five_tuple", "_tcp", "_header_length", "_template", "_checksums")

    def __init__(self, five_tuple: FiveTuple):
        protocol = five_tuple.protocol
        if protocol == PROTO_TCP:
            l4_length = TCPHeader.LENGTH
        elif protocol == PROTO_UDP:
            l4_length = UDPHeader.LENGTH
        else:
            raise ValueError(f"unsupported protocol for packet synthesis: {protocol}")
        #: the IPv4 header every packet copies, at total length 0
        self._template = IPv4Header(five_tuple.src_ip, five_tuple.dst_ip, protocol=protocol)
        self.five_tuple = FiveTuple(
            self._template.src_ip,
            self._template.dst_ip,
            five_tuple.src_port,
            five_tuple.dst_port,
            protocol,
        )
        self._tcp = protocol == PROTO_TCP
        self._header_length = IPv4Header.LENGTH + l4_length
        self._checksums: Dict[int, int] = {}

    def packet(self, payload: bytes, tcp_flags: int, seq: int, timestamp_ns: float) -> Packet:
        """The flow's packet carrying ``payload`` (``tcp_flags`` and
        ``seq`` apply to a TCP flow only)."""
        src_ip, dst_ip, src_port, dst_port, protocol = self.five_tuple
        total_length = self._header_length + len(payload)
        checksum = self._checksums.get(total_length)
        if checksum is None:
            template = self._template
            template.total_length = total_length
            template.refresh_checksum()
            checksum = self._checksums[total_length] = template.checksum
        # every slot is filled here, from values validated once per flow
        ip = IPv4Header.__new__(IPv4Header)
        ip.src_ip = src_ip
        ip.dst_ip = dst_ip
        ip.protocol = protocol
        ip.ttl = 64
        ip.dscp = 0
        ip.identification = 0
        ip.total_length = total_length
        ip.checksum = checksum
        if self._tcp:
            l4: Union[TCPHeader, UDPHeader] = TCPHeader(src_port, dst_port, seq, 0, tcp_flags)
        else:
            l4 = UDPHeader(src_port, dst_port, UDPHeader.LENGTH + len(payload))
        packet = Packet.__new__(Packet)
        packet.eth = EthernetHeader(_DEFAULT_DST_MAC, _DEFAULT_SRC_MAC)
        packet.ip = ip
        packet.l4 = l4
        packet.encaps = []
        packet.payload = payload
        packet.metadata = {}
        packet.dropped = False
        packet.timestamp_ns = timestamp_ns
        return packet


__all__ = ["HeaderStamp", "Packet", "PacketField", "VxlanHeader"]
