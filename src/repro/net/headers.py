"""Wire-format protocol headers.

Each header packs to and parses from real network-byte-order bytes, so a
packet can be serialised, checksummed and re-parsed byte-exactly.  The set
covers what the paper's NFs touch: Ethernet, IPv4, TCP, UDP, plus two
encapsulation headers — the IPsec Authentication Header used by the VPN NF
(encap/decap actions, §IV-A1) and a simplified VXLAN header used by tunnel
gateways.
"""

from __future__ import annotations

import struct
from typing import ClassVar, Optional

from repro.net.addresses import MACAddress, ip_to_int, ip_to_str

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
TCP_URG = 0x20

ETHERTYPE_IPV4 = 0x0800

PROTO_TCP = 6
PROTO_UDP = 17
PROTO_AH = 51


class Header:
    """Base class for all protocol headers."""

    name: ClassVar[str] = "header"

    def byte_length(self) -> int:
        raise NotImplementedError

    def pack(self) -> bytes:
        raise NotImplementedError

    def clone(self) -> "Header":
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.pack() == other.pack()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.pack()))


class EthernetHeader(Header):
    """14-byte Ethernet II header."""

    name = "eth"
    LENGTH = 14

    __slots__ = ("dst_mac", "src_mac", "ethertype")

    def __init__(self, dst_mac: MACAddress, src_mac: MACAddress, ethertype: int = ETHERTYPE_IPV4):
        self.dst_mac = dst_mac
        self.src_mac = src_mac
        self.ethertype = ethertype

    def byte_length(self) -> int:
        return self.LENGTH

    def pack(self) -> bytes:
        return self.dst_mac.to_bytes() + self.src_mac.to_bytes() + struct.pack("!H", self.ethertype)

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        if len(data) < cls.LENGTH:
            raise ValueError("truncated Ethernet header")
        return cls(
            dst_mac=MACAddress.from_bytes(data[0:6]),
            src_mac=MACAddress.from_bytes(data[6:12]),
            ethertype=struct.unpack("!H", data[12:14])[0],
        )

    def clone(self) -> "EthernetHeader":
        # A rewrite assigns a new MACAddress and never changes one: share them.
        return EthernetHeader(self.dst_mac, self.src_mac, self.ethertype)

    def __repr__(self) -> str:
        return f"EthernetHeader({self.src_mac} -> {self.dst_mac}, 0x{self.ethertype:04x})"


class IPv4Header(Header):
    """20-byte IPv4 header (no options)."""

    name = "ipv4"
    LENGTH = 20

    __slots__ = ("src_ip", "dst_ip", "protocol", "ttl", "dscp", "identification", "total_length", "checksum")

    def __init__(
        self,
        src_ip,
        dst_ip,
        protocol: int = PROTO_TCP,
        ttl: int = 64,
        dscp: int = 0,
        identification: int = 0,
        total_length: int = 0,
        checksum: Optional[int] = None,
    ):
        self.src_ip = ip_to_int(src_ip)
        self.dst_ip = ip_to_int(dst_ip)
        self.protocol = protocol
        self.ttl = ttl
        self.dscp = dscp
        self.identification = identification
        self.total_length = total_length
        self.checksum = checksum if checksum is not None else 0

    def byte_length(self) -> int:
        return self.LENGTH

    def refresh_checksum(self) -> None:
        """Recompute the header checksum from the current fields.

        Computed arithmetically over the header's eight non-checksum
        16-bit words — bit-identical to the RFC 1071 checksum of the
        packed header with the checksum field zeroed, without the
        pack/unpack round trip (this runs once per packet via
        :meth:`Packet.finalize`).
        """
        total = (
            (((4 << 4) | 5) << 8 | (self.dscp << 2))
            + self.total_length
            + self.identification
            + ((self.ttl << 8) | self.protocol)
            + (self.src_ip >> 16)
            + (self.src_ip & 0xFFFF)
            + (self.dst_ip >> 16)
            + (self.dst_ip & 0xFFFF)
        )
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        self.checksum = (~total) & 0xFFFF

    def pack(self) -> bytes:
        version_ihl = (4 << 4) | 5
        return struct.pack(
            "!BBHHHBBHII",
            version_ihl,
            self.dscp << 2,
            self.total_length,
            self.identification,
            0,  # flags + fragment offset
            self.ttl,
            self.protocol,
            self.checksum,
            self.src_ip,
            self.dst_ip,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4Header":
        if len(data) < cls.LENGTH:
            raise ValueError("truncated IPv4 header")
        fields = struct.unpack("!BBHHHBBHII", data[: cls.LENGTH])
        version_ihl = fields[0]
        if version_ihl >> 4 != 4:
            raise ValueError(f"not an IPv4 header (version={version_ihl >> 4})")
        return cls(
            src_ip=fields[8],
            dst_ip=fields[9],
            protocol=fields[6],
            ttl=fields[5],
            dscp=fields[1] >> 2,
            identification=fields[3],
            total_length=fields[2],
            checksum=fields[7],
        )

    def clone(self) -> "IPv4Header":
        # Every field is a checked int already: copy the slots as they are.
        copy = IPv4Header.__new__(IPv4Header)
        copy.src_ip, copy.dst_ip, copy.protocol = self.src_ip, self.dst_ip, self.protocol
        copy.ttl, copy.dscp, copy.identification = self.ttl, self.dscp, self.identification
        copy.total_length, copy.checksum = self.total_length, self.checksum
        return copy

    def __repr__(self) -> str:
        return (
            f"IPv4Header({ip_to_str(self.src_ip)} -> {ip_to_str(self.dst_ip)}, "
            f"proto={self.protocol}, ttl={self.ttl})"
        )


class TCPHeader(Header):
    """20-byte TCP header (no options)."""

    name = "tcp"
    LENGTH = 20

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window", "checksum")

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        ack: int = 0,
        flags: int = TCP_ACK,
        window: int = 65535,
        checksum: int = 0,
    ):
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.checksum = checksum

    def byte_length(self) -> int:
        return self.LENGTH

    def has_flag(self, flag: int) -> bool:
        return bool(self.flags & flag)

    def pack(self) -> bytes:
        data_offset = (5 << 4)
        return struct.pack(
            "!HHIIBBHHH",
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            data_offset,
            self.flags,
            self.window,
            self.checksum,
            0,  # urgent pointer
        )

    @classmethod
    def unpack(cls, data: bytes) -> "TCPHeader":
        if len(data) < cls.LENGTH:
            raise ValueError("truncated TCP header")
        fields = struct.unpack("!HHIIBBHHH", data[: cls.LENGTH])
        return cls(
            src_port=fields[0],
            dst_port=fields[1],
            seq=fields[2],
            ack=fields[3],
            flags=fields[5],
            window=fields[6],
            checksum=fields[7],
        )

    def clone(self) -> "TCPHeader":
        return TCPHeader(self.src_port, self.dst_port, self.seq, self.ack, self.flags, self.window, self.checksum)

    def __repr__(self) -> str:
        flag_names = []
        for bit, label in ((TCP_SYN, "SYN"), (TCP_ACK, "ACK"), (TCP_FIN, "FIN"), (TCP_RST, "RST"), (TCP_PSH, "PSH")):
            if self.flags & bit:
                flag_names.append(label)
        return f"TCPHeader({self.src_port} -> {self.dst_port}, [{'|'.join(flag_names)}])"


class UDPHeader(Header):
    """8-byte UDP header."""

    name = "udp"
    LENGTH = 8

    __slots__ = ("src_port", "dst_port", "length", "checksum")

    def __init__(self, src_port: int, dst_port: int, length: int = 8, checksum: int = 0):
        self.src_port = src_port
        self.dst_port = dst_port
        self.length = length
        self.checksum = checksum

    def byte_length(self) -> int:
        return self.LENGTH

    def pack(self) -> bytes:
        return struct.pack("!HHHH", self.src_port, self.dst_port, self.length, self.checksum)

    @classmethod
    def unpack(cls, data: bytes) -> "UDPHeader":
        if len(data) < cls.LENGTH:
            raise ValueError("truncated UDP header")
        fields = struct.unpack("!HHHH", data[: cls.LENGTH])
        return cls(*fields)

    def clone(self) -> "UDPHeader":
        return UDPHeader(self.src_port, self.dst_port, self.length, self.checksum)

    def __repr__(self) -> str:
        return f"UDPHeader({self.src_port} -> {self.dst_port})"


class AuthenticationHeader(Header):
    """Simplified IPsec Authentication Header (RFC 4302, fixed 24 bytes).

    The VPN NF pushes this header on encap and pops it on decap — the
    paper's example of the ENCAP/DECAP header actions (§IV-A1).
    """

    name = "ah"
    LENGTH = 24

    __slots__ = ("next_header", "spi", "sequence", "icv")

    def __init__(self, next_header: int = PROTO_TCP, spi: int = 0, sequence: int = 0, icv: int = 0):
        self.next_header = next_header
        self.spi = spi
        self.sequence = sequence
        self.icv = icv

    def byte_length(self) -> int:
        return self.LENGTH

    def pack(self) -> bytes:
        payload_len = (self.LENGTH // 4) - 2
        return struct.pack("!BBHIIQI", self.next_header, payload_len, 0, self.spi, self.sequence, self.icv, 0)

    @classmethod
    def unpack(cls, data: bytes) -> "AuthenticationHeader":
        if len(data) < cls.LENGTH:
            raise ValueError("truncated Authentication Header")
        fields = struct.unpack("!BBHIIQI", data[: cls.LENGTH])
        return cls(next_header=fields[0], spi=fields[3], sequence=fields[4], icv=fields[5])

    def clone(self) -> "AuthenticationHeader":
        return AuthenticationHeader(self.next_header, self.spi, self.sequence, self.icv)

    def __repr__(self) -> str:
        return f"AuthenticationHeader(spi=0x{self.spi:08x}, seq={self.sequence})"


class VxlanHeader(Header):
    """8-byte VXLAN header (RFC 7348) used by tunnelling gateways."""

    name = "vxlan"
    LENGTH = 8

    __slots__ = ("vni",)

    def __init__(self, vni: int = 0):
        if not 0 <= vni <= 0xFFFFFF:
            raise ValueError(f"VNI out of 24-bit range: {vni!r}")
        self.vni = vni

    def byte_length(self) -> int:
        return self.LENGTH

    def pack(self) -> bytes:
        return struct.pack("!II", 0x08 << 24, self.vni << 8)

    @classmethod
    def unpack(cls, data: bytes) -> "VxlanHeader":
        if len(data) < cls.LENGTH:
            raise ValueError("truncated VXLAN header")
        __, vni_field = struct.unpack("!II", data[: cls.LENGTH])
        return cls(vni=vni_field >> 8)

    def clone(self) -> "VxlanHeader":
        return VxlanHeader(self.vni)

    def __repr__(self) -> str:
        return f"VxlanHeader(vni={self.vni})"
