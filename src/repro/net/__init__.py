"""Packet substrate: addresses, headers, packets and flow keys.

The evaluation platforms of the paper (BESS, OpenNetVM) move DPDK packet
descriptors; this subpackage provides the equivalent in-memory model.
Headers serialise to real wire bytes (with internet checksums), so
"parsing" and "classification" are genuine operations the cost model can
charge for, and equivalence tests can compare byte-exact outputs.
"""

from repro.net.addresses import MACAddress, ip_to_int, ip_to_str, is_valid_ipv4
from repro.net.flow import FiveTuple, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.net.headers import (
    AuthenticationHeader,
    EthernetHeader,
    Header,
    IPv4Header,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    TCPHeader,
    UDPHeader,
    VxlanHeader,
)
from repro.net.packet import Packet, PacketField
from repro.net.trace import TraceFormatError, load_trace, read_trace, write_trace

__all__ = [
    "AuthenticationHeader",
    "EthernetHeader",
    "FiveTuple",
    "Header",
    "IPv4Header",
    "MACAddress",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "PacketField",
    "TCPHeader",
    "TCP_ACK",
    "TCP_FIN",
    "TCP_PSH",
    "TCP_RST",
    "TCP_SYN",
    "TraceFormatError",
    "UDPHeader",
    "VxlanHeader",
    "ip_to_int",
    "ip_to_str",
    "is_valid_ipv4",
    "load_trace",
    "read_trace",
    "write_trace",
]
