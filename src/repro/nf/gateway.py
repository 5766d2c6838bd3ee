"""Tunnel gateways: VXLAN encapsulation by destination subnet.

Gateways (conferencing/media/voice, tunnel endpoints) are the largest NF
category in the enterprise survey the paper builds its abstraction on
(§IV-A): per-flow behaviour is a deterministic ENCAP (or DECAP) plus a
MODIFY for next-hop steering — ideal consolidation material.

:class:`VxlanGateway` maps destination prefixes to VXLAN network
identifiers (VNIs); flows to a mapped prefix are encapsulated with that
VNI and DSCP-marked for the underlay.  :class:`VxlanTerminator` strips
VXLAN headers at the far end.  A gateway+terminator pair in one chain
consolidates to a no-op, like the VPN pair.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.actions import Decap, Encap, Forward, Modify
from repro.core.local_mat import InstrumentationAPI
from repro.net.addresses import ip_to_int
from repro.net.headers import VxlanHeader
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.platform.costs import Operation

# Enum members hoisted off the per-packet path (a class read runs Enum's hook)
_ACL_RULE_SCAN, _FIELD_WRITE = Operation.ACL_RULE_SCAN, Operation.FIELD_WRITE
_CHECKSUM_UPDATE = Operation.CHECKSUM_UPDATE
_ENCAP_OP, _DECAP_OP = Operation.ENCAP_OP, Operation.DECAP_OP


class VniMap:
    """Longest-prefix-match table: destination prefix -> VNI."""

    def __init__(self, entries: Sequence[Tuple[str, int]] = ()):
        self._entries: List[Tuple[int, int, int]] = []  # (base, len, vni)
        for prefix, vni in entries:
            self.add(prefix, vni)

    def add(self, prefix: str, vni: int) -> None:
        if not 0 <= vni <= 0xFFFFFF:
            raise ValueError(f"VNI out of 24-bit range: {vni!r}")
        address, __, length_text = prefix.partition("/")
        length = int(length_text) if length_text else 32
        if not 0 <= length <= 32:
            raise ValueError(f"bad prefix length in {prefix!r}")
        self._entries.append((ip_to_int(address), length, vni))
        # Keep longest prefixes first so the first hit is the best hit.
        self._entries.sort(key=lambda entry: -entry[1])

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, address: int) -> Optional[int]:
        for base, length, vni in self._entries:
            if length == 0:
                return vni
            mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
            if (address & mask) == (base & mask):
                return vni
        return None


class VxlanGateway(NetworkFunction):
    """Tunnel ingress: encapsulate mapped traffic, mark the underlay."""

    def __init__(
        self,
        name: str = "vxlan-gw",
        vni_map: Optional[VniMap] = None,
        underlay_dscp: Optional[int] = 26,
    ):
        super().__init__(name)
        self.vni_map = vni_map or VniMap()
        self.underlay_dscp = underlay_dscp
        self.encapsulated = 0
        self.passed_through = 0

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        self.ingress(packet)
        fid = api.nf_extract_fid(packet)
        flow = packet.five_tuple()

        self.charge(_ACL_RULE_SCAN, max(len(self.vni_map), 1))
        vni = self.vni_map.lookup(flow.dst_ip)
        if vni is None:
            self.passed_through += 1
            api.add_header_action(fid, Forward())
            return

        encap = Encap(VxlanHeader(vni=vni))
        self.charge(_ENCAP_OP)
        encap.apply(packet)
        api.add_header_action(fid, encap)
        self.encapsulated += 1

        if self.underlay_dscp is not None:
            mark = Modify.set(dscp=self.underlay_dscp)
            self.charge(_FIELD_WRITE)
            self.charge(_CHECKSUM_UPDATE)
            mark.apply(packet)
            api.add_header_action(fid, mark)

    def reset(self) -> None:
        super().reset()
        self.encapsulated = 0
        self.passed_through = 0


class VxlanTerminator(NetworkFunction):
    """Tunnel egress: strip the VXLAN header if present."""

    def __init__(self, name: str = "vxlan-term"):
        super().__init__(name)
        self.decapsulated = 0
        self.passed_through = 0

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        self.ingress(packet)
        fid = api.nf_extract_fid(packet)

        if not isinstance(packet.peek_encap(), VxlanHeader):
            self.passed_through += 1
            api.add_header_action(fid, Forward())
            return

        decap = Decap(VxlanHeader)
        self.charge(_DECAP_OP)
        decap.apply(packet)
        api.add_header_action(fid, decap)
        self.decapsulated += 1

    def reset(self) -> None:
        super().reset()
        self.decapsulated = 0
        self.passed_through = 0
