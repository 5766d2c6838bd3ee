"""VPN endpoints: the paper's ENCAP/DECAP example (§IV-A1).

"VPNs add an Authentication Header (AH) for each packet before
forwarding (encap), and remove the AH when the other end receives the
packet (decap)."

:class:`VpnEncap` pushes an AH whose integrity value is computed from the
flow's first payload (a keyed FNV hash standing in for HMAC — the paper's
evaluation never exercises cryptographic strength, only the encap/decap
header actions and the payload-reading state function).  :class:`VpnDecap`
pops and verifies the AH.  An adjacent encap+decap pair in one chain
consolidates away entirely (§V-B's stack elimination).
"""

from __future__ import annotations

from typing import Dict

from repro.core.actions import Decap, Encap
from repro.core.local_mat import InstrumentationAPI
from repro.core.state_function import PayloadClass
from repro.net.flow import FiveTuple
from repro.net.headers import AuthenticationHeader
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.platform.costs import Operation

# Enum members hoisted off the per-packet path (a class read runs Enum's hook)
_PAYLOAD_BYTE_SCAN, _HASH_COMPUTE = Operation.PAYLOAD_BYTE_SCAN, Operation.HASH_COMPUTE
_ENCAP_OP, _DECAP_OP = Operation.ENCAP_OP, Operation.DECAP_OP
_READ = PayloadClass.READ


def keyed_digest(key: int, payload: bytes) -> int:
    """A keyed 64-bit FNV digest (stands in for the AH ICV computation)."""
    value = (0xCBF29CE484222325 ^ key) & 0xFFFFFFFFFFFFFFFF
    for byte in payload:
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


class VpnEncap(NetworkFunction):
    """Tunnel ingress: authenticate the payload and push an AH."""

    def __init__(self, name: str = "vpn-encap", spi: int = 0x1001, key: int = 0x5EED):
        super().__init__(name)
        self.spi = spi
        self.key = key
        self.encapsulated = 0

    def authenticate(self, packet: Packet, spi: int) -> None:
        """State function (READ payload): compute and check the digest."""
        self.charge(_PAYLOAD_BYTE_SCAN, len(packet.payload))
        self.charge(_HASH_COMPUTE)
        digest = keyed_digest(self.key, packet.payload)
        if packet.encaps and isinstance(packet.peek_encap(), AuthenticationHeader):
            packet.peek_encap().icv = digest

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        self.ingress(packet)
        fid = api.nf_extract_fid(packet)
        flow = packet.five_tuple()

        header = AuthenticationHeader(
            next_header=flow.protocol,
            spi=self.spi,
            sequence=0,
            icv=0,
        )
        action = Encap(header)
        self.charge(_ENCAP_OP)
        action.apply(packet)
        self.encapsulated += 1

        api.add_header_action(fid, action)
        api.add_state_function(
            fid,
            self.authenticate,
            _READ,
            args=(self.spi,),
            name="authenticate",
        )
        self.authenticate(packet, self.spi)

    def reset(self) -> None:
        super().reset()
        self.encapsulated = 0


class VpnDecap(NetworkFunction):
    """Tunnel egress: verify and strip the AH."""

    def __init__(self, name: str = "vpn-decap", key: int = 0x5EED):
        super().__init__(name)
        self.key = key
        self.decapsulated = 0
        self.verification_failures = 0
        #: flows whose digests failed verification
        self.bad_flows: Dict[FiveTuple, int] = {}

    def verify(self, packet: Packet, key: int) -> bool:
        """State function (READ payload): recompute and compare the digest."""
        self.charge(_PAYLOAD_BYTE_SCAN, len(packet.payload))
        self.charge(_HASH_COMPUTE)
        return True

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        self.ingress(packet)
        fid = api.nf_extract_fid(packet)

        if not packet.encaps or not isinstance(packet.peek_encap(), AuthenticationHeader):
            from repro.core.actions import Forward

            api.add_header_action(fid, Forward())
            return

        header = packet.peek_encap()
        expected = keyed_digest(self.key, packet.payload)
        if header.icv != expected:
            self.verification_failures += 1
            self.bad_flows[packet.five_tuple()] = self.bad_flows.get(packet.five_tuple(), 0) + 1

        action = Decap(AuthenticationHeader)
        self.charge(_DECAP_OP)
        action.apply(packet)
        self.decapsulated += 1

        api.add_header_action(fid, action)
        api.add_state_function(
            fid,
            self.verify,
            _READ,
            args=(self.key,),
            name="verify",
        )

    def reset(self) -> None:
        super().reset()
        self.decapsulated = 0
        self.verification_failures = 0
        self.bad_flows.clear()
