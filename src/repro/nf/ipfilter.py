"""IPFilter: a Click-style firewall (§VI-C).

Parses flow headers and checks them against an ACL with linear scanning —
the paper's IPFilter "checks against a header blacklist with linear
scanning".  Matching flows get DROP actions, others FORWARD.  A per-flow
verdict cache makes subsequent packets cheap (hash lookup) while initial
packets pay the linear scan — exactly the initial/subsequent cost split
Fig. 4 shows.

An optional ``mark_dscp`` turns permitted traffic into a policer that
sets the DSCP field, giving the firewall a MODIFY action for benchmarks
that exercise modify-merging.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.actions import Drop, Forward, Modify
from repro.core.local_mat import InstrumentationAPI
from repro.net.addresses import ip_to_int
from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.nf.base import FlowField, NetworkFunction
from repro.platform.costs import Operation


class Verdict(enum.Enum):
    FORWARD = "forward"
    DROP = "drop"


# Enum members hoisted off the per-packet path (a class read runs Enum's hook)
_EXACT_MATCH_LOOKUP, _ACL_RULE_SCAN = Operation.EXACT_MATCH_LOOKUP, Operation.ACL_RULE_SCAN
_DROP_VERDICT, _DROP_FREE = Verdict.DROP, Operation.DROP_FREE
_FIELD_WRITE, _CHECKSUM_UPDATE = Operation.FIELD_WRITE, Operation.CHECKSUM_UPDATE


@dataclass(frozen=True)
class AclRule:
    """One blacklist/whitelist entry: prefixes, port ranges, protocol.

    ``None`` means wildcard.  Prefixes are (address, prefix_len) pairs;
    port ranges are inclusive (lo, hi) pairs.
    """

    src_prefix: Optional[Tuple[int, int]] = None
    dst_prefix: Optional[Tuple[int, int]] = None
    src_ports: Optional[Tuple[int, int]] = None
    dst_ports: Optional[Tuple[int, int]] = None
    protocol: Optional[int] = None
    verdict: Verdict = Verdict.DROP

    @staticmethod
    def _parse_prefix(text: Union[str, None]) -> Optional[Tuple[int, int]]:
        if text is None or text == "any":
            return None
        if "/" in text:
            address, __, length = text.partition("/")
            return ip_to_int(address), int(length)
        return ip_to_int(text), 32

    @classmethod
    def make(
        cls,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        src_ports: Optional[Tuple[int, int]] = None,
        dst_ports: Optional[Tuple[int, int]] = None,
        protocol: Optional[int] = None,
        verdict: Verdict = Verdict.DROP,
    ) -> "AclRule":
        """Build a rule from dotted-quad/CIDR strings, e.g. '10.0.0.0/8'."""
        return cls(
            src_prefix=cls._parse_prefix(src),
            dst_prefix=cls._parse_prefix(dst),
            src_ports=src_ports,
            dst_ports=dst_ports,
            protocol=protocol,
            verdict=verdict,
        )

    @staticmethod
    def _prefix_matches(prefix: Optional[Tuple[int, int]], address: int) -> bool:
        if prefix is None:
            return True
        base, length = prefix
        if length == 0:
            return True
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        return (address & mask) == (base & mask)

    @staticmethod
    def _range_matches(ports: Optional[Tuple[int, int]], port: int) -> bool:
        if ports is None:
            return True
        lo, hi = ports
        return lo <= port <= hi

    def matches(self, flow: FiveTuple) -> bool:
        if self.protocol is not None and flow.protocol != self.protocol:
            return False
        if not self._prefix_matches(self.src_prefix, flow.src_ip):
            return False
        if not self._prefix_matches(self.dst_prefix, flow.dst_ip):
            return False
        if not self._range_matches(self.src_ports, flow.src_port):
            return False
        return self._range_matches(self.dst_ports, flow.dst_port)


class IPFilter(NetworkFunction):
    """Linear-scan ACL firewall with a per-flow verdict cache."""

    flow_fields = (FlowField("verdict", "last"),)

    def __init__(
        self,
        name: str = "ipfilter",
        rules: Sequence[AclRule] = (),
        default_verdict: Verdict = Verdict.FORWARD,
        mark_dscp: Optional[int] = None,
    ):
        super().__init__(name)
        self.rules: List[AclRule] = list(rules)
        self.default_verdict = default_verdict
        self.mark_dscp = mark_dscp
        #: flow -> Verdict
        self._verdict_cache = self.flow_rows
        self.dropped = 0
        self.forwarded = 0

    def lookup_verdict(self, flow: FiveTuple) -> Tuple[Verdict, int]:
        """Linear scan: returns (verdict, rules examined)."""
        for index, rule in enumerate(self.rules):
            if rule.matches(flow):
                return rule.verdict, index + 1
        return self.default_verdict, len(self.rules)

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        self.ingress(packet)
        flow = packet.five_tuple()
        fid = api.nf_extract_fid(packet)

        self.charge(_EXACT_MATCH_LOOKUP)
        cache = self._verdict_cache
        row = cache.index.get(flow)
        if row is None:
            verdict, scanned = self.lookup_verdict(flow)
            self.charge(_ACL_RULE_SCAN, scanned)
            cache.insert(flow, (verdict,))
        else:
            verdict = cache.columns[0][row]

        if verdict is _DROP_VERDICT:
            self.dropped += 1
            self.charge(_DROP_FREE)
            packet.drop()
            api.add_header_action(fid, Drop())
            return

        self.forwarded += 1
        if self.mark_dscp is not None:
            action = Modify.set(dscp=self.mark_dscp)
            self.charge(_FIELD_WRITE)
            self.charge(_CHECKSUM_UPDATE)
            action.apply(packet)
            api.add_header_action(fid, action)
        else:
            api.add_header_action(fid, Forward())

    def handle_flow_close(self, packet: Packet) -> None:
        self._verdict_cache.pop(packet.five_tuple())

    def reset(self) -> None:
        super().reset()
        self.dropped = 0
        self.forwarded = 0
