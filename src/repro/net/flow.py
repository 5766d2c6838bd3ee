"""Flow identity: the classic five-tuple.

The Packet Classifier (§VI-B) hashes the five-tuple of a packet into a
20-bit FID.  The five-tuple itself lives here; the hashing policy lives in
``repro.core.classifier`` because it is part of the SpeedyBox contribution.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Union

from repro.net.addresses import ip_to_int, ip_to_str

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

_PROTO_NAMES = {PROTO_ICMP: "icmp", PROTO_TCP: "tcp", PROTO_UDP: "udp"}


class FiveTuple(NamedTuple):
    """(src_ip, dst_ip, src_port, dst_port, protocol), addresses as uint32."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int

    @classmethod
    def make(
        cls,
        src_ip: Union[str, int],
        dst_ip: Union[str, int],
        src_port: int,
        dst_port: int,
        protocol: int = PROTO_TCP,
    ) -> "FiveTuple":
        """Build a five-tuple, accepting dotted-quad strings for addresses."""
        if not 0 <= src_port <= 0xFFFF:
            raise ValueError(f"source port out of range: {src_port!r}")
        if not 0 <= dst_port <= 0xFFFF:
            raise ValueError(f"destination port out of range: {dst_port!r}")
        if not 0 <= protocol <= 0xFF:
            raise ValueError(f"protocol out of range: {protocol!r}")
        return cls(ip_to_int(src_ip), ip_to_int(dst_ip), src_port, dst_port, protocol)

    def reversed(self) -> "FiveTuple":
        """The five-tuple of the reverse direction of this flow."""
        return FiveTuple(self.dst_ip, self.src_ip, self.dst_port, self.src_port, self.protocol)

    def canonical(self) -> "FiveTuple":
        """A direction-independent key: the lexicographically smaller side first.

        Memoized: equal five-tuples share one *interned* canonical
        object, so the per-packet dict lookups keyed on canonical flow
        keys (sharder homes, freeze buffers) compare by identity first.
        """
        return _canonical_of(self)

    def __deepcopy__(self, memo) -> "FiveTuple":
        # An immutable value: snapshots share it (and its interned
        # canonical form) instead of rebuilding it field by field.
        return self

    def __str__(self) -> str:
        proto = _PROTO_NAMES.get(self.protocol, str(self.protocol))
        return (
            f"{ip_to_str(self.src_ip)}:{self.src_port} -> "
            f"{ip_to_str(self.dst_ip)}:{self.dst_port}/{proto}"
        )


@lru_cache(maxsize=1 << 16)
def _canonical_of(five_tuple: FiveTuple) -> FiveTuple:
    forward = (five_tuple.src_ip, five_tuple.src_port)
    backward = (five_tuple.dst_ip, five_tuple.dst_port)
    if forward <= backward:
        return five_tuple
    return five_tuple.reversed()
