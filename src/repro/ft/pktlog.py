"""The bounded per-replica input-packet log.

Checkpoint + log is the classic recovery pair: the snapshot bounds how
far back recovery must reach, the log carries everything since.  Each
replica gets one :class:`PacketLog`; the cluster logs a *pre-image* of
every packet it dispatches there before processing it (the pipeline
mutates packets in place — NAT rewrites headers, a VPN pushes one — so
logging after the fact would replay the wrong bytes): a plain packet's
header fields in flat tuples, anything else a clone.  Keys and
pre-images are two columns whose sequence numbers are implicit, so a
trim is one slice.  Each flow checkpoint records the log position at
capture, and recovery replays only the entries past it.

The log is bounded.  When it fills, the owner (the
:class:`~repro.ft.failover.FaultTolerance` coordinator) takes a
*pressure checkpoint* and trims, keeping memory flat no matter how long
the run — the same back-pressure a production log-structured recovery
system applies.  When that makes no room, the oldest entry goes: an
input recovery can no longer replay, counted in
``ft_log_overflow_total`` and audited as ``ft_log_overflow``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, List, Optional

from repro.net.flow import FiveTuple
from repro.net.headers import EthernetHeader, IPv4Header, TCPHeader, UDPHeader
from repro.net.packet import Packet
from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY

#: each header type's fields, read in one call
_FIELDS = {
    cls: attrgetter(*cls.__slots__) for cls in (EthernetHeader, IPv4Header, TCPHeader, UDPHeader)
}
_ETH, _IP = _FIELDS[EthernetHeader], _FIELDS[IPv4Header]


def _image(packet: Packet):
    """The packet's pre-image: its fields as they are now."""
    l4 = packet.l4
    if packet.encaps or packet.metadata or l4 is None or packet.dropped:
        return packet.clone()
    return (
        _ETH(packet.eth), _IP(packet.ip), type(l4),
        _FIELDS[type(l4)](l4), packet.payload, packet.timestamp_ns,
    )


def _headers(cls, values):
    header = cls.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        setattr(header, name, value)
    return header


def _replay(image) -> Packet:
    """A fresh packet carrying a pre-image's bytes."""
    if isinstance(image, Packet):
        return image.clone()
    eth, ip, l4_type, l4, payload, timestamp_ns = image
    packet = Packet(_headers(EthernetHeader, eth), _headers(IPv4Header, ip), _headers(l4_type, l4))
    packet.payload, packet.timestamp_ns = payload, timestamp_ns
    return packet


@dataclass(slots=True)
class LogEntry:
    """One logged input packet, rebuilt at its pre-processing bytes."""

    seq: int
    key: FiveTuple  # canonical wire-ingress five-tuple
    packet: Packet  # a fresh packet; the log keeps its own pre-image


class PacketLog:
    """Append-only, trimmed-at-checkpoint input log for one replica."""

    def __init__(
        self,
        capacity: int = 4096,
        on_full: Optional[Callable[[], None]] = None,
        audit: AuditLog = NULL_AUDIT,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ):
        if capacity <= 0:
            raise ValueError(f"log capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        #: called just *before* an append that would overflow — the hook
        #: where the coordinator checkpoints and trims (pressure flush)
        self.on_full = on_full
        self.audit = audit
        self._m_overflow = metrics.counter(
            "ft_log_overflow_total", "logged inputs dropped unreplayable from a full log"
        )
        self.keys: List[FiveTuple] = []
        self.images: list = []
        #: sequence number of ``keys[0]``
        self.first_seq = 1
        self.trimmed = 0
        self.overflowed = 0

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest entry (0 when empty-forever)."""
        return self.first_seq + len(self.keys) - 1

    @property
    def full(self) -> bool:
        return len(self.keys) >= self.capacity

    def append(self, packet: Packet, key: FiveTuple) -> int:
        """Log one input packet's pre-image under its canonical key;
        returns its sequence number."""
        keys = self.keys
        if len(keys) >= self.capacity:
            if self.on_full is not None:
                self.on_full()
            if len(keys) >= self.capacity:
                # The pressure hook made no room: drop the oldest entry
                # rather than grow without bound, and say so.
                self.overflowed += 1
                self._m_overflow.inc()
                self.audit.emit("ft_log_overflow", seq=self.first_seq, flow=str(keys[0]))
                del keys[0], self.images[0]
                self.first_seq += 1
        keys.append(key)
        self.images.append(_image(packet))
        return self.first_seq + len(keys) - 1

    def trim(self, upto_seq: int) -> int:
        """Discard entries with ``seq <= upto_seq``; returns the count."""
        dropped = max(0, min(upto_seq - self.first_seq + 1, len(self.keys)))
        del self.keys[:dropped], self.images[:dropped]
        self.first_seq += dropped
        self.trimmed += dropped
        return dropped

    def entries(self) -> List[LogEntry]:
        return [
            LogEntry(seq, key, _replay(image))
            for seq, (key, image) in enumerate(zip(self.keys, self.images), self.first_seq)
        ]

    def __repr__(self) -> str:
        return (
            f"<PacketLog {len(self.keys)}/{self.capacity} entries, "
            f"next seq {self.last_seq + 1}>"
        )
