"""The bounded per-replica input-packet log.

Checkpoint + log is the classic recovery pair: the snapshot bounds how
far back recovery must reach, the log carries everything since.  Each
replica gets one :class:`PacketLog`; the cluster appends a *pre-
processing clone* of every packet it dispatches there (the pipeline
mutates packets in place — NAT rewrites headers — so logging after the
fact would replay the wrong bytes).  Entries carry a monotonically
increasing sequence number; each flow checkpoint records the log
position at capture, and recovery replays only the entries past it.

The log is bounded.  When it fills, the owner (the
:class:`~repro.ft.failover.FaultTolerance` coordinator) takes a
*pressure checkpoint* and trims, keeping memory flat no matter how long
the run — the same back-pressure a production log-structured recovery
system applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.net.flow import FiveTuple
from repro.net.packet import Packet


@dataclass(slots=True)
class LogEntry:
    """One logged input packet, frozen at its pre-processing bytes."""

    seq: int
    key: FiveTuple  # canonical wire-ingress five-tuple
    packet: Packet  # a clone; never mutated after append


class PacketLog:
    """Append-only, trimmed-at-checkpoint input log for one replica."""

    def __init__(self, capacity: int = 4096, on_full: Optional[Callable[[], None]] = None):
        if capacity <= 0:
            raise ValueError(f"log capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        #: called just *before* an append that would overflow — the hook
        #: where the coordinator checkpoints and trims (pressure flush)
        self.on_full = on_full
        self._entries: List[LogEntry] = []
        self._next_seq = 1
        self.trimmed = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest entry (0 when empty-forever)."""
        return self._next_seq - 1

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def append(self, packet: Packet, key: FiveTuple) -> int:
        """Log one input packet (cloned) under its canonical key; returns its sequence number."""
        if self.full and self.on_full is not None:
            self.on_full()
        if self.full:
            # The pressure hook failed to make room (or is absent):
            # drop the oldest entry rather than grow without bound.
            self._entries.pop(0)
        seq = self._next_seq
        self._next_seq += 1
        self._entries.append(
            LogEntry(seq=seq, key=key, packet=packet.clone())
        )
        return seq

    def trim(self, upto_seq: int) -> int:
        """Discard entries with ``seq <= upto_seq``; returns the count."""
        kept = [entry for entry in self._entries if entry.seq > upto_seq]
        dropped = len(self._entries) - len(kept)
        self._entries = kept
        self.trimmed += dropped
        return dropped

    def entries(self) -> List[LogEntry]:
        return list(self._entries)

    def __repr__(self) -> str:
        return (
            f"<PacketLog {len(self._entries)}/{self.capacity} entries, "
            f"next seq {self._next_seq}>"
        )
