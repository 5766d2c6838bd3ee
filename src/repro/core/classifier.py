"""The Packet Classifier (§III, §VI-B).

Responsibilities:

- hash the five-tuple into a 20-bit **FID** and attach it to the packet as
  metadata, where it stays consistent along the whole chain even if NFs
  rewrite the five-tuple;
- decide whether a packet is *initial* (traverses the original chain and
  records behaviour) or *subsequent* (takes the Global MAT fast path) —
  the paper defines the initial packet as the first packet after the
  connection is established, so TCP handshake packets always take the
  original path and do not arm the fast path;
- track TCP FIN/RST so closed flows' rules are deleted from the Global
  MAT and all Local MATs.

FID collisions (two live flows hashing to the same 20-bit value) are
detected by remembering the owning five-tuple; collided flows are pinned
to the original path so correctness never depends on hash uniqueness.

The flow table can be bounded (``capacity=``): when a new flow would
exceed it, the oldest-inserted entry is evicted and ``on_evict`` fires so
the runtime tears down everything keyed by that flow (Global MAT rule,
Local MAT rules, events, compiled closure).  Insertion order approximates
LRU without paying a per-packet reorder; long-lived hot flows that out-age
the table simply re-record on their next packet, which is correct because
eviction also uninstalls their fast path.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional

from repro.net.flow import FiveTuple, PROTO_TCP
from repro.net.headers import TCP_FIN, TCP_RST, TCP_SYN, TCPHeader
from repro.net.packet import Packet
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.platform.costs import CycleMeter, NULL_METER, Operation
from repro.vector import np

FID_BITS = 20
FID_SPACE = 1 << FID_BITS

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


@lru_cache(maxsize=1 << 16)
def fid_of(five_tuple: FiveTuple) -> int:
    """FNV-1a over the packed five-tuple, XOR-folded to 20 bits.

    Deterministic across runs and processes (unlike Python's salted
    ``hash``), so recorded traces replay identically.  Memoized on the
    five-tuple: a steady-state flow hashes once, its million subsequent
    packets hit the LRU (the hash itself walks 13 bytes of FNV-1a in
    pure Python, ~30x the cost of a cache hit).
    """
    data = struct.pack(
        "!IIHHB",
        five_tuple.src_ip,
        five_tuple.dst_ip,
        five_tuple.src_port,
        five_tuple.dst_port,
        five_tuple.protocol,
    )
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    # XOR-fold 64 -> 20 bits.
    folded = value ^ (value >> 20) ^ (value >> 40) ^ (value >> 60)
    return folded & (FID_SPACE - 1)


def fid_column(src_ip, dst_ip, src_port, dst_port, protocol):
    """Vectorized :func:`fid_of` over parallel five-tuple columns.

    Walks the same 13 packed bytes in the same order as the scalar hash
    (FNV-1a is byte-sequential), using uint64 wrap-around multiplies,
    so the returned column is *bit-identical* to calling ``fid_of`` per
    flow — the batch lane relies on that to agree with the classifier
    about collisions.
    """
    u64 = np.uint64
    prime = u64(_FNV_PRIME)
    value = np.full(len(src_ip), _FNV_OFFSET, dtype=np.uint64)
    # The "!IIHHB" pack order: src_ip and dst_ip big-endian 4 bytes each,
    # then the two big-endian 2-byte ports, then the protocol byte.
    columns = (
        (src_ip, (24, 16, 8, 0)),
        (dst_ip, (24, 16, 8, 0)),
        (src_port, (8, 0)),
        (dst_port, (8, 0)),
        (protocol, (0,)),
    )
    with np.errstate(over="ignore"):
        for column, shifts in columns:
            wide = np.asarray(column, dtype=np.int64)
            for shift in shifts:
                byte = ((wide >> shift) & 0xFF).astype(np.uint64)
                value = (value ^ byte) * prime
        folded = value ^ (value >> u64(20)) ^ (value >> u64(40)) ^ (value >> u64(60))
    return (folded & u64(FID_SPACE - 1)).astype(np.int64)


@dataclass(slots=True)
class FlowEntry:
    """Classifier-side per-flow connection state."""

    fid: int
    five_tuple: FiveTuple
    established: bool = False
    closed: bool = False
    packets: int = 0

    def __deepcopy__(self, memo) -> "FlowEntry":
        # Every slot holds an immutable value.
        return FlowEntry(
            self.fid, self.five_tuple, self.established, self.closed, self.packets
        )


@dataclass(slots=True)
class Classification:
    """What the classifier concluded about one packet."""

    fid: int
    entry: Optional[FlowEntry]
    collided: bool = False
    is_handshake: bool = False
    is_closing: bool = False

    @property
    def fast_path_eligible(self) -> bool:
        """May this packet use a cached Global MAT rule, if one exists?"""
        return not (self.collided or self.is_handshake)

    @property
    def may_record(self) -> bool:
        """May this packet's traversal install/refresh the fast path?

        Handshake packets traverse the original chain but must not arm
        the fast path: the paper's "initial packet" is the first packet
        *after* establishment.
        """
        return not (self.collided or self.is_handshake)


class PacketClassifier:
    """FID assignment, connection tracking and flow cleanup."""

    def __init__(
        self,
        metrics: MetricsRegistry = NULL_REGISTRY,
        capacity: Optional[int] = None,
        on_evict: Optional[Callable[[FlowEntry], None]] = None,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError(f"classifier capacity must be >= 1, got {capacity}")
        # An OrderedDict, not a plain dict: eviction pops from the front,
        # and a plain dict's iterator re-walks every tombstoned slot to
        # find the first live entry — after ~100k front-pops each
        # eviction scans an ever-growing dead prefix (quadratic churn).
        # The linked-list order makes popitem(last=False) O(1) forever.
        self._flows: "OrderedDict[int, FlowEntry]" = OrderedDict()
        self.capacity = capacity
        self.on_evict = on_evict
        self.evictions = 0
        self.collisions = 0
        self.packets_classified = 0
        self._m_classified = metrics.counter(
            "classifier_packets_total", "packets assigned a FID"
        )
        self._m_collisions = metrics.counter(
            "classifier_fid_collisions_total", "live-flow 20-bit FID collisions"
        )
        self._m_flows = metrics.gauge(
            "classifier_tracked_flows", "flow entries currently tracked"
        )

    def __len__(self) -> int:
        return len(self._flows)

    def flow(self, fid: int) -> Optional[FlowEntry]:
        return self._flows.get(fid)

    def classify(self, packet: Packet, meter: CycleMeter = NULL_METER) -> Classification:
        """Assign the FID, update connection state, attach metadata."""
        self.packets_classified += 1
        self._m_classified.inc()
        meter.charge(Operation.PARSE)  # the single parse of the fast design
        five_tuple = packet.five_tuple()
        fid = fid_of(five_tuple)
        meter.charge(Operation.FID_HASH)

        entry = self._flows.get(fid)
        if entry is not None and entry.five_tuple != five_tuple:
            # 20-bit collision between live flows: pin to the slow path.
            self.collisions += 1
            self._m_collisions.inc()
            packet.metadata["fid"] = fid
            packet.metadata["fid_collision"] = True
            meter.charge(Operation.METADATA_ATTACH)
            return Classification(fid=fid, entry=entry, collided=True)

        if entry is None:
            if self.capacity is not None and len(self._flows) >= self.capacity:
                self._evict_oldest()
            entry = FlowEntry(fid=fid, five_tuple=five_tuple)
            self._flows[fid] = entry
            self._m_flows.set(len(self._flows))
        entry.packets += 1

        is_handshake = False
        is_closing = False
        if five_tuple.protocol == PROTO_TCP and isinstance(packet.l4, TCPHeader):
            if packet.l4.has_flag(TCP_SYN) and not entry.established:
                is_handshake = True
            elif not entry.established:
                entry.established = True
            if packet.l4.has_flag(TCP_FIN) or packet.l4.has_flag(TCP_RST):
                is_closing = True
                entry.closed = True
        else:
            # Connectionless flows: first packet is already the initial one.
            entry.established = True

        packet.metadata["fid"] = fid
        meter.charge(Operation.METADATA_ATTACH)
        return Classification(
            fid=fid,
            entry=entry,
            is_handshake=is_handshake,
            is_closing=is_closing,
        )

    def detach(self, packet: Packet, meter: CycleMeter = NULL_METER) -> None:
        """Remove the FID metadata as the packet leaves the chain (§VI-B)."""
        packet.metadata.pop("fid", None)
        packet.metadata.pop("fid_collision", None)
        meter.charge(Operation.METADATA_DETACH)

    def _evict_oldest(self) -> None:
        """Drop the oldest-inserted entry to make room for a new flow."""
        __, victim = self._flows.popitem(last=False)
        self.evictions += 1
        self._m_flows.set(len(self._flows))
        if self.on_evict is not None:
            self.on_evict(victim)

    def remove_flow(self, fid: int) -> bool:
        """Forget a closed flow (frees the FID for reuse)."""
        removed = self._flows.pop(fid, None) is not None
        if removed:
            self._m_flows.set(len(self._flows))
        return removed

    # -- migration support (repro.scale) -------------------------------------

    def import_flow(self, entry: FlowEntry) -> None:
        """Adopt a migrated flow's connection state.

        Raises if the FID is already owned by a *different* five-tuple on
        this replica — that collision would silently corrupt both flows.
        """
        existing = self._flows.get(entry.fid)
        if existing is not None and existing.five_tuple != entry.five_tuple:
            raise ValueError(
                f"FID {entry.fid} already tracks {existing.five_tuple}; "
                f"cannot import {entry.five_tuple}"
            )
        self._flows[entry.fid] = entry
        self._m_flows.set(len(self._flows))
