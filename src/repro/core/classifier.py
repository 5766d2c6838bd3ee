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

Every live flow owns its FID.  The hash is the flow's *home*; a new flow
whose home is held by a different live five-tuple probes forward
``(home + i) & (FID_SPACE - 1)`` to the first free FID and keeps it for
life.  Only such *displaced* flows enter the five-tuple index
(``_displaced``), so a packet of a flow at home is one dict probe and the
index is read on a home miss or mismatch alone.  A displaced flow pays
one extra ``FID_HASH`` per probe step on every packet (``probes``).

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

# Enum members hoisted off the per-packet path (a class read runs Enum's hook)
_PARSE, _FID_HASH = Operation.PARSE, Operation.FID_HASH
_ATTACH, _DETACH = Operation.METADATA_ATTACH, Operation.METADATA_DETACH

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
    about each flow's home FID.
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
    #: probe steps from the hashed home to ``fid`` (0: the flow sits at home)
    probes: int = 0

    def copy(self) -> "FlowEntry":
        # Every slot holds an immutable value.
        return FlowEntry(
            self.fid, self.five_tuple, self.established, self.closed, self.packets,
            self.probes,
        )


@dataclass(slots=True)
class Classification:
    """What the classifier concluded about one packet."""

    fid: int
    entry: Optional[FlowEntry]
    is_handshake: bool = False
    is_closing: bool = False

class FidSpaceExhausted(RuntimeError):
    """Every FID is held by a live flow: a new one cannot be placed."""


class PacketClassifier:
    """FID assignment, connection tracking and flow cleanup."""

    def __init__(
        self,
        metrics: MetricsRegistry = NULL_REGISTRY,
        capacity: Optional[int] = None,
        on_evict: Optional[Callable[[FlowEntry], None]] = None,
    ):
        if capacity is not None and not 1 <= capacity <= FID_SPACE:
            raise ValueError(
                f"classifier capacity must be in 1..{FID_SPACE}, got {capacity}"
            )
        # An OrderedDict, not a plain dict: eviction pops from the front,
        # and a plain dict's iterator re-walks every tombstoned slot to
        # find the first live entry — after ~100k front-pops each
        # eviction scans an ever-growing dead prefix (quadratic churn).
        # The linked-list order makes popitem(last=False) O(1) forever.
        self._flows: "OrderedDict[int, FlowEntry]" = OrderedDict()
        #: five-tuple -> FID of the flows that do not sit at their home
        #: (exactly the entries with ``probes > 0``)
        self._displaced: Dict[FiveTuple, int] = {}
        self.capacity = capacity
        self.on_evict = on_evict
        self.evictions = 0
        #: probe steps taken placing flows (assignment or import)
        self.collisions = 0
        self.packets_classified = 0
        self._m_classified = metrics.counter(
            "classifier_packets_total", "packets assigned a FID"
        )
        self._m_collisions = metrics.counter(
            "classifier_fid_collisions_total",
            "probe steps past FIDs held by other live flows, at assignment or import",
        )
        self._m_flows = metrics.gauge(
            "classifier_tracked_flows", "flow entries currently tracked"
        )

    def __len__(self) -> int:
        return len(self._flows)

    def flow(self, fid: int) -> Optional[FlowEntry]:
        return self._flows.get(fid)

    def fid_for(self, five_tuple: FiveTuple) -> Optional[int]:
        """The FID a tracked five-tuple owns, or ``None`` if it is not tracked.

        The one five-tuple -> FID lookup: migration, checkpoint capture
        and the inspector resolve through it instead of hashing for
        themselves.
        """
        fid = fid_of(five_tuple)
        entry = self._flows.get(fid)
        if entry is not None and entry.five_tuple == five_tuple:
            return fid
        return self._displaced.get(five_tuple)

    def classify(self, packet: Packet, meter: CycleMeter = NULL_METER) -> Classification:
        """Assign the FID, update connection state, attach metadata."""
        self.packets_classified += 1
        self._m_classified.inc()
        meter.charge(_PARSE)  # the single parse of the fast design
        five_tuple = packet.five_tuple()
        fid = fid_of(five_tuple)
        entry = self._flows.get(fid)
        if entry is None or entry.five_tuple != five_tuple:
            # Home miss or mismatch: a displaced flow (its home may have
            # emptied since — that is not a new flow), or a new one.
            fid = self._displaced.get(five_tuple) if self._displaced else None
            if fid is None:
                if self.capacity is not None and len(self._flows) >= self.capacity:
                    self._evict_oldest()
                entry = FlowEntry(fid=-1, five_tuple=five_tuple)
                fid = self._place(entry)
            else:
                entry = self._flows[fid]
        meter.charge(_FID_HASH, 1 + entry.probes)
        entry.packets += 1

        is_handshake = False
        is_closing = False
        l4 = packet.l4
        if five_tuple.protocol == PROTO_TCP and isinstance(l4, TCPHeader):
            flags = l4.flags
            if flags & TCP_SYN and not entry.established:
                is_handshake = True
            elif not entry.established:
                entry.established = True
            if flags & (TCP_FIN | TCP_RST):
                is_closing = True
                entry.closed = True
        else:
            # Connectionless flows: first packet is already the initial one.
            entry.established = True

        packet.metadata["fid"] = fid
        meter.charge(_ATTACH)
        return Classification(
            fid=fid,
            entry=entry,
            is_handshake=is_handshake,
            is_closing=is_closing,
        )

    def detach(self, packet: Packet, meter: CycleMeter = NULL_METER) -> None:
        """Remove the FID metadata as the packet leaves the chain (§VI-B)."""
        packet.metadata.pop("fid", None)
        meter.charge(_DETACH)

    def _place(self, entry: FlowEntry) -> int:
        """Give an untracked flow its FID: home, or the first free one after.

        Raises :class:`FidSpaceExhausted` before touching the table when
        no FID is free — the probe loop below must terminate.
        """
        flows = self._flows
        if len(flows) >= FID_SPACE:
            raise FidSpaceExhausted(
                f"all {FID_SPACE} FIDs are live; cannot place {entry.five_tuple}"
            )
        home = fid = fid_of(entry.five_tuple)
        probes = 0
        while fid in flows:
            probes += 1
            fid = (home + probes) & (FID_SPACE - 1)
        entry.fid = fid
        entry.probes = probes
        flows[fid] = entry
        if probes:
            self._displaced[entry.five_tuple] = fid
            self.collisions += probes
            self._m_collisions.inc(probes)
        self._m_flows.set(len(flows))
        return fid

    def _evict_oldest(self) -> None:
        """Drop the oldest-inserted entry to make room for a new flow."""
        __, victim = self._flows.popitem(last=False)
        if victim.probes:
            del self._displaced[victim.five_tuple]
        self.evictions += 1
        self._m_flows.set(len(self._flows))
        if self.on_evict is not None:
            self.on_evict(victim)

    def remove_flow(self, fid: int) -> bool:
        """Forget a closed flow (frees the FID for reuse)."""
        entry = self._flows.pop(fid, None)
        if entry is None:
            return False
        if entry.probes:
            del self._displaced[entry.five_tuple]
        self._m_flows.set(len(self._flows))
        return True

    # -- migration support (repro.scale) -------------------------------------

    def import_flow(self, entry: FlowEntry) -> int:
        """Adopt a migrated flow's connection state; returns its FID *here*.

        A five-tuple this table already tracks keeps its FID and has its
        entry replaced; any other is placed like a new flow, so the FID
        may differ from the source's and the caller re-keys what it
        carries under the old one (:meth:`SpeedyBox.import_flow`).
        """
        fid = self.fid_for(entry.five_tuple)
        if fid is None:
            return self._place(entry)
        entry.fid = fid
        entry.probes = self._flows[fid].probes
        self._flows[fid] = entry
        return fid
