"""Columnar traffic: struct-of-arrays packet batches (batch engine, part 1).

A :class:`PacketBatch` is the column-oriented counterpart of a
``TrafficGenerator`` packet list: per-flow five-tuple columns plus
per-packet (flow index, kind, ordinal, seq, size, timestamp) columns —
no :class:`~repro.net.packet.Packet` objects anywhere.  The batch
fast-path lane (``repro.core.fastpath.BatchLane``) consumes the columns
directly; any packet the lane must run through the interpreted runtime
(initial packets, FIN/RST, fast-path misses) is materialized on demand
by :meth:`PacketBatch.materialize`, byte-identical to what the per-packet
generator would have produced — that identity is what makes the legacy
per-packet path a valid equivalence oracle for batch runs.

Builders:

- :func:`uniform_batch` — vectorized synthesis of N identical-shape
  flows (the millions-of-flows benchmark path; no per-flow Python
  objects are created, so 1M flows cost three int64 columns);
- :func:`batch_from_specs` — expand :class:`~repro.traffic.generator.FlowSpec`
  lists with the same interleave modes as :class:`TrafficGenerator`
  (``sequential`` / ``round_robin`` / ``shuffled``), used by the
  equivalence and property tests.

"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Union

from repro.net.addresses import ip_to_int
from repro.net.flow import FiveTuple, PROTO_TCP, PROTO_UDP
from repro.net.headers import TCP_ACK, TCP_FIN, TCP_SYN
from repro.net.packet import Packet
from repro.traffic.generator import FlowSpec, PayloadPolicy
from repro.vector import np

#: per-packet kind column values
KIND_SYN = 0
KIND_DATA = 1
KIND_FIN = 2

_BASE_SEQ = 1000


class PacketBatch:
    """A struct-of-arrays batch of packets over a columnar flow table.

    Every column is an ndarray of fixed dtype: int64, except uint8 for
    ``flow_proto``, ``flow_handshake`` and ``kind`` and float64 for the
    optional ``timestamp_ns``.
    """

    __slots__ = (
        "flow_src_ip",
        "flow_dst_ip",
        "flow_src_port",
        "flow_dst_port",
        "flow_proto",
        "flow_handshake",
        "_payloads",
        "_uniform_payload",
        "flow_index",
        "kind",
        "ordinal",
        "seq",
        "size",
        "timestamp_ns",
        "_five_tuples",
        "_ft_getters",
    )

    def __init__(
        self,
        flow_src_ip,
        flow_dst_ip,
        flow_src_port,
        flow_dst_port,
        flow_proto,
        flow_handshake,
        flow_index,
        kind,
        ordinal,
        seq,
        size,
        timestamp_ns=None,
        payloads: Optional[List[PayloadPolicy]] = None,
        uniform_payload: bytes = b"",
    ):
        self.flow_src_ip = flow_src_ip
        self.flow_dst_ip = flow_dst_ip
        self.flow_src_port = flow_src_port
        self.flow_dst_port = flow_dst_port
        self.flow_proto = flow_proto
        self.flow_handshake = flow_handshake
        self._payloads = payloads
        self._uniform_payload = uniform_payload
        self.flow_index = flow_index
        self.kind = kind
        self.ordinal = ordinal
        self.seq = seq
        self.size = size
        self.timestamp_ns = timestamp_ns
        #: lazily built FiveTuple cache for flows the scalar path touches
        self._five_tuples: dict = {}
        self._ft_getters = None

    # -- shape ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.flow_index)

    @property
    def flow_count(self) -> int:
        return len(self.flow_src_ip)

    def five_tuple_of(self, flow: int) -> FiveTuple:
        """The flow's five-tuple (interned per batch)."""
        cache = self._five_tuples
        cached = cache.get(flow)
        if cached is None:
            if len(cache) > 65536:
                # Bounded interning: at millions of scalar-touched flows
                # the cache would grow without limit; rebuilt tuples are
                # value-equal, which is all any consumer relies on.
                cache.clear()
            getters = self._ft_getters
            if getters is None:
                # ndarray.item(i) yields a Python scalar in one C call —
                # noticeably cheaper per admission than int(arr[i]).
                getters = self._ft_getters = tuple(
                    column.item
                    for column in (
                        self.flow_src_ip,
                        self.flow_dst_ip,
                        self.flow_src_port,
                        self.flow_dst_port,
                        self.flow_proto,
                    )
                )
            cached = FiveTuple(
                getters[0](flow),
                getters[1](flow),
                getters[2](flow),
                getters[3](flow),
                getters[4](flow),
            )
            cache[flow] = cached
        return cached

    def payload_for(self, flow: int, data_index: int) -> bytes:
        if self._payloads is None:
            return self._uniform_payload
        policy = self._payloads[flow]
        if callable(policy):
            return policy(data_index)
        return policy

    # -- materialization -----------------------------------------------------

    def materialize(self, index: int) -> Packet:
        """Build packet ``index`` exactly as ``TrafficGenerator`` would."""
        flow = int(self.flow_index[index])
        five_tuple = self.five_tuple_of(flow)
        kind = self.kind[index]
        ts = 0.0 if self.timestamp_ns is None else float(self.timestamp_ns[index])
        if kind == KIND_SYN:
            packet = Packet.from_five_tuple(
                five_tuple, tcp_flags=TCP_SYN, seq=int(self.seq[index])
            )
        elif kind == KIND_FIN:
            packet = Packet.from_five_tuple(
                five_tuple, tcp_flags=TCP_FIN | TCP_ACK, seq=int(self.seq[index])
            )
        else:
            data_index = int(self.ordinal[index]) - int(self.flow_handshake[flow])
            packet = Packet.from_five_tuple(
                five_tuple,
                payload=self.payload_for(flow, data_index),
                tcp_flags=TCP_ACK,
                seq=int(self.seq[index]),
            )
        if ts:
            packet.timestamp_ns = ts
        return packet

    def to_packets(self) -> List[Packet]:
        """Materialize the whole batch (tests and small runs only)."""
        return [self.materialize(i) for i in range(len(self))]

    def packet_view(self) -> "LazyPacketView":
        """A sized, iterable view that materializes packets on the fly.

        This is how the legacy per-packet oracle consumes a batch without
        holding tens of millions of Packet objects at once: ``run_load``
        only needs ``len()`` and one forward iteration.
        """
        return LazyPacketView(self)

    # -- sharding (repro.scale) ----------------------------------------------

    def select_flows(self, flow_ids: Sequence[int]) -> "PacketBatch":
        """The sub-batch of the given flows, preserving packet order.

        Flow indices are remapped to the compacted flow table, so the
        result is a self-contained batch (cluster replicas each get one).
        """
        wanted = np.unique(np.fromiter(flow_ids, np.int64))
        remap = np.full(self.flow_count, -1, dtype=np.int64)
        remap[wanted] = np.arange(len(wanted))
        flow_index = remap[self.flow_index]
        keep = flow_index >= 0
        sub_payloads = None
        if self._payloads is not None:
            sub_payloads = [self._payloads[f] for f in wanted.tolist()]
        return PacketBatch(
            self.flow_src_ip[wanted],
            self.flow_dst_ip[wanted],
            self.flow_src_port[wanted],
            self.flow_dst_port[wanted],
            self.flow_proto[wanted],
            self.flow_handshake[wanted],
            flow_index[keep],
            self.kind[keep],
            self.ordinal[keep],
            self.seq[keep],
            self.size[keep],
            timestamp_ns=None if self.timestamp_ns is None else self.timestamp_ns[keep],
            payloads=sub_payloads,
            uniform_payload=self._uniform_payload,
        )


class LazyPacketView:
    """Sized one-packet-at-a-time view over a :class:`PacketBatch`."""

    __slots__ = ("batch",)

    def __init__(self, batch: PacketBatch):
        self.batch = batch

    def __len__(self) -> int:
        return len(self.batch)

    def __getitem__(self, index: int) -> Packet:
        return self.batch.materialize(index)

    def __iter__(self) -> Iterator[Packet]:
        batch = self.batch
        for i in range(len(batch)):
            yield batch.materialize(i)


def _flow_order(specs: Sequence[FlowSpec], interleave: str, seed: int) -> List[int]:
    """Per-packet flow index sequence, mirroring ``TrafficGenerator``."""
    counts = [spec.total_packets for spec in specs]
    order: List[int] = []
    if interleave == "sequential":
        for flow, count in enumerate(counts):
            order.extend([flow] * count)
    elif interleave == "round_robin":
        remaining = list(counts)
        left = sum(remaining)
        while left:
            for flow in range(len(specs)):
                if remaining[flow]:
                    order.append(flow)
                    remaining[flow] -= 1
                    left -= 1
    elif interleave == "shuffled":
        rng = random.Random(seed)
        remaining = list(counts)
        live = [i for i, count in enumerate(remaining) if count]
        while live:
            flow = rng.choice(live)
            order.append(flow)
            remaining[flow] -= 1
            if not remaining[flow]:
                live.remove(flow)
    else:
        raise ValueError(f"unknown interleave mode {interleave!r}")
    return order


def batch_from_specs(
    specs: Sequence[FlowSpec],
    interleave: str = "sequential",
    seed: int = 1,
) -> PacketBatch:
    """Columnar expansion of flow specs (order-identical to the generator)."""
    for spec in specs:
        if spec.packets < 0:
            raise ValueError(f"negative packet count: {spec.packets}")
        is_tcp = spec.five_tuple.protocol == PROTO_TCP
        if spec.handshake and not is_tcp:
            raise ValueError("handshake requested for a non-TCP flow")
        if spec.fin and not is_tcp:
            raise ValueError("fin requested for a non-TCP flow")

    order = _flow_order(specs, interleave, seed)
    cursor = [0] * len(specs)
    kinds: List[int] = []
    ordinals: List[int] = []
    seqs: List[int] = []
    sizes: List[int] = []
    # Per-flow running seq, matching packets_for_flow: SYN consumes 1,
    # each data packet consumes max(len(payload), 1).
    next_seq = [_BASE_SEQ] * len(specs)
    for flow in order:
        spec = specs[flow]
        ordinal = cursor[flow]
        cursor[flow] = ordinal + 1
        handshake = 1 if spec.handshake else 0
        if spec.handshake and ordinal == 0:
            kinds.append(KIND_SYN)
            seqs.append(next_seq[flow])
            sizes.append(0)
            next_seq[flow] += 1
        elif spec.fin and ordinal == spec.total_packets - 1:
            kinds.append(KIND_FIN)
            seqs.append(next_seq[flow])
            sizes.append(0)
        else:
            payload = spec.payload_for(ordinal - handshake)
            kinds.append(KIND_DATA)
            seqs.append(next_seq[flow])
            sizes.append(len(payload))
            next_seq[flow] += max(len(payload), 1)
        ordinals.append(ordinal)

    i64, u8 = np.int64, np.uint8
    return PacketBatch(
        np.fromiter((spec.five_tuple.src_ip for spec in specs), i64),
        np.fromiter((spec.five_tuple.dst_ip for spec in specs), i64),
        np.fromiter((spec.five_tuple.src_port for spec in specs), i64),
        np.fromiter((spec.five_tuple.dst_port for spec in specs), i64),
        np.fromiter((spec.five_tuple.protocol for spec in specs), u8),
        np.fromiter((1 if spec.handshake else 0 for spec in specs), u8),
        np.fromiter(order, i64),
        np.fromiter(kinds, u8),
        np.fromiter(ordinals, i64),
        np.fromiter(seqs, i64),
        np.fromiter(sizes, i64),
        payloads=[spec.payload for spec in specs],
    )


def uniform_batch(
    flows: int,
    packets_per_flow: int,
    payload: bytes = b"",
    protocol: Union[int, str] = "udp",
    handshake: bool = False,
    fin: bool = False,
    dst_ip: str = "20.0.0.1",
    dst_port: int = 80,
    src_ip_base: str = "10.0.0.0",
    src_port_base: int = 1024,
    interleave: str = "round_robin",
    block: Optional[int] = None,
) -> PacketBatch:
    """Vectorized synthesis of ``flows`` identical-shape flows.

    Flow ``f`` sends from ``src_ip_base + 1 + f`` (wrapping inside the
    /8) with source port ``src_port_base + f % 60000``; all flows share
    the destination, payload and lifecycle flags.  ``interleave`` is
    ``sequential`` or ``round_robin``; ``block`` limits round-robin
    interleaving to blocks of that many flows (blocks run back to back),
    which is how a bounded-table benchmark keeps its *concurrent* flow
    count at the block size while the *total* flow count scales to
    millions.

    Builds pure array columns — no per-flow or per-packet Python
    objects, and no full-length temporary: the high-water mark is the
    columns themselves.  ``flows=0`` is an empty batch; negative counts
    and ``block < 1`` raise ``ValueError``.
    """
    if flows < 0:
        raise ValueError(f"flows must be >= 0, got {flows!r}")
    if packets_per_flow < 0:
        raise ValueError(f"packets_per_flow must be >= 0, got {packets_per_flow!r}")
    if block is not None and block < 1:
        raise ValueError(f"block must be >= 1, got {block!r}")
    if isinstance(protocol, str):
        protocol = {"udp": PROTO_UDP, "tcp": PROTO_TCP}[protocol]
    if protocol != PROTO_TCP and (handshake or fin):
        raise ValueError("handshake/fin require TCP")
    if interleave not in ("sequential", "round_robin"):
        raise ValueError(f"unknown interleave mode {interleave!r}")
    if block is None or block > flows:
        block = flows if interleave == "round_robin" else 1
    total_per_flow = packets_per_flow + (1 if handshake else 0) + (1 if fin else 0)
    step = max(len(payload), 1)
    src_base = ip_to_int(src_ip_base)
    dst = ip_to_int(dst_ip)

    # Keep clear of the all-zero host part; wrap inside the /8.
    flow_src_ip = np.arange(flows, dtype=np.int64)
    flow_src_port = flow_src_ip % 60000
    flow_src_ip %= (1 << 24) - 2
    flow_src_ip += src_base + 1
    flow_src_port += src_port_base
    flow_dst_ip = np.full(flows, dst, dtype=np.int64)
    flow_dst_port = np.full(flows, dst_port, dtype=np.int64)
    flow_proto = np.full(flows, protocol, dtype=np.uint8)
    flow_handshake = np.full(flows, 1 if handshake else 0, dtype=np.uint8)

    # Blocks of ``block`` flows run back to back, round-robin inside a
    # block (ordinal-major: row o of a block is every flow's o-th
    # packet); a block of one flow is that flow's packets in order.
    n = flows * total_per_flow
    flow_index = np.empty(n, dtype=np.int64)
    ordinal = np.empty(n, dtype=np.int64)
    full = flows // block if flows else 0
    head = full * block * total_per_flow
    rows = np.arange(total_per_flow, dtype=np.int64)
    if full:
        flow_index[:head].reshape(full, total_per_flow, block)[...] = np.arange(
            full * block, dtype=np.int64
        ).reshape(full, 1, block)
        ordinal[:head].reshape(full, total_per_flow, block)[...] = rows.reshape(1, -1, 1)
    if head < n:
        width = flows - full * block
        flow_index[head:].reshape(total_per_flow, width)[...] = np.arange(
            full * block, flows, dtype=np.int64
        )
        ordinal[head:].reshape(total_per_flow, width)[...] = rows.reshape(-1, 1)

    # kind, seq and size are functions of the ordinal alone: build them
    # per ordinal and gather.
    kind_of = np.full(total_per_flow, KIND_DATA, dtype=np.uint8)
    if handshake:
        kind_of[0] = KIND_SYN
    if fin:
        kind_of[-1] = KIND_FIN
    hs = 1 if handshake else 0
    data = kind_of == KIND_DATA
    seq_of = np.full(total_per_flow, _BASE_SEQ, dtype=np.int64)
    seq_of[data] = _BASE_SEQ + hs + (rows[data] - hs) * step
    if fin:
        seq_of[-1] = _BASE_SEQ + hs + packets_per_flow * step
    size_of = np.where(data, len(payload), 0).astype(np.int64)
    kind = kind_of[ordinal]
    seq = seq_of[ordinal]
    size = size_of[ordinal]
    return PacketBatch(
        flow_src_ip,
        flow_dst_ip,
        flow_src_port,
        flow_dst_port,
        flow_proto,
        flow_handshake,
        flow_index,
        kind,
        ordinal,
        seq,
        size,
        uniform_payload=payload,
    )
