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

One function builds a batch: :func:`uniform_batch` synthesizes N
identical-shape flows vectorized (the millions-of-flows benchmark path;
no per-flow Python objects are created, so 1M flows cost three int64
columns).  The tests
expand arbitrary flow specs with their own columnar twin of the
generator (``tests/integration/helpers.py``).

"""

from __future__ import annotations

from typing import Iterator, List, Optional, Union

from repro.net.addresses import ip_to_int
from repro.net.flow import FiveTuple, PROTO_TCP, PROTO_UDP
from repro.net.headers import TCP_ACK, TCP_FIN, TCP_SYN
from repro.net.packet import HeaderStamp, Packet
from repro.traffic.generator import PayloadPolicy
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
    optional ``timestamp_ns`` (``None`` as built; a trace sets it).
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
        uniform_payload: bytes = b"",
    ):
        self.flow_src_ip = flow_src_ip
        self.flow_dst_ip = flow_dst_ip
        self.flow_src_port = flow_src_port
        self.flow_dst_port = flow_dst_port
        self.flow_proto = flow_proto
        self.flow_handshake = flow_handshake
        #: per-flow payload policies instead of the one uniform payload
        #: (a batch built from flow specs); the lane admits such a batch
        #: one packet at a time
        self._payloads: Optional[List[PayloadPolicy]] = None
        self._uniform_payload = uniform_payload
        self.flow_index = flow_index
        self.kind = kind
        self.ordinal = ordinal
        self.seq = seq
        self.size = size
        self.timestamp_ns = None
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
        kind = self.kind[index]
        if kind == KIND_SYN:
            payload, flags = b"", TCP_SYN
        elif kind == KIND_FIN:
            payload, flags = b"", TCP_FIN | TCP_ACK
        else:
            data_index = int(self.ordinal[index]) - int(self.flow_handshake[flow])
            payload, flags = self.payload_for(flow, data_index), TCP_ACK
        ts = 0.0 if self.timestamp_ns is None else float(self.timestamp_ns[index])
        return HeaderStamp(self.five_tuple_of(flow)).packet(
            payload, flags, int(self.seq[index]), ts
        )

    def packet_view(self) -> "LazyPacketView":
        """A sized, iterable view that materializes packets on the fly.

        This is how the legacy per-packet oracle consumes a batch without
        holding tens of millions of Packet objects at once: ``run_load``
        only needs ``len()`` and one forward iteration.
        """
        return LazyPacketView(self)


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
