"""Columnar traffic: struct-of-arrays packet batches (batch engine, part 1).

A :class:`PacketBatch` is the column-oriented counterpart of a
``TrafficGenerator`` packet list: per-flow five-tuple columns plus
per-packet (flow index, kind, ordinal, seq, timestamp) columns —
no :class:`~repro.net.packet.Packet` objects anywhere.  The batch
fast-path lane (``repro.core.fastpath.BatchLane``) consumes the columns
directly; any packet the lane must run through the interpreted runtime
(initial packets, FIN/RST, fast-path misses) is materialized on demand
by :meth:`PacketBatch.materialize`, byte-identical to what the per-packet
generator would have produced — that identity is what makes the legacy
per-packet path a valid equivalence oracle for batch runs.

One function builds a batch: :func:`uniform_batch` synthesizes N
identical-shape flows vectorized (the millions-of-flows benchmark path;
no per-flow Python objects are created, so 1M flows cost four int64
columns and two bytes a flow).  The tests
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

#: the largest value each narrow per-packet column holds
_ORDINAL_MAX = 2**31 - 1
_SEQ_MAX = 2**32 - 1


class PacketBatch:
    """A struct-of-arrays batch of packets over a columnar flow table.

    Every column is an ndarray of fixed dtype, each as wide as what it
    holds and no wider — the per-packet columns are what a run holds
    for every packet of the trace, 17 bytes a packet:

    - ``flow_src_ip``, ``flow_dst_ip``, ``flow_src_port``,
      ``flow_dst_port``: int64, one row per flow.  The lane hashes them
      to FIDs (``fid_column`` walks them as int64) and reads them back
      as Python ints, so per flow they stay wide;
    - ``flow_proto``, ``flow_handshake``: uint8 (a protocol number, a
      0/1 flag);
    - ``flow_index``: int64, the packet's flow row.  The lane gathers
      per-flow columns with it chunk by chunk, and numpy casts a
      narrower index to its native intp first: an int32 column measured
      2x slower on those gathers;
    - ``kind``: uint8, :data:`KIND_SYN` / :data:`KIND_DATA` /
      :data:`KIND_FIN`;
    - ``ordinal``: int32, the packet's position in its flow (under
      2**31 packets a flow; :func:`uniform_batch` refuses more);
    - ``seq``: uint32, the TCP sequence number — TCP's own width, so a
      value that fits the column fits the header (:func:`uniform_batch`
      refuses a TCP flow whose sequence numbers would pass 2**32 - 1,
      as ``TCPHeader.pack`` would for the per-packet generator; a UDP
      packet's is never read);
    - ``timestamp_ns``: float64 and optional (``None`` as built; a trace
      sets it).

    A packet's size is not a column: a data packet carries its flow's
    payload (:meth:`payload_for`), the others none.
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
    and ``block < 1`` raise ``ValueError``, and so does a flow whose
    ordinals or (TCP) sequence numbers would not fit their int32 /
    uint32 columns (naming ``packets_per_flow``, and the payload length
    by which each data packet advances the sequence number).
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
    hs = 1 if handshake else 0
    total_per_flow = packets_per_flow + hs + (1 if fin else 0)
    step = max(len(payload), 1)
    if total_per_flow - 1 > _ORDINAL_MAX:
        raise ValueError(
            f"packets_per_flow={packets_per_flow!r}: a flow's packet ordinals "
            f"must fit int32 (at most {_ORDINAL_MAX + 1} packets a flow)"
        )
    # The FIN's seq, or the last data packet's: the largest in a flow.
    last_seq = _BASE_SEQ + hs + max(packets_per_flow - (0 if fin else 1), 0) * step
    if protocol == PROTO_TCP and last_seq > _SEQ_MAX:
        raise ValueError(
            f"packets_per_flow={packets_per_flow!r} with a {len(payload)}-byte "
            f"payload puts sequence number {last_seq} past TCP's 2**32 - 1"
        )
    if block is None or block > flows:
        block = flows if interleave == "round_robin" else 1
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
    flow_handshake = np.full(flows, hs, dtype=np.uint8)

    # Blocks of ``block`` flows run back to back, round-robin inside a
    # block (ordinal-major: row o of a block is every flow's o-th
    # packet); a block of one flow is that flow's packets in order.
    n = flows * total_per_flow
    full = flows // block if flows else 0
    head = full * block * total_per_flow
    width = flows - full * block
    flow_index = np.empty(n, dtype=np.int64)
    if full:
        flow_index[:head].reshape(full, total_per_flow, block)[...] = np.arange(
            full * block, dtype=np.int64
        ).reshape(full, 1, block)
    if head < n:
        flow_index[head:].reshape(total_per_flow, width)[...] = np.arange(
            full * block, flows, dtype=np.int64
        )

    def by_ordinal(values):
        """A per-packet column from its value at each ordinal, written
        by broadcast: a gather through the ordinal column would first
        cast that int32 index to a full-length intp copy."""
        column = np.empty(n, dtype=values.dtype)
        if full:
            column[:head].reshape(full, total_per_flow, block)[...] = values.reshape(1, -1, 1)
        if head < n:
            column[head:].reshape(total_per_flow, width)[...] = values.reshape(-1, 1)
        return column

    # kind and seq are functions of the ordinal alone.
    rows = np.arange(total_per_flow, dtype=np.int64)
    kind_of = np.full(total_per_flow, KIND_DATA, dtype=np.uint8)
    if handshake:
        kind_of[0] = KIND_SYN
    if fin:
        kind_of[-1] = KIND_FIN
    data = kind_of == KIND_DATA
    seq_of = np.full(total_per_flow, _BASE_SEQ, dtype=np.int64)
    seq_of[data] = _BASE_SEQ + hs + (rows[data] - hs) * step
    if fin:
        seq_of[-1] = _BASE_SEQ + hs + packets_per_flow * step
    return PacketBatch(
        flow_src_ip,
        flow_dst_ip,
        flow_src_port,
        flow_dst_port,
        flow_proto,
        flow_handshake,
        flow_index,
        by_ordinal(kind_of),
        by_ordinal(rows.astype(np.int32)),
        by_ordinal(seq_of.astype(np.uint32)),
        uniform_payload=payload,
    )
