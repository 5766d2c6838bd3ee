"""Flow-aware packet generation.

A :class:`FlowSpec` declares one flow: its five-tuple, packet count,
payload policy and TCP lifecycle (SYN handshake, FIN teardown).
:class:`TrafficGenerator` expands specs into packet sequences —
sequentially flow-by-flow or interleaved round-robin, both
deterministic — standing in for the paper's DPDK packet generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Union

from repro.net.flow import FiveTuple, PROTO_TCP, PROTO_UDP
from repro.net.headers import TCP_ACK, TCP_FIN, TCP_SYN
from repro.net.packet import HeaderStamp, Packet

PayloadPolicy = Union[bytes, Callable[[int], bytes]]


@dataclass
class FlowSpec:
    """One flow's worth of traffic.

    ``packets`` counts *data* packets; the SYN and FIN packets implied by
    ``handshake``/``fin`` come on top.  ``payload`` is either a fixed
    byte string for every packet or a callable mapping the data-packet
    index (0-based) to that packet's payload.
    """

    five_tuple: FiveTuple
    packets: int = 1
    payload: PayloadPolicy = b""
    handshake: bool = False
    fin: bool = False

    @classmethod
    def tcp(
        cls,
        src_ip: str,
        dst_ip: str,
        src_port: int,
        dst_port: int,
        packets: int = 1,
        payload: PayloadPolicy = b"",
        handshake: bool = False,
        fin: bool = False,
    ) -> "FlowSpec":
        return cls(
            FiveTuple.make(src_ip, dst_ip, src_port, dst_port, PROTO_TCP),
            packets=packets,
            payload=payload,
            handshake=handshake,
            fin=fin,
        )

    @classmethod
    def udp(
        cls,
        src_ip: str,
        dst_ip: str,
        src_port: int,
        dst_port: int,
        packets: int = 1,
        payload: PayloadPolicy = b"",
    ) -> "FlowSpec":
        return cls(
            FiveTuple.make(src_ip, dst_ip, src_port, dst_port, PROTO_UDP),
            packets=packets,
            payload=payload,
        )

    def payload_for(self, index: int) -> bytes:
        if callable(self.payload):
            return self.payload(index)
        return self.payload

    @property
    def total_packets(self) -> int:
        extra = (1 if self.handshake else 0) + (1 if self.fin else 0)
        return self.packets + extra


def packets_for_flow(
    spec: FlowSpec, timestamps: Optional[Sequence[float]] = None
) -> List[Packet]:
    """Expand one flow spec into its packet sequence.

    The flow's headers are validated once and stamped onto each packet;
    ``timestamps``, when given, are the packets' ``timestamp_ns`` in order.
    """
    if spec.packets < 0:
        raise ValueError(f"negative packet count: {spec.packets}")
    is_tcp = spec.five_tuple.protocol == PROTO_TCP
    if spec.handshake and not is_tcp:
        raise ValueError("handshake requested for a non-TCP flow")
    if spec.fin and not is_tcp:
        raise ValueError("fin requested for a non-TCP flow")
    if not spec.total_packets:
        return []
    stamp = HeaderStamp(spec.five_tuple).packet
    times = iter(timestamps) if timestamps is not None else repeat(0.0)
    packets: List[Packet] = []
    seq = 1000

    if spec.handshake:
        packets.append(stamp(b"", TCP_SYN, seq, next(times)))
        seq += 1

    for index in range(spec.packets):
        payload = spec.payload_for(index)
        packets.append(stamp(payload, TCP_ACK, seq, next(times)))
        seq += max(len(payload), 1)

    if spec.fin:
        packets.append(stamp(b"", TCP_FIN | TCP_ACK, seq, next(times)))
    return packets


class TrafficGenerator:
    """Deterministic packet stream over a set of flow specs.

    Interleave modes: ``sequential`` (flow by flow), ``round_robin`` (one
    packet per live flow per turn), ``shuffled`` (seeded random merge —
    per-flow packet order always preserved, global order randomised).
    """

    def __init__(self, flows: Sequence[FlowSpec], interleave: str = "sequential", seed: int = 1):
        if interleave not in ("sequential", "round_robin", "shuffled"):
            raise ValueError(f"unknown interleave mode {interleave!r}")
        self.flows: List[FlowSpec] = list(flows)
        self.interleave = interleave
        self.seed = seed

    @property
    def total_packets(self) -> int:
        return sum(spec.total_packets for spec in self.flows)

    def __iter__(self) -> Iterator[Packet]:
        per_flow = [packets_for_flow(spec) for spec in self.flows]
        if self.interleave == "sequential":
            for sequence in per_flow:
                yield from sequence
            return
        if self.interleave == "shuffled":
            import random

            rng = random.Random(self.seed)
            cursors = [0] * len(per_flow)
            live = [i for i, seq in enumerate(per_flow) if seq]
            while live:
                flow_index = rng.choice(live)
                yield per_flow[flow_index][cursors[flow_index]]
                cursors[flow_index] += 1
                if cursors[flow_index] == len(per_flow[flow_index]):
                    live.remove(flow_index)
            return
        # Round-robin: one packet from each live flow per turn, preserving
        # per-flow order — the classic pktgen multi-flow pattern.
        cursors = [0] * len(per_flow)
        remaining = sum(len(sequence) for sequence in per_flow)
        while remaining:
            for flow_index, sequence in enumerate(per_flow):
                cursor = cursors[flow_index]
                if cursor < len(sequence):
                    yield sequence[cursor]
                    cursors[flow_index] = cursor + 1
                    remaining -= 1

    def packets(self) -> List[Packet]:
        return list(self)


def clone_packets(packets: Iterable[Packet]) -> List[Packet]:
    """Deep-copy a packet list so baseline and SpeedyBox runs can consume
    byte-identical but independent streams."""
    return [packet.clone() for packet in packets]
