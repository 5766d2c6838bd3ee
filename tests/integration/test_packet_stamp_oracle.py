"""Stamped packets against the build-and-finalize reference.

``packets_for_flow``, ``Packet.from_five_tuple`` and
``PacketBatch.materialize`` stamp each packet from headers a
``HeaderStamp`` validated once per flow, with the IPv4 total length and
checksum filled in as built.  ``reference_packet`` (helpers) is the path
they replaced: fresh headers, then ``finalize()``.  Every packet must
equal its reference as built, on the wire and in every descriptor field.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.flow import PROTO_TCP, PROTO_UDP, FiveTuple
from repro.net.headers import TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN, VxlanHeader
from repro.net.packet import HeaderStamp, Packet
from repro.traffic import DatacenterTraceGenerator, FlowSpec, TrafficGenerator
from tests.integration.helpers import (
    assert_same_packet,
    batch_from_specs,
    reference_packet,
    reference_packets_for_flow,
    reference_trace,
)
from tests.unit.test_traffic_golden import GOLDEN, RULES, trace_config

PAYLOADS = (b"", b"x", bytes(range(256)) * 5 + b"y" * 120)  # 0, 1 and 1 400 bytes


@pytest.mark.parametrize("flows,seed", sorted(GOLDEN))
def test_golden_traces_equal_the_reference(flows, seed):
    packets = DatacenterTraceGenerator(trace_config(flows, seed), RULES).timestamped_packets()
    reference = reference_trace(DatacenterTraceGenerator(trace_config(flows, seed), RULES))
    assert len(packets) == len(reference) == GOLDEN[(flows, seed)][0]
    for packet, expected in zip(packets, reference):
        assert_same_packet(packet, expected)


def flow_specs():
    """TCP flows with and without handshake and FIN, and UDP flows, each
    with 0-, 1- and 1 400-byte payloads."""
    specs = []
    port = 1000
    for payload in PAYLOADS:
        for handshake in (False, True):
            for fin in (False, True):
                port += 1
                specs.append(
                    FlowSpec.tcp("10.0.0.1", "10.9.0.2", port, 80, packets=3, payload=payload,
                                 handshake=handshake, fin=fin)
                )
        port += 1
        specs.append(FlowSpec.udp("10.0.0.1", "10.9.0.2", port, 53, packets=3, payload=payload))
    # a payload policy that varies the length packet by packet
    specs.append(
        FlowSpec.tcp("10.0.0.7", "10.9.0.3", 7, 443, packets=6,
                     payload=lambda index: PAYLOADS[index % 3], handshake=True, fin=True)
    )
    return specs


@pytest.mark.parametrize("interleave", ["sequential", "round_robin", "shuffled"])
def test_traffic_generator_flows_equal_the_reference(interleave):
    specs = flow_specs()
    packets = TrafficGenerator(specs, interleave=interleave, seed=5).packets()
    by_flow = {spec.five_tuple: iter(reference_packets_for_flow(spec)) for spec in specs}
    assert len(packets) == sum(spec.total_packets for spec in specs)
    for packet in packets:
        assert_same_packet(packet, next(by_flow[packet.five_tuple()]))


def test_materialized_batch_equals_the_reference():
    specs = flow_specs()
    batch = batch_from_specs(specs, interleave="round_robin", seed=2)
    expected = TrafficGenerator(specs, interleave="round_robin", seed=2).packets()
    by_flow = {spec.five_tuple: iter(reference_packets_for_flow(spec)) for spec in specs}
    for packet, generated in zip(batch.packet_view(), expected):
        assert_same_packet(packet, next(by_flow[packet.five_tuple()]))
        assert_same_packet(packet, generated)


def test_materialized_timestamps_follow_the_column():
    specs = flow_specs()[:4]
    batch = batch_from_specs(specs)
    batch.timestamp_ns = np.arange(1, len(batch) + 1, dtype=np.float64) * 1_000.0
    for index, packet in enumerate(batch.packet_view()):
        assert packet.timestamp_ns == 1_000.0 * (index + 1)


@pytest.mark.parametrize("protocol", [PROTO_TCP, PROTO_UDP])
@pytest.mark.parametrize("payload", PAYLOADS)
@pytest.mark.parametrize(
    "flags,seq,timestamp_ns",
    [(TCP_ACK, 0, 0.0), (TCP_SYN, 1000, 5.5), (TCP_FIN | TCP_ACK, 2**32 - 1, 1e9), (TCP_RST, 7, 0.0)],
)
def test_from_five_tuple_equals_the_reference(protocol, payload, flags, seq, timestamp_ns):
    five_tuple = FiveTuple.make("192.168.255.254", "10.0.0.1", 65535, 0, protocol)
    packet = Packet.from_five_tuple(five_tuple, payload, flags, seq, timestamp_ns)
    assert_same_packet(packet, reference_packet(five_tuple, payload, flags, seq, timestamp_ns))


def test_one_stamp_serves_many_lengths():
    """The checksum cached for one length is never served for another."""
    five_tuple = FiveTuple.make("10.1.2.3", "10.2.0.9", 20001, 8080)
    stamp = HeaderStamp(five_tuple)
    for length in (26, 1400, 0, 26, 3000, 1400, 1):
        payload = b"Z" * length
        assert_same_packet(
            stamp.packet(payload, TCP_ACK, length, 0.0),
            reference_packet(five_tuple, payload, TCP_ACK, length),
        )


def test_stamped_packets_share_nothing_mutable():
    """Rewriting one stamped packet leaves its flow-mates alone."""
    spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2, packets=3, payload=b"abc")
    first, second, third = TrafficGenerator([spec]).packets()
    first.ip.ttl = 1
    first.l4.src_port = 9
    first.payload = b"changed"
    first.metadata["fid"] = 1
    first.push_encap(VxlanHeader(vni=7))
    reference = reference_packets_for_flow(spec)
    assert_same_packet(second, reference[1])
    assert_same_packet(third, reference[2])
    assert second.ip is not third.ip and second.l4 is not third.l4
    assert second.eth is not third.eth and second.encaps is not third.encaps


def test_unsupported_protocol_is_rejected_as_before():
    five_tuple = FiveTuple.make("10.0.0.1", "10.0.0.2", 0, 0, protocol=1)
    with pytest.raises(ValueError, match="unsupported protocol"):
        Packet.from_five_tuple(five_tuple)
    with pytest.raises(ValueError, match="unsupported protocol"):
        reference_packet(five_tuple)
