"""Oracle: a recovery replays each logged packet as it was offered.

The cluster logs every dispatched packet in its replica's
:class:`~repro.ft.pktlog.PacketLog` before the pipeline processes it,
and the pipeline then rewrites that very packet in place.  The log
keeps a pre-image, not the packet.  Over a NAT chain, where processing
rewrites the source, and a VPN ingress chain, where it pushes an
Authentication Header, with a FIN on one direction of every connection
and the other left open, this file checks that every entry a recovery
reads back serializes to the bytes its packet was offered with.  A
replica holding logged traffic is killed before any checkpoint, so the
recovery replays it.  A log that kept the packet itself, or any copy
taken after processing, replays the rewritten bytes and fails here.
"""

from __future__ import annotations

import pytest

from repro.ft import FaultTolerance
from repro.net.headers import TCP_FIN
from repro.scale import ScaleCluster
from repro.traffic import FlowSpec, TrafficGenerator
from tests.property.test_flow_record_copy import nat_chain, vpn_ingress_chain


def connections(count: int) -> list:
    """TCP connections closed by the initiator's FIN, each with a few
    packets on the raw reverse tuple, which keep it open."""
    specs = []
    for index in range(count):
        spec = FlowSpec.tcp(
            f"10.7.{index}.9", "99.7.0.1", 5000 + index, 80,
            packets=4, payload=b"offered", handshake=True, fin=True,
        )
        specs += [spec, FlowSpec(spec.five_tuple.reversed(), packets=2, payload=b"reply")]
    return TrafficGenerator(specs, interleave="round_robin", seed=7).packets()


def offer_then_recover(chain_factory):
    """Offer the traffic, kill the replica whose log holds the most and
    recover it.  Returns (the bytes offered per (replica, seq), the bytes
    of every entry the recovery read per (replica, seq), the packets
    processing rewrote, the recovery report)."""
    cluster = ScaleCluster(chain_factory, replicas=2)
    ft = FaultTolerance(cluster, checkpoint_interval=10**6)
    offered, rewritten = {}, 0
    for packet in connections(6):
        wire = packet.clone().serialize()
        before = {rid: log.last_seq for rid, log in ft.logs.items()}
        cluster.process(packet)
        rewritten += packet.serialize() != wire
        for rid, log in ft.logs.items():
            if log.last_seq != before.get(rid, 0):
                offered[rid, log.last_seq] = wire
    victim = max(ft.logs, key=lambda rid: len(ft.logs[rid]))
    log, read = ft.logs[victim], {}

    def entries():
        found = type(log).entries(log)
        for entry in found:
            read[victim, entry.seq] = entry.packet.clone().serialize()
        return found

    log.entries = entries
    ft.kill(victim)
    report = ft.recover(victim)
    return offered, read, rewritten, report


@pytest.mark.parametrize("chain", [nat_chain, vpn_ingress_chain], ids=["nat", "vpn-encap"])
def test_a_replayed_packet_carries_its_offered_bytes(chain):
    offered, read, rewritten, report = offer_then_recover(chain)
    assert rewritten > 0  # processing changed the packets it was handed
    assert report.packets_replayed > 0 and len(read) >= report.packets_replayed
    fins = 0
    for place, wire in read.items():
        assert wire == offered[place], place
        fins += wire[47] & TCP_FIN != 0  # the TCP flags byte behind 14 + 20 + 13 bytes
    assert fins > 0  # a FIN was read back for replay
