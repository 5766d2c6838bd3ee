"""Golden digests of the synthesized datacenter trace.

The trace the Fig. 9 / Table III workloads replay is a pure function of
its config and rule set.  These digests were computed at the commit
*before* payload synthesis became a bulk kernel (PR 14), from the
per-byte ``random.choice`` generator, and pin five-tuples, TCP flags,
payload bytes and ``timestamp_ns`` of every packet.  A change that moves
one of them changes the synthesized traffic — every ``sim_digest`` built
on it moves too — so updating a value here is a deliberate, reviewed act.
"""

import hashlib
import struct

import pytest

from repro.nf.snort.rules import parse_rules
from repro.traffic import DatacenterTraceConfig, DatacenterTraceGenerator

#: the rule set ``bench/workloads.py`` synthesizes both trace workloads against
RULES = parse_rules(
    """
alert tcp any any -> any any (msg:"c2 beacon"; content:"malware-beacon"; sid:9001;)
log tcp any any -> any any (msg:"http get"; content:"GET /"; sid:9002;)
"""
)

GOLDEN = {
    # (flows, seed): (packets, sha256)
    # dc_chain's trace
    (600, 2019): (10291, "abb0a453d5d3399aa95d528a785d8b64ec05835ac6066d57a912cd645d3c9b10"),
    # dc_obs's trace (before its 3400-packet budget cuts it)
    (230, 2019): (3880, "0ff6994d21a3ffe8f237900c75e0548209851dde06fd31a57bd4cb12a6f50850"),
    # the held-out seed
    (600, 7): (10643, "8d7b141c621e3f2b8737770a7d18175b56a29dbe4fc58418f1f83cc285465087"),
    (230, 7): (3913, "e847c9739af1861d3a0c3898ea80deda68355891a0642c110e9219108b8e5ff7"),
}


def trace_config(flows: int, seed: int) -> DatacenterTraceConfig:
    """The bench trace config at ``flows``/``seed``."""
    return DatacenterTraceConfig(
        flows=flows,
        seed=seed,
        lognormal_mu=2.3,
        lognormal_sigma=0.8,
        large_packet_fraction=0.25,
        max_packets_per_flow=120,
    )


def trace_digest(flows: int, seed: int):
    """(packet count, sha256) of the bench trace config at ``flows``/``seed``."""
    packets = DatacenterTraceGenerator(trace_config(flows, seed), RULES).timestamped_packets()
    digest = hashlib.sha256()
    for packet in packets:
        digest.update(
            struct.pack(
                "<IIHHBBdI",
                *packet.five_tuple(),
                packet.l4.flags,
                packet.timestamp_ns,
                len(packet.payload),
            )
        )
        digest.update(packet.payload)
    return len(packets), digest.hexdigest()


@pytest.mark.parametrize("flows,seed", sorted(GOLDEN))
def test_trace_matches_golden_digest(flows, seed):
    assert trace_digest(flows, seed) == GOLDEN[(flows, seed)]
