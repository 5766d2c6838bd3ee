"""Property test: probing holds under anything a flow table lives through.

Every home FID is folded to three bits (``three_bit_homes``), so with up
to twelve flows nearly every one is displaced and the probe chains of
neighbouring homes run into each other.  Hypothesis then interleaves,
arbitrarily:

- traffic — TCP with and without handshake and FIN, UDP, stray RSTs,
  connections that reopen on the five-tuple they just closed;
- classifier and Global-MAT eviction, under bounds 1-5 on either table;
- migration of a live flow onto a replica whose FIDs are taken;
- checkpoint -> kill -> restore of a whole replica onto the other one.

Two replicas serve the flows; each is a compiling ``SpeedyBox`` and an
``InterpretedSpeedyBox`` driven in lockstep.  After every step: each
live flow owns one FID, the displaced index is exactly the entries with
``probes > 0``, nothing keyed by FID outlives its classifier entry
(``assert_classifier_invariants``); every packet leaves both runtimes as
it leaves the original chain, byte for byte, with equal reports; and at
the end the NF state of every flow, wherever it lives now, is the
original chain's.  Any exception fails the test: none is expected, typed
or not.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.actions import Modify
from repro.core.framework import ServiceChain, SpeedyBox
from repro.ft import capture_flow, restore_flow
from repro.net.flow import PROTO_TCP
from repro.net.headers import TCP_RST
from repro.net.packet import Packet
from repro.nf import IPFilter, Monitor, SyntheticNF
from repro.nf.ipfilter import AclRule, Verdict
from repro.scale import FlowMigrator, chain_state_snapshot
from repro.traffic import FlowSpec
from repro.traffic.generator import packets_for_flow
from tests.integration.helpers import (
    InterpretedSpeedyBox,
    assert_classifier_invariants,
    report_view,
    three_bit_homes,
)


def build_chain():
    """A rewrite, per-flow state behind a state function, and a drop rule."""
    return [
        SyntheticNF("ttl", action=Modify.ttl_dec(), sf_payload_class=None),
        Monitor("mon"),
        IPFilter("fw", rules=[AclRule.make(dst_ports=(9999, 9999), verdict=Verdict.DROP)]),
    ]


@st.composite
def flow_specs(draw):
    specs = []
    for index in range(draw(st.integers(min_value=2, max_value=12))):
        tcp = draw(st.booleans())
        make = FlowSpec.tcp if tcp else FlowSpec.udp
        lifecycle = (
            {"handshake": draw(st.booleans()), "fin": draw(st.booleans())} if tcp else {}
        )
        specs.append(
            make(
                f"10.9.{index}.1",
                "99.9.0.1",
                5000 + index,
                draw(st.sampled_from([80, 443, 9999])),
                packets=draw(st.integers(min_value=1, max_value=5)),
                payload=b"probe",
                **lifecycle,
            )
        )
    return specs


bounds = st.fixed_dictionaries(
    {
        "max_flows": st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
        "max_tracked_flows": st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    }
)
steps = st.lists(
    st.tuples(
        st.sampled_from(["packet"] * 6 + ["rst", "migrate", "migrate", "failover"]),
        st.integers(min_value=0, max_value=11),
    ),
    min_size=1,
    max_size=90,
)


class Replica:
    """One replica, twice: the compiling runtime and its interpreted oracle."""

    def __init__(self, sbox_kwargs):
        self.runtimes = (
            SpeedyBox(build_chain(), **sbox_kwargs),
            InterpretedSpeedyBox(build_chain(), **sbox_kwargs),
        )


@settings(max_examples=60, deadline=None)
@given(specs=flow_specs(), sbox_kwargs=bounds, steps=steps)
def test_probing_survives_traffic_eviction_migration_and_failover(specs, sbox_kwargs, steps):
    with three_bit_homes():
        baseline = ServiceChain(build_chain())
        replicas = [Replica(sbox_kwargs), Replica(sbox_kwargs)]
        flows = [spec.five_tuple for spec in specs]
        streams = [itertools.cycle(packets_for_flow(spec)) for spec in specs]
        home = {flow: index % 2 for index, flow in enumerate(flows)}

        def check():
            for replica in replicas:
                for runtime in replica.runtimes:
                    assert_classifier_invariants(runtime)

        def tracked():
            return [
                flow
                for flow in flows
                if replicas[home[flow]].runtimes[0].classifier.fid_for(flow) is not None
            ]

        # every flow opens before the storm, so there is state to move
        opening = [("packet", index) for index in range(len(flows))] * 2
        for kind, pick in opening + steps:
            flow = flows[pick % len(flows)]
            if kind == "migrate":
                flow = (tracked() or flows)[pick % len(tracked() or flows)]
                src, dst = replicas[home[flow]], replicas[1 - home[flow]]
                moved = [
                    FlowMigrator().migrate(src_runtime, dst_runtime, flow).fids
                    for src_runtime, dst_runtime in zip(src.runtimes, dst.runtimes)
                ]
                assert moved[0] == moved[1]
                home[flow] = 1 - home[flow]
            elif kind == "failover":
                dead, survivor = replicas[pick % 2], replicas[1 - pick % 2]
                orphans = [flow for flow in flows if home[flow] == pick % 2]
                for dead_runtime, live_runtime in zip(dead.runtimes, survivor.runtimes):
                    checkpoints = [capture_flow(dead_runtime, flow) for flow in orphans]
                    for checkpoint in checkpoints:  # the replica is gone; restore what was saved
                        if checkpoint is not None:
                            restore_flow(checkpoint, live_runtime)
                replicas[pick % 2] = Replica(sbox_kwargs)
                home.update({flow: 1 - pick % 2 for flow in orphans})
            else:
                if kind == "rst" and flow.protocol == PROTO_TCP:
                    packet = Packet.from_five_tuple(flow, tcp_flags=TCP_RST)
                else:
                    packet = next(streams[pick % len(flows)])
                expected = packet.clone()
                baseline.process(expected)
                compiled, interpreted = replicas[home[flow]].runtimes
                served = [packet.clone(), packet.clone()]
                reports = [compiled.process(served[0]), interpreted.process(served[1])]
                assert report_view(reports[0]) == report_view(reports[1])
                for got in served:
                    assert got.dropped == expected.dropped
                    if not expected.dropped:
                        assert got.serialize() == expected.serialize()
            check()

        for replica in replicas:
            compiled, interpreted = replica.runtimes
            assert compiled.stats() == interpreted.stats()
            assert list(compiled.classifier._flows.items()) == list(
                interpreted.classifier._flows.items()
            )
        for flow in flows:
            want = chain_state_snapshot(baseline.nfs, flow)
            for runtime in replicas[home[flow]].runtimes:
                assert chain_state_snapshot(runtime.nfs, flow) == want
