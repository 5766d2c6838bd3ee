"""Property tests: a checkpoint is plain data.

A stored :class:`~repro.ft.checkpoint.FlowCheckpoint` names its
handlers (NF name + method name) and holds no code and no NF object, so
it pickles on its own.  Over the five paper NFs (NAT, Maglev, Monitor,
Snort, IPFilter) and Hypothesis traffic this file checks that

1. nothing a stored checkpoint pickles is a callable or a
   :class:`~repro.nf.base.NetworkFunction`;
2. a pickled-and-loaded checkpoint restores to the same
   ``chain_state_snapshot`` and the same continued output as the live
   one, and as a runtime that was never interrupted;
3. one flow's pickled checkpoint does not grow with the number of other
   flows on its replica.
"""

from __future__ import annotations

import io
import pickle

from hypothesis import given, settings, strategies as st

from repro.core.framework import SpeedyBox
from repro.ft import capture_flow, restore_flow
from repro.nf import IPFilter, MaglevLoadBalancer, MazuNAT, Monitor, SnortIDS
from repro.nf.base import NetworkFunction
from repro.nf.maglev import Backend
from repro.scale import chain_state_snapshot
from repro.traffic import FlowSpec, TrafficGenerator

RULES_TEXT = """
alert tcp any any -> any 80 (msg:"exploit attempt"; content:"exploit"; sid:1001;)
log tcp any any -> any 80 (msg:"scanner ua"; content:"nmap"; nocase; sid:2001;)
"""


def paper_chain():
    backends = [Backend.make(f"b{i}", f"192.168.9.{i + 1}", 8080) for i in range(3)]
    return [
        MazuNAT("nat", external_ip="203.0.113.77", port_range=(30000, 60000)),
        MaglevLoadBalancer("lb", backends=backends, table_size=131),
        Monitor("mon"),
        SnortIDS("snort", RULES_TEXT),
        IPFilter("fw"),
    ]


class Inventory(pickle.Pickler):
    """A pickler that keeps every object it is handed to reduce."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.reduced = []

    def reducer_override(self, obj):
        self.reduced.append(obj)
        return NotImplemented


def code_and_nfs(checkpoint) -> list:
    """Callables (classes aside) and NFs among what ``checkpoint`` pickles."""
    pickler = Inventory(io.BytesIO())
    pickler.dump(checkpoint)
    return [
        obj
        for obj in pickler.reduced
        if isinstance(obj, NetworkFunction) or (callable(obj) and not isinstance(obj, type))
    ]


@st.composite
def cases(draw):
    """(packets, flows, cut): capture happens after ``cut`` packets."""
    specs = [
        FlowSpec.tcp(
            f"10.9.{i}.7",
            "99.8.0.1",
            4000 + i,
            80,
            packets=draw(st.integers(min_value=2, max_value=8)),
            payload=draw(st.sampled_from([b"hello", b"an exploit here", b"NMAP scan"])),
            handshake=draw(st.booleans()),
            fin=draw(st.booleans()),
        )
        for i in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    seed = draw(st.integers(min_value=0, max_value=2**16))
    packets = TrafficGenerator(specs, interleave="round_robin", seed=seed).packets()
    cut = draw(st.integers(min_value=1, max_value=len(packets) - 1))
    return packets, sorted({p.five_tuple().canonical() for p in packets}), cut


def continue_run(runtime, packets) -> list:
    outputs = []
    for packet in packets:
        packet = packet.clone()
        runtime.process(packet)
        outputs.append(None if packet.dropped else packet.serialize())
    return outputs


@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_a_pickled_checkpoint_restores_like_the_live_one(case):
    packets, flows, cut = case
    source, reference = SpeedyBox(paper_chain()), SpeedyBox(paper_chain())
    continue_run(source, packets[:cut])
    continue_run(reference, packets[:cut])
    checkpoints = [cp for cp in (capture_flow(source, flow) for flow in flows) if cp]
    for checkpoint in checkpoints:
        assert code_and_nfs(checkpoint) == []
    loaded = pickle.loads(pickle.dumps(checkpoints))

    live, unpickled = SpeedyBox(paper_chain()), SpeedyBox(paper_chain())
    for checkpoint, copy in zip(checkpoints, loaded):
        restore_flow(checkpoint, live)
        restore_flow(copy, unpickled)
    for flow in flows:
        assert chain_state_snapshot(unpickled.nfs, flow) == chain_state_snapshot(
            live.nfs, flow
        )
        assert chain_state_snapshot(unpickled.nfs, flow) == chain_state_snapshot(
            reference.nfs, flow
        )

    if checkpoints:
        expected = continue_run(reference, packets[cut:])
        assert continue_run(live, packets[cut:]) == expected
        assert continue_run(unpickled, packets[cut:]) == expected
        for flow in flows:
            assert chain_state_snapshot(unpickled.nfs, flow) == chain_state_snapshot(
                reference.nfs, flow
            )


def test_a_pickled_checkpoint_does_not_grow_with_its_replica():
    """Regression: each stored handler was a bound method, so one flow's
    pickle carried the whole source NFs — every other flow's state with
    them."""

    def first_flow_pickle(flows: int) -> bytes:
        specs = [
            FlowSpec.tcp(f"10.4.{i // 250}.{i % 250 + 1}", "99.7.0.1", 5000 + i, 80, packets=3)
            for i in range(flows)
        ]
        packets = TrafficGenerator(specs, interleave="round_robin").packets()
        runtime = SpeedyBox(paper_chain())
        continue_run(runtime, packets)
        return pickle.dumps(capture_flow(runtime, packets[0].five_tuple()))

    alone = first_flow_pickle(1)
    assert len(alone) == len(first_flow_pickle(200))
    assert len(alone) < 4096
