"""Pins: a flow-close handler looks up a tuple its NF never saw.

Both runtimes call every NF's ``handle_flow_close`` with the FIN after
the whole chain has processed it, so an NF downstream of a rewriter — or
behind its own rewrite — pops a key it never stored, and the closed
flow's state stays.  ROADMAP item 17 (b) fixes this in one place (each
handler sees the packet its NF's ``process`` gave it); until then these
tests fail, and ``strict=True`` turns the fix into a reminder to drop
the marks.  They must not be made to pass NF by NF: 17 (b) removes
exactly that kind of workaround (MazuNAT's reverse-table fallback).
"""

from __future__ import annotations

import pytest

from bench.workloads import DcChain
from repro.cli import build_chain
from repro.core.framework import ServiceChain, SpeedyBox, is_closing_packet
from repro.nf.maglev import MaglevLoadBalancer
from repro.traffic.generator import FlowSpec, TrafficGenerator, clone_packets

PINNED = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 17 (b): handle_flow_close sees the chain's rewritten tuple",
)

RUNTIMES = pytest.mark.parametrize("runtime_cls", [ServiceChain, SpeedyBox])


def five_closed_flows() -> list:
    specs = [
        FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000 + i, 80, packets=3, payload=b"GET / x",
                     handshake=True, fin=True)
        for i in range(5)
    ]
    return TrafficGenerator(specs).packets()


def run(runtime, packets) -> None:
    if not any(is_closing_packet(packet) for packet in packets):
        pytest.fail("the traffic closes no flow: the pin would test nothing")
    for packet in clone_packets(packets):
        runtime.process(packet)


@PINNED
@RUNTIMES
def test_maglev_alone_forgets_its_closed_flows(runtime_cls):
    """Maglev rewrites the destination, then pops the rewritten tuple."""
    runtime = runtime_cls([MaglevLoadBalancer("maglev", table_size=131)])
    run(runtime, five_closed_flows())
    assert runtime.nfs[0].conntrack == {}


@PINNED
@RUNTIMES
def test_snort_upstream_of_nat_forgets_its_closed_flows(runtime_cls):
    """``snort,nat``: the FIN reaches Snort's handler with NAT's source."""
    runtime = runtime_cls(build_chain("snort,nat"))
    run(runtime, five_closed_flows())
    assert runtime.nfs[0].flow_matchers == {}


@PINNED
@RUNTIMES
def test_chain1_forgets_its_closed_flows(runtime_cls):
    """Chain 1 over ``dc_chain``'s first 3 000 packets (184 flows, each
    closed by a FIN): Maglev keeps 173 of their 184 conntrack entries."""
    workload = DcChain(2019)
    packets = workload.check_packets(3000)
    runtime = runtime_cls(workload.chain())
    run(runtime, packets)
    maglev = runtime.nfs[1]
    if not isinstance(maglev, MaglevLoadBalancer):
        pytest.fail(f"Chain 1's second NF is {type(maglev).__name__}, not Maglev")
    assert maglev.conntrack == {}
