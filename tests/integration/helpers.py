"""Shared harness for the equivalence test suites (§VII-C methodology).

"The methodology is to inject various packets into the system to cover
different conditional branches in the code.  If the system generates
identical packet outputs and state, we are confident that SpeedyBox
guarantees equivalence."

:func:`run_lockstep` drives the original chain and a SpeedyBox-wrapped
copy of the same chain over byte-identical packet streams, optionally
applying mid-stream interventions (e.g. failing a Maglev backend before
packet 6) to *both* runs at the same packet index, and asserts the packet
outputs are identical.  NF-state comparisons are the caller's to add.

Two *selectors* reach the references the fast engine is checked against
— the interpreted fast path and the discrete-event replay — by running
``src/`` code, not by copying it: :class:`InterpretedSpeedyBox` and
:func:`des_run_load`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.framework import ProcessReport, ServiceChain, SpeedyBox
from repro.net.packet import Packet
from repro.platform.base import LoadResult, Platform, arrival_gaps, load_result
from repro.sim import Engine
from repro.traffic.generator import clone_packets

Intervention = Callable[[ServiceChain, SpeedyBox], None]


class InterpretedSpeedyBox(SpeedyBox):
    """The interpreted oracle: no flow ever compiles, so every fast-path
    packet is served by ``SpeedyBox._run_fast``."""

    def _maybe_compile(self, classification) -> None:
        pass


def count_interpreted(runtime: SpeedyBox) -> list:
    """Wrap ``runtime._run_fast``; the returned list grows by one report
    per packet the interpreted fast path serves (the rest of a compiling
    runtime's fast-path packets rode ``CompiledFlow.run``)."""
    served: list = []
    run_fast = runtime._run_fast

    def counted(packet, rule, report):
        served.append(report)
        return run_fast(packet, rule, report)

    runtime._run_fast = counted
    return served


def fail_tracked_backend(nf_name: str) -> Callable[[SpeedyBox], None]:
    """An intervention on one runtime: fail the backend the first flow
    Maglev ``nf_name`` tracks is pinned to."""

    def intervene(runtime) -> None:
        maglev = nf_by_name(runtime, nf_name)
        maglev.fail_backend(next(iter(maglev.conntrack.values())).name)

    return intervene


def des_run_load(
    platform: Platform,
    packets: Sequence[Packet],
    inter_arrival_ns: float = 0.0,
    use_timestamps: bool = False,
    gaps: Optional[Sequence[float]] = None,
) -> LoadResult:
    """The DES oracle: the platform's own functional pass, replayed by
    the generator engine whatever the plans' shape.  Explicit ``gaps``
    offer the packets as a cluster offers a replica its share of a
    global timeline (the first gap need not be zero)."""
    if gaps is None:
        gaps = arrival_gaps(packets, inter_arrival_ns, use_timestamps)
    run = platform._functional_pass(packets)
    engine = Engine()
    pipeline = platform._spawn_pipeline(engine, run.plans, gaps)
    engine.run()
    return load_result(pipeline.arrival, pipeline.finish, run.dropped)


def run_lockstep(
    build_chain: Callable[[], list],
    packets: Sequence[Packet],
    interventions: Optional[Dict[int, Intervention]] = None,
    compare_outputs: bool = True,
    sbox_kwargs: Optional[dict] = None,
) -> Tuple[ServiceChain, SpeedyBox, List[Packet], List[Packet], List[ProcessReport]]:
    """Process the same stream through baseline and SpeedyBox runs.

    ``interventions[i]`` runs *before* packet ``i`` is processed, against
    both runtimes.  Returns both runtimes, both (mutated) packet lists and
    the SpeedyBox reports.
    """
    interventions = interventions or {}
    baseline = ServiceChain(build_chain())
    speedybox = SpeedyBox(build_chain(), **(sbox_kwargs or {}))

    base_packets = clone_packets(packets)
    sbox_packets = clone_packets(packets)
    reports: List[ProcessReport] = []

    for index, (base_pkt, sbox_pkt) in enumerate(zip(base_packets, sbox_packets)):
        if index in interventions:
            interventions[index](baseline, speedybox)
        baseline.process(base_pkt)
        reports.append(speedybox.process(sbox_pkt))

    if compare_outputs:
        assert_output_equivalence(base_packets, sbox_packets)
    return baseline, speedybox, base_packets, sbox_packets, reports


def assert_output_equivalence(base_packets: Sequence[Packet], sbox_packets: Sequence[Packet]) -> None:
    """Packet-for-packet: same drop decisions, same bytes on the wire."""
    assert len(base_packets) == len(sbox_packets)
    for index, (base_pkt, sbox_pkt) in enumerate(zip(base_packets, sbox_packets)):
        assert base_pkt.dropped == sbox_pkt.dropped, (
            f"packet {index}: drop mismatch (baseline={base_pkt.dropped}, "
            f"speedybox={sbox_pkt.dropped})"
        )
        if not base_pkt.dropped:
            assert base_pkt.serialize() == sbox_pkt.serialize(), (
                f"packet {index}: wire bytes differ\n"
                f"  baseline : {base_pkt!r}\n  speedybox: {sbox_pkt!r}"
            )


def nf_by_name(runtime, name: str):
    for nf in runtime.nfs:
        if nf.name == name:
            return nf
    raise KeyError(name)


def report_view(report: ProcessReport) -> tuple:
    """A :class:`ProcessReport` as comparable values.

    Reports hold :class:`~repro.platform.costs.CycleMeter` objects, which
    compare by identity; two runtimes that must report a packet alike
    compare these views instead.  Charges compare *in order*: a meter's
    cycle total is a float sum in ``counts`` insertion order.
    """

    def meter(m):
        return (list(m.counts.items()), m.direct_cycles)

    return (
        report.path,
        report.fid,
        report.dropped,
        report.closing,
        report.events_fired,
        meter(report.fixed_meter),
        [(name, meter(m)) for name, m in report.nf_meters],
        [[(name, meter(m)) for name, m in wave] for wave in report.sf_waves],
    )
