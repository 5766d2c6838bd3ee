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
:func:`des_run_load`; :func:`lockstep` drives the first against a
compiling runtime packet by packet.

Hostile addresses come from here too: :func:`colliding_flows` (a
committed fixture of five-tuples on one FID), their
:func:`friendly_twins`, :func:`batch_over` to offer either as a
``PacketBatch``, :func:`three_bit_homes` to make nearly every flow
collide, and :func:`assert_classifier_invariants` for what must hold of
the flow table whatever happened to it.
"""

from __future__ import annotations

import contextlib
import functools
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from unittest import mock

import repro.core.batchlane as batchlane_module
import repro.core.classifier as classifier_module
from repro.core.classifier import fid_of
from repro.core.framework import ProcessReport, ServiceChain, SpeedyBox
from repro.net.flow import PROTO_UDP, FiveTuple
from repro.net.packet import Packet
from repro.platform.base import LoadResult, Platform, arrival_gaps, load_result
from repro.sim import Engine
from repro.traffic.columnar import uniform_batch
from repro.traffic.generator import clone_packets

Intervention = Callable[[ServiceChain, SpeedyBox], None]

#: the ISSUE 23 pair: two UDP five-tuples whose home FID is 23
FID23_PAIR = (
    FiveTuple.make("10.0.0.1", "99.0.0.1", 7841, 80, protocol=PROTO_UDP),
    FiveTuple.make("10.0.0.1", "99.0.0.1", 18664, 82, protocol=PROTO_UDP),
)


@functools.lru_cache(maxsize=None)
def _collision_fixture() -> dict:
    path = Path(__file__).resolve().parents[1] / "fixtures" / "fid_collisions.json"
    return json.loads(path.read_text())


def colliding_flows(k: int, protocol: str = "udp") -> List[FiveTuple]:
    """``k`` five-tuples that hash to one FID, from the committed fixture
    (``tests/fixtures/make_fid_collisions.py``; 256 UDP, 16 TCP).  The
    equality is re-checked here, so a change of hash fails loudly."""
    flows = [FiveTuple(*fields) for fields in _collision_fixture()[protocol][:k]]
    assert len(flows) == k, f"the fixture holds fewer than {k} {protocol} flows"
    assert len({fid_of(flow) for flow in flows}) == 1, (
        "fid_of changed: regenerate tests/fixtures/fid_collisions.json"
    )
    return flows


def batch_over(flows: Sequence[FiveTuple], packets_per_flow: int, **uniform_kwargs):
    """``uniform_batch``'s shape (no payload policy, so bulk-admissible)
    over the given five-tuples instead of its consecutive addresses."""
    batch = uniform_batch(len(flows), packets_per_flow, **uniform_kwargs)
    batch.flow_src_ip[:] = [flow.src_ip for flow in flows]
    batch.flow_src_port[:] = [flow.src_port for flow in flows]
    assert [batch.five_tuple_of(slot) for slot in range(len(flows))] == list(flows)
    return batch


@contextlib.contextmanager
def three_bit_homes():
    """Fold every home FID to three bits — the classifier's ``fid_of`` and
    the lane's ``fid_column`` alike — so with more than a handful of
    flows nearly every one is displaced.  The FID space stays 2**20."""
    scalar, column = classifier_module.fid_of, batchlane_module.fid_column
    with mock.patch.object(
        classifier_module, "fid_of", lambda five_tuple: scalar(five_tuple) & 7
    ), mock.patch.object(
        batchlane_module, "fid_column", lambda *columns: column(*columns) & 7
    ):
        yield


def displaced_index(classifier) -> dict:
    """What ``classifier._displaced`` must hold: the entries that probed."""
    return {
        entry.five_tuple: fid for fid, entry in classifier._flows.items() if entry.probes
    }


def assert_classifier_invariants(runtime: SpeedyBox) -> None:
    """Every live flow owns its FID, and the displaced index is exactly
    the flows that probed: what holds after any packet, eviction,
    teardown, import or export."""
    classifier = runtime.classifier
    flows = classifier._flows
    assert all(entry.fid == fid for fid, entry in flows.items())
    assert len({entry.five_tuple for entry in flows.values()}) == len(flows)
    assert classifier._displaced == displaced_index(classifier)
    for fid, entry in flows.items():
        assert classifier.fid_for(entry.five_tuple) == fid
        home = classifier_module.fid_of(entry.five_tuple)
        assert fid == (home + entry.probes) & (classifier_module.FID_SPACE - 1)
    # nothing keyed by FID outlives the classifier's entry for it
    tables = [runtime.global_mat.flows(), tuple(runtime._compiled_fids)]
    tables.append(tuple(runtime.event_table._by_fid))
    tables += [mat.flows() for mat in runtime.local_mats.values()]
    assert all(fid in flows for table in tables for fid in table)
    assert all(flows[fid].five_tuple == key for fid, key in runtime._compiled_fids.items())


def friendly_twins(flows: Sequence[FiveTuple]) -> List[FiveTuple]:
    """Flows of the same shape on distinct FIDs, none of them the
    fixture's: flow ``i`` moves to source port ``20000 + i``."""
    twins = [
        FiveTuple(flow.src_ip, flow.dst_ip, 20000 + i, flow.dst_port, flow.protocol)
        for i, flow in enumerate(flows)
    ]
    fids = {fid_of(twin) for twin in twins}
    assert len(fids) == len(twins) and fid_of(flows[0]) not in fids
    return twins


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


def nf_state(runtime):
    """Every NF's counters and per-flow tables (dataclass values compare)."""
    return {
        nf.name: {k: v for k, v in vars(nf).items() if isinstance(v, (dict, int, float))}
        for nf in runtime.nfs
    }


def lockstep(build_chain, packets, interventions=None, **sbox_kwargs):
    """One stream through a compiling and an interpreted runtime.

    ``interventions[i]`` runs against both runtimes before packet ``i``.
    Returns the compiling runtime's ``(report, on_lane)`` per packet,
    ``on_lane`` false when ``_run_fast`` (or the slow path) served it.
    """
    interventions = interventions or {}
    fast = SpeedyBox(build_chain(), **sbox_kwargs)
    oracle = InterpretedSpeedyBox(build_chain(), **sbox_kwargs)
    interpreted = count_interpreted(fast)
    served = []
    streams = zip(clone_packets(packets), clone_packets(packets))
    for index, (fast_pkt, oracle_pkt) in enumerate(streams):
        if index in interventions:
            interventions[index](fast)
            interventions[index](oracle)
        calls = len(interpreted)
        report = fast.process(fast_pkt)
        assert report_view(report) == report_view(oracle.process(oracle_pkt)), index
        assert fast_pkt.dropped == oracle_pkt.dropped, index
        assert fast_pkt.serialize() == oracle_pkt.serialize(), index
        served.append((report, report.is_fast and len(interpreted) == calls))
    assert fast.stats() == oracle.stats()
    for counter in ("total_registered", "total_checks", "total_triggered"):
        assert getattr(fast.event_table, counter) == getattr(oracle.event_table, counter)
    assert nf_state(fast) == nf_state(oracle)
    return served
