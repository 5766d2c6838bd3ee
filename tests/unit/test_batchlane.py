"""Whole-batch fast-path lane (repro.core.batchlane) unit behaviour.

Engagement rules, fallback correctness, the bounded-flow-table
guarantee, and the eviction-teardown audit pairing (the flow-table
growth hazard: every ``classifier_evict`` of a compiled flow must ship a
matching ``fastpath_invalidate``, or a dangling closure keeps serving a
forgotten flow).
"""

import dataclasses
import gc
import random
import sys

import pytest

import repro.core.batchlane as batchlane
from repro.core.actions import Forward, Modify
from repro.core.batchlane import BatchLane
from repro.core.framework import PathTaken, ProcessReport, ServiceChain, SpeedyBox
from repro.core.state_function import PayloadClass
from repro.nf import IPFilter, SyntheticNF
from repro.nf.ipfilter import AclRule, Verdict
from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.obs.span import FlowSpanRecorder
from repro.obs.registry import MetricsRegistry
from repro.platform import BessPlatform
from repro.scale.migration import install_flow
from repro.obs.trace import PacketTracer
from repro.traffic.columnar import KIND_DATA, PacketBatch, uniform_batch
from repro.vector import np
from tests.integration.helpers import InterpretedSpeedyBox


def build_chain():
    return [
        SyntheticNF("ttl", action=Modify.ttl_dec(), sf_payload_class=None),
        SyntheticNF("rewrite", action=Modify.set(dst_port=8080), sf_payload_class=None),
    ]


def make_runtime(**kwargs):
    return SpeedyBox(build_chain(), **kwargs)


def run_batch(load, *, runtime=None):
    """A ``PacketBatch`` takes the lane; ``batch.packet_view()`` is the oracle."""
    runtime = runtime or make_runtime()
    platform = BessPlatform(runtime)
    return platform.run_load(load), runtime, platform


def test_lane_eligibility_flags():
    runtime = make_runtime()
    platform = BessPlatform(runtime)
    assert platform._batch_lane_eligible(use_timestamps=False)
    assert not platform._batch_lane_eligible(use_timestamps=True)

    # The lane dispatches over SpeedyBox's compiled closures.
    original = BessPlatform(ServiceChain(build_chain()))
    assert not original._batch_lane_eligible(use_timestamps=False)

    metered = SpeedyBox(build_chain(), metrics=MetricsRegistry(enabled=True))
    instrumented = BessPlatform(metered, metrics=metered.metrics)
    assert not instrumented._batch_lane_eligible(use_timestamps=False)
    traced = BessPlatform(make_runtime(), tracer=PacketTracer())
    assert not traced._batch_lane_eligible(use_timestamps=False)


def test_lane_without_compiled_closures_serves_every_packet_scalar():
    """No switch keeps a batch off the lane; a runtime that never
    compiles just leaves the array path nothing to serve."""
    batch = uniform_batch(12, 5, interleave="round_robin", block=4)
    lane_result, lane_runtime, platform = run_batch(
        batch, runtime=InterpretedSpeedyBox(build_chain())
    )
    oracle_result, oracle_runtime, __ = run_batch(batch.packet_view())
    assert lane_result == oracle_result
    assert lane_runtime.stats() == oracle_runtime.stats()
    stats = platform.last_lane_stats
    assert stats["offered"] == len(batch)
    assert stats["span_packets"] == 0 and stats["admitted"] == 0


def test_lane_matches_per_packet_oracle():
    batch = uniform_batch(40, 5, interleave="round_robin", block=8)
    lane_result, lane_runtime, __ = run_batch(batch)
    oracle_result, oracle_runtime, __ = run_batch(batch.packet_view())
    assert lane_result == oracle_result
    assert lane_runtime.stats() == oracle_runtime.stats()


def test_flow_table_stays_bounded():
    capacity = 32
    runtime = make_runtime(max_tracked_flows=capacity, max_flows=capacity)
    batch = uniform_batch(500, 2, interleave="round_robin", block=16)
    result, runtime, __ = run_batch(batch, runtime=runtime)
    assert result.delivered == len(batch)
    assert len(runtime.classifier._flows) <= capacity
    assert len(runtime.global_mat._rules) <= capacity
    for mat in runtime.local_mats.values():
        assert len(mat._rules) <= capacity
    assert runtime.classifier.evictions == 500 - capacity


def test_eviction_pairs_invalidate_with_evict_audit():
    """Satellite: the growth-hazard teardown is audit-visible and paired.

    Every ``classifier_evict`` of a flow whose closure was compiled (and
    not already invalidated) must be immediately preceded by a
    ``fastpath_invalidate`` with ``reason='classifier_evict'`` for the
    same FID — on the lane's inlined teardown and the legacy path alike.
    """
    batch = uniform_batch(120, 3, interleave="round_robin", block=8)
    for load in (batch, batch.packet_view()):
        audit = AuditLog()
        runtime = SpeedyBox(
            build_chain(), max_tracked_flows=16, max_flows=16, audit=audit
        )
        run_batch(load, runtime=runtime)

        events = audit.events()
        compiled_live = set()
        for event in events:
            if event["kind"] == "fastpath_compile":
                compiled_live.add(event["fid"])
            elif event["kind"] == "fastpath_invalidate":
                compiled_live.discard(event["fid"])
        paired = 0
        for i, event in enumerate(events):
            if event["kind"] != "classifier_evict":
                continue
            fid = event["fid"]
            preceding = [
                e
                for e in events[:i]
                if e["kind"] == "fastpath_invalidate"
                and e["fid"] == fid
                and e["reason"] == "classifier_evict"
            ]
            following_compiles = [
                e
                for e in events[:i]
                if e["kind"] == "fastpath_compile" and e["fid"] == fid
            ]
            if following_compiles:
                assert preceding, (
                    f"classifier_evict fid={fid} without fastpath_invalidate "
                    f"({type(load).__name__})"
                )
                paired += 1
        assert paired > 0, "churn cell produced no compiled-flow evictions"
        # No dangling closures: everything still compiled is still tracked.
        assert compiled_live == set(runtime._compiled_fids)


def test_last_lane_stats_introspection():
    batch = uniform_batch(30, 4, interleave="round_robin", block=10)
    result, __, platform = run_batch(batch)
    stats = platform.last_lane_stats
    assert stats is not None
    assert stats["offered"] == len(batch)
    # The template flow itself admits via the scalar path; the other 29
    # flows take bulk admission.
    assert stats["admitted"] == 29
    assert stats["dropped"] == result.dropped
    assert 0 < stats["span_packets"] <= len(batch)
    assert stats["plan_table_size"] >= 1
    platform.reset()
    assert platform.last_lane_stats is None
    # The per-packet oracle never sets it.
    __, ___, oracle = run_batch(batch.packet_view())
    assert oracle.last_lane_stats is None


def test_mat_evict_pairs_with_fastpath_invalidate():
    """Global-MAT LRU pressure alone must also tear the closure down.

    With ``max_flows`` below the classifier capacity the Global MAT
    evicts while the classifier still remembers the flow; every
    ``global_mat_evict`` of a compiled flow must be followed by a
    ``fastpath_invalidate`` (reason ``rule_evicted``) for the same FID.
    """
    batch = uniform_batch(64, 3, interleave="round_robin", block=16)
    for load in (batch, batch.packet_view()):
        audit = AuditLog()
        runtime = SpeedyBox(
            build_chain(), max_tracked_flows=256, max_flows=8, audit=audit
        )
        run_batch(load, runtime=runtime)

        events = audit.events()
        compiled = set()
        paired = 0
        for i, event in enumerate(events):
            kind = event["kind"]
            if kind == "fastpath_compile":
                compiled.add(event["fid"])
            elif kind == "global_mat_evict" and event["fid"] in compiled:
                tail = events[i + 1 :]
                assert any(
                    e["kind"] == "fastpath_invalidate"
                    and e["fid"] == event["fid"]
                    and e["reason"] == "rule_evicted"
                    for e in tail[:4]
                ), f"global_mat_evict fid={event['fid']} left a dangling closure"
                compiled.discard(event["fid"])
                paired += 1
        assert paired > 0, "capacity pressure produced no compiled-rule evictions"
        assert len(runtime.global_mat._rules) <= 8


AUDITED_BATCHES = {
    "short_flows": (60, 4, 8),
    # churn_batch's shape: ten-packet flows, blocks of half the table
    "churn": (200, 10, 8),
    # blocks larger than the table: admission through the mixed-run replay
    "thrash": (100, 4, 32),
}


def test_lane_and_oracle_emit_identical_audit_streams():
    """Through a 16-flow table, where evictions interleave with
    admissions inside one stretch of first packets."""

    def run(load):
        audit = AuditLog()
        runtime = SpeedyBox(
            build_chain(), max_tracked_flows=16, max_flows=16, audit=audit
        )
        run_batch(load, runtime=runtime)
        return audit.events()

    for shape, (flows, packets, block) in AUDITED_BATCHES.items():
        batch = uniform_batch(flows, packets, interleave="round_robin", block=block)
        events = run(batch)
        assert events == run(batch.packet_view()), shape
        kinds = [event["kind"] for event in events]
        # an eviction before an insert: the two interleave
        assert "global_mat_insert" in kinds[kinds.index("classifier_evict"):], shape


def test_a_disabled_audit_log_costs_nothing_per_admitted_flow(monkeypatch):
    """With the default ``NULL_AUDIT`` the admission loop makes no
    ``emit`` call: the only calls are the template flow's own oracle
    traversal (its rule insert and its compile), however many flows the
    lane admits and evicts."""
    calls = []
    emit = AuditLog.emit

    def spy(log, kind, **fields):
        calls.append((sys._getframe(1).f_globals["__name__"], kind))
        return emit(log, kind, **fields)

    monkeypatch.setattr(AuditLog, "emit", spy)
    seen = {}
    for flows in (64, 640):
        calls.clear()
        runtime = make_runtime(max_tracked_flows=16, max_flows=16)
        assert runtime.audit is NULL_AUDIT
        batch = uniform_batch(flows, 10, interleave="round_robin", block=8)
        __, ___, platform = run_batch(batch, runtime=runtime)
        assert platform.last_lane_stats["admitted"] == flows - 1
        assert runtime.classifier.evictions == flows - 16
        seen[flows] = list(calls)
    assert not [call for call in calls if call[0] == batchlane.__name__]
    assert seen[64] == seen[640] == [
        ("repro.core.global_mat", "global_mat_insert"),
        ("repro.core.framework", "fastpath_compile"),
    ]


# -- the Local MAT's one shared empty state-function batch --


def test_an_admitted_flow_holds_eight_objects():
    """Entry, five-tuple, three Local MAT records, the Global MAT rule,
    the compiled clone and its report; the records share their MAT's
    empty batch and the run's one action list per NF, the clone its
    runtime's bindings, and the report the template report's empty
    meter lists."""

    def held(flows):
        platform = BessPlatform(
            SpeedyBox([*build_chain(), SyntheticNF("fwd", sf_payload_class=None)])
        )
        gc.collect()
        before = len(gc.get_objects())
        platform.run_load(uniform_batch(flows, 1))
        gc.collect()
        return len(gc.get_objects()) - before, platform.last_lane_stats["admitted"]

    (small, admitted_small), (large, admitted_large) = held(500), held(1500)
    assert round((large - small) / (admitted_large - admitted_small)) == 8


def admitted_flows(runtime, flows=6):
    """Run ``flows`` two-packet flows down the lane; returns the FIDs of
    the flows it bulk admitted (all but the template, flow 0)."""
    batch = uniform_batch(flows, 2, interleave="round_robin")
    __, ___, platform = run_batch(batch, runtime=runtime)
    assert platform.last_lane_stats["admitted"] == flows - 1
    return [runtime.classifier.fid_for(batch.five_tuple_of(flow)) for flow in range(1, flows)]


def count_packets(packet):
    return None


def test_an_admitted_flows_report_sets_every_field():
    """``clone_for`` builds its report field by field, past the
    dataclass ``__init__``: an unset slot would raise on first read."""
    runtime = make_runtime()
    for fid in admitted_flows(runtime):
        report = runtime._compiled[runtime._compiled_fids[fid]].steady_report
        for field in dataclasses.fields(ProcessReport):
            getattr(report, field.name)


def test_a_state_function_on_one_admitted_flow_leaves_the_others_empty():
    runtime = make_runtime()
    fids = admitted_flows(runtime)
    mat = runtime.local_mats["ttl"]
    assert all(mat.rule_for(fid).sf_batch is mat.no_functions for fid in fids)
    runtime.apis["ttl"].add_state_function(fids[0], count_packets, PayloadClass.IGNORE)
    own = mat.rule_for(fids[0]).sf_batch
    assert own is not mat.no_functions
    assert [function.name for function in own] == ["count_packets"]
    assert len(mat.no_functions) == 0
    assert all(len(mat.rule_for(fid).sf_batch) == 0 for fid in fids[1:])


def test_copies_of_an_admitted_flow_get_their_own_batches():
    runtime = make_runtime()
    fid = admitted_flows(runtime)[0]
    record = runtime.peek_flow(fid).copy()
    for name, mat in runtime.local_mats.items():
        copied = mat.rule_for(fid).copy({})
        assert copied.sf_batch is not mat.no_functions and len(copied.sf_batch) == 0
        assert record.local_rules[name].sf_batch is not mat.no_functions
    # exported and installed elsewhere, where the flow records a function
    other = make_runtime()
    (there,) = install_flow(other, [runtime.export_flow(fid)], [], reason="flow_import")
    other.apis["ttl"].add_state_function(there, count_packets, PayloadClass.IGNORE)
    assert len(other.local_mats["ttl"].rule_for(there).sf_batch) == 1
    for each in (runtime, other):
        assert all(len(mat.no_functions) == 0 for mat in each.local_mats.values())


def test_an_evicted_admitted_flow_recorded_again_gets_a_fresh_batch():
    runtime = make_runtime(max_tracked_flows=4, max_flows=4)
    batch = uniform_batch(8, 1)
    __, ___, platform = run_batch(batch, runtime=runtime)
    assert platform.last_lane_stats["admitted"] == 7
    five_tuple = batch.five_tuple_of(1)  # admitted, then evicted
    assert runtime.classifier.fid_for(five_tuple) is None
    # its packet again, down the per-packet route: recorded on the slow path
    platform.run_load([batch.materialize(1)])
    fid = runtime.classifier.fid_for(five_tuple)
    for mat in runtime.local_mats.values():
        batch_ = mat.rule_for(fid).sf_batch
        assert batch_ is not mat.no_functions and len(batch_) == 0
    runtime.apis["ttl"].add_state_function(fid, count_packets, PayloadClass.IGNORE)
    assert len(runtime.local_mats["ttl"].no_functions) == 0


def test_re_recording_one_admitted_flow_leaves_the_others_records_unchanged():
    """Admitted records share their run's one action list per NF.  A
    flow recorded again gets fresh records (``begin_recording``), so the
    recording NFs' appends land in lists of its own."""
    runtime = make_runtime()
    fids = admitted_flows(runtime)

    def records(fid):
        return [mat.rule_for(fid) for mat in runtime.local_mats.values()]

    shared = [rule.header_actions for rule in records(fids[0])]
    before = [list(actions) for actions in shared]
    assert all(
        rule.header_actions is actions
        for fid in fids
        for rule, actions in zip(records(fid), shared)
    )
    # its rule gone, flow 1's next packet takes the original path again
    runtime.global_mat.delete_flow(fids[0])
    report = runtime.process(uniform_batch(6, 2, interleave="round_robin").materialize(1))
    assert report.path is PathTaken.ORIGINAL
    again = records(fids[0])
    assert [rule.header_actions for rule in again] == before
    assert all(rule.header_actions is not actions for rule, actions in zip(again, shared))
    assert [list(actions) for actions in shared] == before
    for fid in fids[1:]:
        assert all(rule.header_actions is actions for rule, actions in zip(records(fid), shared))


def test_a_header_action_on_one_admitted_flow_leaves_the_others_lists_alone():
    """Outside a recording, an action added to one admitted flow lands in
    a list of its own: the run's shared list is copied on first write."""
    runtime = make_runtime()
    fids = admitted_flows(runtime)
    mat = runtime.local_mats["ttl"]
    shared = mat.rule_for(fids[0]).header_actions
    before = list(shared)
    runtime.apis["ttl"].add_header_action(fids[0], Forward())
    own = mat.rule_for(fids[0]).header_actions
    assert own is not shared and own == [*before, Forward()]
    assert shared == before
    assert all(mat.rule_for(fid).header_actions == before for fid in fids[1:])


# -- flow-span sampling on the lane (sampled flows keep full coverage) --


def run_with_spans(load, recorder):
    platform = BessPlatform(make_runtime(), spans=recorder)
    return platform.run_load(load), platform


def test_span_recorder_does_not_disqualify_the_lane():
    runtime = make_runtime()
    platform = BessPlatform(runtime, spans=FlowSpanRecorder(every=4))
    assert platform._batch_lane_eligible(use_timestamps=False)


def test_lane_with_spans_matches_oracle_and_coverage():
    """Same results AND the same span population as the per-packet path."""
    batch = uniform_batch(40, 5, interleave="round_robin", block=8)
    lane_rec = FlowSpanRecorder(every=4)
    oracle_rec = FlowSpanRecorder(every=4)
    lane_result, __ = run_with_spans(batch, lane_rec)
    oracle_result, __ = run_with_spans(batch.packet_view(), oracle_rec)
    assert lane_result == oracle_result
    assert lane_rec.summary() == oracle_rec.summary()
    lane_fids = {root["args"]["fid"] for root in lane_rec.roots()}
    oracle_fids = {root["args"]["fid"] for root in oracle_rec.roots()}
    assert lane_fids == oracle_fids


@pytest.mark.parametrize("first", [None, 64], ids=["unrecorded", "every_64"])
@pytest.mark.parametrize("swap", [True, False], ids=["swapped", "reset"])
def test_admitted_flows_are_recorded_by_the_next_runs_recorder(first, swap):
    """A flow admitted unrecorded keeps its clone's steady report into
    the next run; a recorder attached or reset since then records it,
    and its spans are the per-packet oracle's."""
    batch = uniform_batch(40, 5, interleave="round_robin", block=8)

    def second_run(load):
        recorder = None if first is None else FlowSpanRecorder(every=first)
        platform = BessPlatform(make_runtime(), spans=recorder)
        platform.run_load(load())
        if swap or recorder is None:
            platform.spans = FlowSpanRecorder(every=1, max_spans_per_flow=None)
        else:
            recorder.every, recorder.max_spans_per_flow = 1, None
            recorder.reset()
        return platform.run_load(load()), platform.spans.records

    lane = second_run(lambda: batch)
    assert lane == second_run(batch.packet_view)
    assert sum(span["depth"] == 0 for span in lane[1]) == len(batch)  # a root a packet


def test_sampled_flows_stay_off_the_array_path():
    """every=1 samples all flows: the lane admits nothing, records all."""
    batch = uniform_batch(8, 4, interleave="round_robin", block=8)
    recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None)
    result, platform = run_with_spans(batch, recorder)
    assert result.delivered == len(batch)
    stats = platform.last_lane_stats
    assert stats["admitted"] == 0
    assert stats["span_packets"] == 0
    assert recorder.packets_sampled == len(batch)


def test_unsampled_flows_ride_the_array_path():
    batch = uniform_batch(40, 5, interleave="round_robin", block=8)
    recorder = FlowSpanRecorder(every=40)  # exactly one flow sampled
    result, platform = run_with_spans(batch, recorder)
    assert result.delivered == len(batch)
    assert recorder.flows_sampled == 1
    stats = platform.last_lane_stats
    assert stats["admitted"] == 39
    # the one sampled flow's packets never hit the array fast path
    assert stats["span_packets"] == 39 * 4  # steady packets of 39 flows
    assert recorder.packets_sampled == 5


def test_capped_flow_earns_the_fast_lane_back():
    """Once span-capped, a sampled flow is promoted like any other."""
    batch = uniform_batch(1, 12, block=4)
    recorder = FlowSpanRecorder(every=1, max_spans_per_flow=2)
    result, platform = run_with_spans(batch, recorder)
    assert result.delivered == 12
    assert recorder.packets_sampled == 2
    fid = recorder.roots()[0]["args"]["fid"]
    assert recorder.skip.get(fid) is True
    # packets after the cap (minus the promoting one) take the lane
    assert platform.last_lane_stats["span_packets"] > 0


def test_lane_publishes_runtime_lane_metrics():
    registry = MetricsRegistry(enabled=True)
    runtime = SpeedyBox(build_chain(), metrics=registry)
    batch = uniform_batch(20, 5, interleave="round_robin", block=8)
    result, platform = run_batch(batch, runtime=runtime)[0], None
    snapshot = registry.snapshot()
    assert snapshot["lane_batches_total"] == 1.0
    # the template flow admits via the scalar path, like last_lane_stats
    assert snapshot["lane_admitted_flows_total"] == 19.0
    assert snapshot["lane_fast_packets_total"] == result.delivered - 20.0
    assert snapshot["lane_flushes_total"] >= 1.0
    assert snapshot["lane_plan_table_size"] >= 1.0


# -- the deferred-region flush against the per-packet oracle --


def ordered_batch(order, dst_ports):
    """UDP data packets in exactly ``order`` (flow indices), flow ``f``
    sending to ``dst_ports[f]``."""
    table = uniform_batch(len(dst_ports), 0)
    table.flow_dst_port[:] = dst_ports
    seen = [0] * len(dst_ports)
    ordinals = []
    for flow in order:
        ordinals.append(seen[flow])
        seen[flow] += 1
    ordinal = np.array(ordinals, dtype=np.int32)
    return PacketBatch(
        table.flow_src_ip,
        table.flow_dst_ip,
        table.flow_src_port,
        table.flow_dst_port,
        table.flow_proto,
        table.flow_handshake,
        np.array(order, dtype=np.int64),
        np.full(len(order), KIND_DATA, dtype=np.uint8),
        ordinal,
        (1000 + ordinal).astype(np.uint32),
    )


def drop_chain():
    return [
        SyntheticNF("ttl", action=Modify.ttl_dec(), sf_payload_class=None),
        IPFilter("fw", rules=[AclRule.make(dst_ports=(9999, 9999), verdict=Verdict.DROP)]),
    ]


def per_flow_state(runtime):
    """Per-flow counters and both LRU orders, as the oracle must match."""
    return (
        [(fid, entry.packets) for fid, entry in runtime.classifier._flows.items()],
        [(fid, rule.hits) for fid, rule in runtime.global_mat._rules.items()],
    )


def flushed_regions(monkeypatch):
    """Record each non-empty deferred region's slices as it is flushed."""
    regions = []
    flush = BatchLane._flush

    def recording(lane):
        if lane._deferred:
            regions.append(list(lane._deferred))
        flush(lane)

    monkeypatch.setattr(BatchLane, "_flush", recording)
    return regions


FLUSH_CASES = {
    # flows 0 and 2 are the ends of the flow columns; flow 1 sits between
    "only_first_and_last_flow": ([0, 1, 2, 0, 2, 2, 0, 2], [80, 80, 80]),
    # flow 1's one packet is flushed before flow 2's first packet
    "one_packet_region": ([0, 1, 1, 2, 0, 2], [80, 80, 80]),
    # flow 2 turns steady mid-segment, so its region is two slices; flow
    # 0 opens the region and recurs after every other flow
    "multi_slice_recurring_flow": ([0, 1, 0, 2, 0, 2, 1, 2, 1, 0], [80, 80, 80]),
    # flows 0 and 2 are dropped by the filter, 1 and 3 pass
    "drop_rule": ([0, 1, 2, 3, 3, 2, 1, 0, 0, 2, 1, 3], [9999, 80, 9999, 80]),
}


@pytest.mark.parametrize("case", sorted(FLUSH_CASES))
def test_flush_edge_cases_match_the_oracle(case, monkeypatch):
    order, dst_ports = FLUSH_CASES[case]
    chain = drop_chain if case == "drop_rule" else build_chain
    regions = flushed_regions(monkeypatch)
    batch = ordered_batch(order, dst_ports)
    lane_result, lane_runtime, platform = run_batch(batch, runtime=SpeedyBox(chain()))
    oracle_result, oracle_runtime, __ = run_batch(
        batch.packet_view(), runtime=SpeedyBox(chain())
    )
    assert lane_result == oracle_result
    assert per_flow_state(lane_runtime) == per_flow_state(oracle_runtime)
    assert lane_runtime.stats() == oracle_runtime.stats()
    assert platform.last_lane_stats["dropped"] == oracle_result.dropped

    # the region shape each case is named for
    if case == "only_first_and_last_flow":
        assert [sorted({order[i] for lo, hi in r for i in range(lo, hi)}) for r in regions] == [
            [0, 2]
        ]
    elif case == "one_packet_region":
        assert regions[0] == [(2, 3)]
    elif case == "multi_slice_recurring_flow":
        assert regions[-1] == [(4, 5), (5, 10)]
    else:
        assert oracle_result.dropped == 6
        assert platform.last_lane_stats["span_packets"] == 8


# -- the tail scan against the three-pass flush it replaced --


def three_pass_flush(lane):
    """The flush before the tail scan, kept as its oracle: ``maximum.at``
    and ``add.at`` over every slice of the region, then, per slice, the
    positions where ``last`` holds — every flow's last occurrence, in
    position order."""
    deferred = lane._deferred
    if not deferred:
        return
    lane.flushes += 1
    flow_arr, last, counts = lane.flow_arr, lane._last, lane._counts
    for lo, hi in deferred:
        flows = flow_arr[lo:hi]
        np.maximum.at(last, flows, np.arange(lo, hi))
        np.add.at(counts, flows, 1)
    touched = []
    for lo, hi in deferred:
        flows = flow_arr[lo:hi]
        touched.append(flows[last[flows] == np.arange(lo, hi)])
    deferred.clear()
    order = np.concatenate(touched)
    order_counts = counts[order].tolist()
    counts[order] = 0
    for flow, count in zip(order.tolist(), order_counts):
        clone = lane._vclone[flow]
        clone.entry.packets += count
        clone.rule.hits += count
        if clone.program.is_drop:
            lane.dropped += count
    for flow in order.tolist():
        clone = lane._vclone[flow]
        clone.bindings.move_to_end(clone.fid)


def tail_scan_shapes(flows: int, seed: int) -> dict:
    """Flow orders, each a warm-up (every flow's scalar first packet)
    then deferred regions of the shape the case is named for."""
    rng = random.Random(seed)
    warm = list(range(flows))
    shuffled = rng.sample(warm, flows)
    return {
        "one_flow": warm + [flows // 2] * 40,
        "all_distinct": warm + shuffled,
        "reversed": warm + warm[::-1] * 4,
        "round_robin": warm + warm * 6,
        "random_repeats": warm + [rng.randrange(flows) for __ in range(300)],
        # two new flows' first packets split the steady packets into
        # three regions
        "several_regions": warm + shuffled * 2 + [flows] + warm * 2 + [flows + 1]
        + [rng.randrange(flows + 2) for __ in range(120)],
        # the region's first packet is flow 0's only one in it
        "last_at_region_start": warm + [0] + [rng.randrange(1, flows) for __ in range(200)],
    }


TAIL_SCAN_FLOWS = 11
TAIL_SCAN_CASES = sorted(tail_scan_shapes(TAIL_SCAN_FLOWS, 41))


@pytest.mark.parametrize("seed", [41, 42, 43])
@pytest.mark.parametrize("chunk", [3, 32768], ids=["chunk3", "chunk-default"])
@pytest.mark.parametrize("case", TAIL_SCAN_CASES)
def test_tail_scan_matches_the_three_pass_flush(case, chunk, seed, monkeypatch):
    """Per-flow counts, rule hits, drops and both LRU orders after a lane
    run are the three-pass flush's, whether the scan stops in the
    region's last chunk or walks back through many small ones."""
    monkeypatch.setattr(batchlane, "_CHUNK", chunk)
    order = tail_scan_shapes(TAIL_SCAN_FLOWS, seed)[case]
    flows = max(order) + 1
    # every third flow hits the filter's drop rule
    ports = [9999 if flow % 3 == 0 else 80 for flow in range(flows)]
    batch = ordered_batch(order, ports)
    regions = flushed_regions(monkeypatch)
    scanned, scanned_runtime, scanned_platform = run_batch(batch, runtime=SpeedyBox(drop_chain()))
    monkeypatch.setattr(BatchLane, "_flush", three_pass_flush)
    reference, reference_runtime, reference_platform = run_batch(
        batch, runtime=SpeedyBox(drop_chain())
    )
    assert scanned == reference
    assert per_flow_state(scanned_runtime) == per_flow_state(reference_runtime)
    assert scanned_runtime.stats() == reference_runtime.stats()
    assert scanned_platform.last_lane_stats == reference_platform.last_lane_stats
    assert scanned_platform.last_lane_stats["dropped"] == reference.dropped > 0

    # the region shape each case is named for
    region = [order[i] for lo, hi in regions[-1] for i in range(lo, hi)]
    if case == "several_regions":
        assert len(regions) >= 3
    elif case == "last_at_region_start":
        assert region[0] == 0 and 0 not in region[1:]
    elif case == "all_distinct":
        assert sorted(region) == list(range(flows))
    elif case == "one_flow":
        assert set(region) == {flows // 2}
