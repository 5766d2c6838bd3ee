"""Whole-batch fast-path lane (repro.core.batchlane) unit behaviour.

Engagement rules, fallback correctness, the bounded-flow-table
guarantee, and the eviction-teardown audit pairing (the flow-table
growth hazard: every ``classifier_evict`` of a compiled flow must ship a
matching ``fastpath_invalidate``, or a dangling closure keeps serving a
forgotten flow).
"""

import pytest

from repro.core.actions import Modify
from repro.core.batchlane import BatchLane
from repro.core.framework import ServiceChain, SpeedyBox
from repro.nf import IPFilter, SyntheticNF
from repro.nf.ipfilter import AclRule, Verdict
from repro.obs.audit import AuditLog
from repro.obs.span import FlowSpanRecorder
from repro.obs.registry import MetricsRegistry
from repro.platform import BessPlatform
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


def test_lane_and_oracle_emit_identical_audit_streams():
    batch = uniform_batch(60, 4, interleave="round_robin", block=8)

    def run(load):
        audit = AuditLog()
        runtime = SpeedyBox(
            build_chain(), max_tracked_flows=16, max_flows=16, audit=audit
        )
        run_batch(load, runtime=runtime)
        return audit.events()

    assert run(batch) == run(batch.packet_view())


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
    ordinal = np.array(ordinals, dtype=np.int64)
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
        1000 + ordinal,
        np.zeros(len(order), dtype=np.int64),
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
