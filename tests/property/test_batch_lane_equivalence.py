"""Fuzzed batch-lane equivalence (the §VII-C oracle, columnar edition).

Random chains (header-action, stateful and dropping NFs), random flow
populations (TCP lifecycle flags, payload mixes), random interleaves,
table capacities and admission-block sizes — the whole-batch lane's
result must be numerically identical to the legacy per-packet oracle on
every draw: LoadResult (latency list element for element), runtime
stats, the audit stream, the flow table and both LRU orders.  Half the
draws fold every home FID to three bits, so nearly every flow is
displaced; the committed one-FID fixture and three hand-built batches
(one five-tuple in two slots, a displaced flow whose home emptied, a FID
handed on between two steady runs) follow the fuzzed test, then the
block-admission cases: stretches of first packets that evict their own
admissions, admit a flow whose home is taken (its plans the oracle's at
one to three probes), meet a sampled flow or a TCP first packet
mid-stretch, or come through the mixed-run replay.  Last, a strict
xfail pins the one thing the lane does not match yet: the runtime
registry's per-packet and table series (ROADMAP item 23).
"""

import contextlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.batchlane as batchlane_module
from repro.core.actions import Modify
from repro.core.framework import SpeedyBox
from repro.core.state_function import PayloadClass
from repro.nf import IPFilter, Monitor, SyntheticNF
from repro.nf.ipfilter import AclRule, Verdict
from repro.obs.audit import AuditLog
from repro.obs.registry import MetricsRegistry
from repro.obs.span import FlowSpanRecorder
from repro.platform import BessPlatform, OpenNetVMPlatform
from repro.traffic.columnar import uniform_batch
from repro.traffic.generator import FlowSpec
from tests.integration.helpers import (
    assert_classifier_invariants,
    batch_from_specs,
    batch_over,
    colliding_flows,
    friendly_twins,
    three_bit_homes,
)

PLATFORMS = {"bess": BessPlatform, "onvm": OpenNetVMPlatform}


def nf_factories():
    return [
        lambda i: SyntheticNF(f"ttl{i}", action=Modify.ttl_dec(), sf_payload_class=None),
        lambda i: SyntheticNF(
            f"mark{i}", action=Modify.set(dst_port=8080), sf_payload_class=None
        ),
        lambda i: SyntheticNF(f"fwd{i}", sf_payload_class=None),
        lambda i: SyntheticNF(f"rd{i}", sf_payload_class=PayloadClass.READ, sf_work_cycles=5),
        lambda i: Monitor(f"mon{i}"),
        lambda i: IPFilter(f"fw{i}"),
        lambda i: IPFilter(
            f"drop{i}",
            rules=[AclRule.make(dst_ports=(9999, 9999), verdict=Verdict.DROP)],
        ),
    ]


def build_chain(indices):
    factories = nf_factories()
    return [factories[index](position) for position, index in enumerate(indices)]


def build_batch(flow_params, interleave, seed):
    specs = []
    for flow_index, (count, tcp, handshake, fin, payload, dport) in enumerate(flow_params):
        if tcp:
            specs.append(
                FlowSpec.tcp(
                    f"10.0.{flow_index % 200}.{flow_index % 250 + 1}",
                    "20.0.0.1",
                    1000 + flow_index,
                    dport,
                    packets=count,
                    payload=payload,
                    handshake=handshake,
                    fin=fin,
                )
            )
        else:
            specs.append(
                FlowSpec.udp(
                    f"10.0.{flow_index % 200}.{flow_index % 250 + 1}",
                    "20.0.0.1",
                    1000 + flow_index,
                    dport,
                    packets=count,
                    payload=payload,
                )
            )
    return batch_from_specs(specs, interleave=interleave, seed=seed)


def run_leg(platform_cls, indices, load, capacity, spans=None):
    """A ``PacketBatch`` takes the lane; ``batch.packet_view()`` is the oracle."""
    audit = AuditLog()
    kwargs = {}
    if isinstance(capacity, dict):  # the two tables bounded apart
        kwargs = capacity
    elif capacity is not None:
        kwargs = dict(max_tracked_flows=capacity, max_flows=capacity)
    runtime = SpeedyBox(build_chain(indices), audit=audit, **kwargs)
    platform = platform_cls(runtime, spans=spans)
    result = platform.run_load(load)
    return result, runtime, audit.events()


flow_strategy = st.lists(
    st.tuples(
        st.integers(0, 6),                     # data packets (0 = lifecycle only)
        st.booleans(),                         # tcp?
        st.booleans(),                         # handshake (tcp only)
        st.booleans(),                         # fin (tcp only)
        st.sampled_from([b"", b"hello", b"x" * 33]),
        st.sampled_from([80, 443, 9999]),      # 9999 = dropped by `drop` NFs
    ),
    min_size=1,
    max_size=12,
)


@given(
    indices=st.lists(st.integers(0, len(nf_factories()) - 1), min_size=1, max_size=4),
    flow_params=flow_strategy,
    interleave=st.sampled_from(["sequential", "round_robin", "shuffled"]),
    seed=st.integers(0, 2**16),
    capacity=st.sampled_from([None, 1, 2, 4, 16]),
    platform_name=st.sampled_from(["bess", "onvm"]),
    fold_homes=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_batch_lane_equals_legacy(
    indices, flow_params, interleave, seed, capacity, platform_name, fold_homes
):
    """``fold_homes`` folds every home FID to three bits — up to twelve
    flows on eight homes, so nearly every flow is displaced and the small
    bounds evict owners from under the flows they displaced."""
    flow_params = [
        (count, tcp, handshake and tcp, fin and tcp, payload, dport)
        for (count, tcp, handshake, fin, payload, dport) in flow_params
    ]
    if all(
        count + (1 if hs else 0) + (1 if fin else 0) == 0
        for (count, __, hs, fin, ___, ____) in flow_params
    ):
        return  # zero packets: nothing to compare
    batch = build_batch(flow_params, interleave, seed)
    with three_bit_homes() if fold_homes else contextlib.nullcontext():
        assert_lane_equals_legacy(PLATFORMS[platform_name], indices, batch, capacity)


def local_mat_records(runtime):
    """Every Local MAT record — its actions and its state-function
    batch's contents — and each MAT's record counters."""
    return {
        name: (
            mat.records_ha,
            mat.records_sf,
            [
                (
                    fid,
                    rule.header_actions,
                    [(fn.nf_name, fn.name, fn.payload_class, fn.args) for fn in rule.sf_batch],
                    rule.event_count,
                )
                for fid, rule in mat._rules.items()
            ],
        )
        for name, mat in runtime.local_mats.items()
    }


def assert_lane_equals_legacy(platform_cls, indices, batch, capacity, spans=None):
    """Result, counters, audit stream, tables (Local MAT records too) and
    both LRU orders; with ``spans`` (a recorder factory), the two legs'
    span populations."""
    lane_spans, oracle_spans = (None, None) if spans is None else (spans(), spans())
    fast, fast_rt, fast_audit = run_leg(platform_cls, indices, batch, capacity, lane_spans)
    slow, slow_rt, slow_audit = run_leg(
        platform_cls, indices, batch.packet_view(), capacity, oracle_spans
    )

    assert fast == slow
    assert fast_rt.stats() == slow_rt.stats()
    assert fast_audit == slow_audit
    assert list(fast_rt.classifier._flows.items()) == list(slow_rt.classifier._flows.items())
    assert fast_rt.classifier._displaced == slow_rt.classifier._displaced
    assert fast_rt.classifier.collisions == slow_rt.classifier.collisions
    assert fast_rt.global_mat.flows() == slow_rt.global_mat.flows()
    assert fast_rt._compiled_fids == slow_rt._compiled_fids
    assert local_mat_records(fast_rt) == local_mat_records(slow_rt)
    if spans is not None:
        assert lane_spans.summary() == oracle_spans.summary()
        assert lane_spans.roots() == oracle_spans.roots()
    for runtime in (fast_rt, slow_rt):
        assert_classifier_invariants(runtime)
    return fast_rt


@pytest.mark.parametrize("capacity", [None, 8])
@pytest.mark.parametrize("k", [2, 16, 256])
def test_batch_lane_equals_legacy_with_k_flows_on_one_fid(k, capacity):
    """The committed one-FID fixture as lane input: k - 1 displaced flows."""
    batch = batch_over(colliding_flows(k), 4, interleave="round_robin")
    runtime = assert_lane_equals_legacy(BessPlatform, [0, 1, 4], batch, capacity)
    if capacity is None:
        assert len(runtime.classifier._displaced) == k - 1
        assert runtime.stats()["fid_collisions"] == k * (k - 1) // 2


def test_two_slots_of_one_five_tuple_stay_equivalent():
    """A flow table that names one five-tuple twice: one FID, two slots.
    The lane's FID index holds one slot and the other stays scalar, so
    when the short slot's FIN tears the flow down the long slot's cached
    clone goes with it — and its later packets start the flow over."""
    long_slot = FlowSpec.tcp("10.0.0.1", "20.0.0.1", 1000, 80, packets=12, payload=b"dup")
    short_slot = FlowSpec.tcp(
        "10.0.0.1", "20.0.0.1", 1000, 80, packets=5, payload=b"dup", fin=True
    )
    other = FlowSpec.udp("10.0.0.2", "20.0.0.1", 1001, 80, packets=12, payload=b"udp")
    batch = batch_from_specs([long_slot, short_slot, other], interleave="round_robin")
    assert batch.five_tuple_of(0) == batch.five_tuple_of(1)
    for capacity in (None, 1):
        assert_lane_equals_legacy(BessPlatform, [0, 1], batch, capacity)


def reordered(batch, slots):
    """``batch`` (built ``sequential``) with its packets in ``slots``
    order — one flow slot per packet, each flow's own order kept — and
    whatever ``slots`` leaves out appended slot by slot."""
    flows = batch.flow_count
    per_flow = len(batch) // flows
    slots = list(slots)
    slots += [slot for slot in range(flows) for __ in range(per_flow - slots.count(slot))]
    taken = [0] * flows
    order = []
    for slot in slots:
        order.append(slot * per_flow + taken[slot])
        taken[slot] += 1
    assert sorted(order) == list(range(len(batch)))
    for column in ("flow_index", "kind", "ordinal", "seq"):
        setattr(batch, column, getattr(batch, column)[order])
    return batch


def test_a_displaced_flow_with_an_empty_home_is_not_admitted_again():
    """A at the home, B displaced behind it; C's admission evicts A from
    the classifier and B's rule from the one-rule Global MAT.  B's next
    packet is scalar and finds its home FID free — which must not make it
    a new flow: it is tracked, one FID further on."""
    a, b = colliding_flows(2)
    (c,) = friendly_twins([a])
    batch = reordered(batch_over([a, b, c], 5, interleave="sequential"), [0, 1, 2, 1, 1, 0, 2])
    runtime = assert_lane_equals_legacy(
        BessPlatform, [0, 1], batch, {"max_tracked_flows": 2, "max_flows": 1}
    )
    assert runtime.stats()["classifier_evictions"] > 0


def test_bulk_admission_reads_the_flow_table_in_any_order():
    """First packets out of flow order.  Bulk admission reads the flow
    table through slices of ``_ROWS`` flows while it moves forward and
    one row at a time otherwise (four-flow slices here); both reads
    admit exactly what the oracle does."""
    slots = [0, 17, 1, 9, 2, 12, 3, 4, 19, 5, 6, 7, 8, 16, 10]
    batch = reordered(uniform_batch(20, 3, interleave="sequential"), slots)
    reads = []
    read = batchlane_module.BatchLane._load_rows

    def spy(lane, flow):
        rows = read(lane, flow)
        reads.append((flow, len(rows[0])))
        return rows

    with mock.patch.object(batchlane_module, "_ROWS", 4), mock.patch.object(
        batchlane_module.BatchLane, "_load_rows", spy
    ):
        assert_lane_equals_legacy(BessPlatform, [0, 1], batch, None)
    # 17 lies beyond the slice of flows 0-3 and is read alone; 4 follows
    # that slice and starts the next one
    assert (17, 1) in reads and (4, 4) in reads


def test_admission_onto_a_fid_whose_last_owner_just_died():
    """Bounded to two flows: admitting D evicts A (the oldest) and the
    very next packet admits B, whose home is the FID A held — before any
    steady run drained A's invalidation.  A's cached clone must die with
    the admission, or A's next packets would ride it."""
    a, b = colliding_flows(2)
    c, d = friendly_twins([a, b])
    # A A C D B A A B B, then the rest
    batch = reordered(
        batch_over([a, b, c, d], 5, interleave="sequential"), [0, 0, 2, 3, 1, 0, 0, 1, 1]
    )
    runtime = assert_lane_equals_legacy(BessPlatform, [0, 1], batch, 2)
    assert runtime.stats()["classifier_evictions"] > 2


# -- block admission: one admission loop per stretch of scalar packets --


@contextlib.contextmanager
def admission_stretches():
    """Record every ``BatchLane._scalar_run`` call of a lane run: whether
    the mixed-run replay made it, the positions it served, how many flows
    it admitted and the positions it handed to the oracle."""
    stretches = []
    scalar_run = batchlane_module.BatchLane._scalar_run
    scalar_packet = batchlane_module.BatchLane._scalar_packet

    def run_spy(lane, first, flows, kinds, at, hint):
        admitted = lane.admitted
        stretch = {"replay": kinds is None, "oracle": []}
        stretches.append(stretch)
        stop = scalar_run(lane, first, flows, kinds, at, hint)
        stretch["served"] = list(range(first + at, first + stop))
        stretch["admitted"] = lane.admitted - admitted
        return stop

    def packet_spy(lane, index, flow, kind, bulk_shape):
        stretches[-1]["oracle"].append(index)
        scalar_packet(lane, index, flow, kind, bulk_shape)

    with mock.patch.object(batchlane_module.BatchLane, "_scalar_run", run_spy), mock.patch.object(
        batchlane_module.BatchLane, "_scalar_packet", packet_spy
    ):
        yield stretches


def mid_run_oracle(stretches):
    """Positions the oracle served inside a stretch after that stretch
    had started admitting: neither its first packet nor the template's."""
    return [
        index
        for stretch in stretches
        if stretch["admitted"]
        for index in stretch["oracle"]
        if index > stretch["served"][0]
    ]


def block_oracle(platform_name, batch, capacity, spans=None):
    """The lane against ``packet_view()``, with the stretches it ran."""
    with admission_stretches() as stretches:
        assert_lane_equals_legacy(PLATFORMS[platform_name], [0, 1], batch, capacity, spans)
    return [stretch for stretch in stretches if stretch["served"]]


BOUNDS = [1, 2, {"max_tracked_flows": 4, "max_flows": 2}]


@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
@pytest.mark.parametrize("capacity", BOUNDS, ids=["cap1", "cap2", "tracked4-rules2"])
def test_an_admission_run_evicts_flows_it_admitted_itself(platform_name, capacity):
    """Twelve first packets in one stretch through tables of at most four
    flows: the stretch's own admissions are evicted by its later ones."""
    batch = uniform_batch(12, 3, interleave="round_robin")
    stretches = block_oracle(platform_name, batch, capacity)
    bound = capacity if isinstance(capacity, int) else capacity["max_tracked_flows"]
    assert stretches[0]["served"] == list(range(12))
    assert stretches[0]["admitted"] == 11 > bound


@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
@pytest.mark.parametrize("capacity", [None, 2])
def test_a_taken_home_sends_a_first_packet_to_the_oracle_mid_run(platform_name, capacity):
    """Twelve flows on eight homes, sampled for spans: a flow whose home
    a flow admitted earlier in the same stretch holds is displaced, and
    the oracle decides its sampling once it is placed, so the loop hands
    its first packet to the oracle and goes on admitting after it."""
    batch = uniform_batch(12, 3, interleave="round_robin")
    with three_bit_homes():
        stretches = block_oracle(
            platform_name, batch, capacity, spans=lambda: FlowSpanRecorder(every=64)
        )
    # flow 0, the one sampled, records the template and stays scalar, so
    # its second packet (12) is in the stretch too
    assert stretches[0]["served"] == list(range(13))
    assert mid_run_oracle(stretches)
    assert stretches[0]["admitted"] + len(stretches[0]["oracle"]) == 13


@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
@pytest.mark.parametrize("capacity", [1, 2, 8])
def test_a_taken_home_admits_the_displaced_flow(platform_name, capacity):
    """Twelve flows on eight homes, unsampled: every first packet after
    the template's is admitted, a displaced one at the FID the oracle's
    placement gives it (at a capacity of 1 the eviction frees the home
    first).  Tables, the displaced index, collisions, the audit stream
    and the result are the oracle's (``assert_lane_equals_legacy``)."""
    batch = uniform_batch(12, 3, interleave="round_robin")
    with three_bit_homes(), admission_stretches() as stretches:
        runtime = assert_lane_equals_legacy(PLATFORMS[platform_name], [0, 1], batch, capacity)
    assert stretches[0]["served"] == list(range(12))
    assert stretches[0]["oracle"] == [0] and stretches[0]["admitted"] == 11
    assert (runtime.classifier.collisions > 0) == (capacity > 1)


def lane_runs():
    """Every ``BatchLane`` a lane run builds, in the order they ran."""
    lanes = []
    run = batchlane_module.BatchLane.run

    def spy(lane):
        lanes.append(lane)
        return run(lane)

    return lanes, mock.patch.object(batchlane_module.BatchLane, "run", spy)


@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
def test_a_displaced_admitted_flows_plans_are_the_oracles(platform_name):
    """Four flows on one home: flow 0 records the template there and
    flows 1-3 are admitted k = 1, 2, 3 probes past it.  Every packet's
    stage plan and flags — first packets' and steady ones' — are those
    of the oracle's report for that packet."""
    batch = batch_over(colliding_flows(4), 3, interleave="round_robin")
    lanes, spy = lane_runs()
    with spy:
        runtime = assert_lane_equals_legacy(PLATFORMS[platform_name], [0, 1], batch, None)
    (lane,) = lanes
    assert [entry.probes for entry in runtime.classifier._flows.values()] == [0, 1, 2, 3]
    assert lane.admitted == 3 and sorted(lane._variants) == [1, 2, 3]
    oracle = PLATFORMS[platform_name](SpeedyBox(build_chain([0, 1])))
    for index, packet in enumerate(batch.packet_view()):
        report = oracle.runtime.process(packet)
        pid = int(lane.plan_ids[index])
        assert (lane.table[pid], lane.table.flags[pid]) == (
            oracle._stage_plan(report), report.is_fast + 2 * report.dropped
        ), index


@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
def test_a_sampled_flow_leaves_an_admission_run_for_the_oracle(platform_name):
    """Every third flow is sampled: its first packet goes to the oracle
    in the middle of the stretch, which admits the flows around it."""
    batch = uniform_batch(10, 3, interleave="round_robin")
    stretches = block_oracle(
        platform_name, batch, 4, spans=lambda: FlowSpanRecorder(every=3)
    )
    # flow 0 (sampled) records the template; 3, 6 and 9 are sampled, and
    # a sampled flow stays scalar, so flow 0's second packet (10) is in
    # the stretch too — which stops at flow 1's, steady since admitted
    assert stretches[0]["served"] == list(range(11))
    assert stretches[0]["oracle"] == [0, 3, 6, 9, 10]
    assert stretches[0]["admitted"] == 6


@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
@pytest.mark.parametrize("handshake", [False, True], ids=["data", "syn"])
def test_a_tcp_first_packet_is_the_oracles_inside_an_admission_run(platform_name, handshake):
    """A TCP flow's first packet — a data packet or its SYN — between
    UDP first packets: the oracle serves it in place and the stretch goes
    on admitting the UDP flows after it."""
    specs = [
        FlowSpec.udp(f"10.0.0.{flow + 1}", "20.0.0.1", 1000 + flow, 80, packets=4)
        for flow in range(8)
    ]
    specs[4] = FlowSpec.tcp("10.0.0.5", "20.0.0.1", 1004, 80, packets=4, handshake=handshake)
    batch = batch_from_specs(specs, interleave="round_robin")
    batch._payloads = None  # every flow sends the uniform empty payload
    stretches = block_oracle(platform_name, batch, 4)
    assert stretches[0]["served"] == list(range(8))
    assert stretches[0]["oracle"] == [0, 4]
    assert stretches[0]["admitted"] == 6


@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
def test_the_thrash_shape_admits_through_the_mixed_run_replay(platform_name):
    """Blocks of 32 flows through an 8-flow table: every steady hint is
    stale by the flow's next packet, so its run fails validation and the
    mixed-run replay admits it again through the same loop."""
    batch = uniform_batch(64, 4, interleave="round_robin", block=32)
    stretches = block_oracle(platform_name, batch, 8)
    replays = [stretch for stretch in stretches if stretch["replay"]]
    assert replays and sum(stretch["admitted"] for stretch in replays) > 0
    assert max(len(stretch["served"]) for stretch in replays) > 8


def registry_after(load):
    """The runtime registry's snapshot after one BESS run of ``load``,
    without the lane-only ``lane_*`` series; and the run's lane stats."""
    runtime = SpeedyBox(build_chain([0, 1]), metrics=MetricsRegistry())
    platform = BessPlatform(runtime)
    platform.run_load(load)
    snapshot = runtime.metrics.snapshot()
    return {key: value for key, value in snapshot.items() if not key.startswith("lane_")}, platform


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 23: admission and the span flush do not count what they "
    "serve into the runtime's per-packet and table series",
)
def test_the_lane_publishes_the_oracles_registry():
    batch = uniform_batch(20, 5, interleave="round_robin", block=8)
    lane, lane_platform = registry_after(batch)
    oracle, oracle_platform = registry_after(list(batch.packet_view()))
    assert lane_platform.last_lane_stats and oracle_platform.last_lane_stats is None
    assert lane == oracle

