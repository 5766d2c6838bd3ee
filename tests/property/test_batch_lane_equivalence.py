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
handed on between two steady runs) follow the fuzzed test.
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.actions import Modify
from repro.core.framework import SpeedyBox
from repro.core.state_function import PayloadClass
from repro.nf import IPFilter, Monitor, SyntheticNF
from repro.nf.ipfilter import AclRule, Verdict
from repro.obs.audit import AuditLog
from repro.platform import BessPlatform, OpenNetVMPlatform
from repro.traffic.columnar import batch_from_specs
from repro.traffic.generator import FlowSpec
from tests.integration.helpers import (
    assert_classifier_invariants,
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


def run_leg(platform_cls, indices, load, capacity):
    """A ``PacketBatch`` takes the lane; ``batch.packet_view()`` is the oracle."""
    audit = AuditLog()
    kwargs = {}
    if isinstance(capacity, dict):  # the two tables bounded apart
        kwargs = capacity
    elif capacity is not None:
        kwargs = dict(max_tracked_flows=capacity, max_flows=capacity)
    runtime = SpeedyBox(build_chain(indices), audit=audit, **kwargs)
    platform = platform_cls(runtime)
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


def assert_lane_equals_legacy(platform_cls, indices, batch, capacity):
    """Result, counters, audit stream, tables and both LRU orders."""
    fast, fast_rt, fast_audit = run_leg(platform_cls, indices, batch, capacity)
    slow, slow_rt, slow_audit = run_leg(
        platform_cls, indices, batch.packet_view(), capacity
    )

    assert fast == slow
    assert fast_rt.stats() == slow_rt.stats()
    assert fast_audit == slow_audit
    assert list(fast_rt.classifier._flows.items()) == list(slow_rt.classifier._flows.items())
    assert fast_rt.global_mat.flows() == slow_rt.global_mat.flows()
    assert fast_rt._compiled_fids == slow_rt._compiled_fids
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
    for column in ("flow_index", "kind", "ordinal", "seq", "size"):
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
