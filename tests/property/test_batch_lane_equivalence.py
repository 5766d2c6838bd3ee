"""Fuzzed batch-lane equivalence (the §VII-C oracle, columnar edition).

Random chains (header-action, stateful and dropping NFs), random flow
populations (TCP lifecycle flags, payload mixes), random interleaves,
table capacities and admission-block sizes — the whole-batch lane's
result must be numerically identical to the legacy per-packet oracle on
every draw: LoadResult (latency list element for element), runtime
stats, and the audit stream sans timestamps.
"""

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
    if capacity is not None:
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
    capacity=st.sampled_from([None, 4, 16]),
    platform_name=st.sampled_from(["bess", "onvm"]),
)
@settings(max_examples=50, deadline=None)
def test_batch_lane_equals_legacy(indices, flow_params, interleave, seed, capacity, platform_name):
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
    platform_cls = PLATFORMS[platform_name]

    fast, fast_rt, fast_audit = run_leg(platform_cls, indices, batch, capacity)
    slow, slow_rt, slow_audit = run_leg(
        platform_cls, indices, batch.packet_view(), capacity
    )

    assert fast.offered == slow.offered
    assert fast.delivered == slow.delivered
    assert fast.dropped == slow.dropped
    assert fast.makespan_ns == slow.makespan_ns
    assert list(fast.latencies_ns) == list(slow.latencies_ns)
    assert fast_rt.stats() == slow_rt.stats()
    assert fast_audit == slow_audit
