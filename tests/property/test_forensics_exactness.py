"""Property test: forensic decomposition is exact on every lane.

For every packet the :class:`~repro.obs.forensics.ForensicsEngine`
observes — whatever the execution lane (Lindley analytic replay, the
generator DES, the vectorized whole-batch lane) — the four components
must reproduce the packet's reported latency under IEEE float equality
in the canonical order ``((service + transfer) + stall) + queue``.
Hypothesis draws random flow populations, arrival gaps and chain
shapes; the engine runs in ``record_all`` mode so the claim is checked
for *every* packet, not a sampled stride.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.actions import Modify
from repro.core.framework import SpeedyBox
from repro.nf import IPFilter, MazuNAT, Monitor, SyntheticNF
from repro.obs import MetricsRegistry
from repro.obs.forensics import ForensicsEngine, components_sum
from repro.platform import BessPlatform, OpenNetVMPlatform
from repro.scale import ScaleCluster
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.columnar import uniform_batch


def assert_exact(engine: ForensicsEngine, expected_lane: str) -> None:
    assert engine.records, "record_all engine observed no packets"
    for record in engine.records:
        assert record.lane == expected_lane
        assert components_sum(
            record.queue_ns, record.service_ns, record.transfer_ns, record.stall_ns
        ) == record.latency_ns, (
            f"lane={record.lane} pkt={record.index}: "
            f"{record.queue_ns} + {record.service_ns} + "
            f"{record.transfer_ns} + {record.stall_ns} != {record.latency_ns}"
        )


def chain_for(shape: int):
    if shape == 0:
        return [IPFilter("fw0")]
    if shape == 1:
        return [IPFilter("fw0"), Monitor("mon0")]
    return [IPFilter("fw0"), Monitor("mon0"), IPFilter("fw1")]


def packet_stream(flows: int, per_flow: int):
    return TrafficGenerator(
        [FlowSpec.tcp(f"10.0.{i // 200}.{i % 200 + 1}", "10.9.0.1",
                      1024 + i, 80, packets=per_flow)
         for i in range(flows)],
        interleave="round_robin",
    ).packets()


scalar_cases = st.tuples(
    st.integers(min_value=1, max_value=10),   # flows
    st.integers(min_value=1, max_value=8),    # packets per flow
    st.integers(min_value=0, max_value=2),    # chain shape
    st.sampled_from([0.0, 50.0, 1000.0]),     # inter-arrival gap ns
    st.booleans(),                            # bess vs onvm
)


@settings(max_examples=25, deadline=None)
@given(scalar_cases)
def test_analytic_lane_components_sum_exactly(case):
    flows, per_flow, shape, gap, bess = case
    engine = ForensicsEngine(record_all=True, sample_every=1)
    platform_cls = BessPlatform if bess else OpenNetVMPlatform
    platform = platform_cls(SpeedyBox(chain_for(shape)), forensics=engine)
    platform.run_load(packet_stream(flows, per_flow), inter_arrival_ns=gap)
    assert_exact(engine, "analytic")


@settings(max_examples=25, deadline=None)
@given(scalar_cases)
def test_des_lane_components_sum_exactly(case):
    flows, per_flow, shape, gap, bess = case
    engine = ForensicsEngine(record_all=True, sample_every=1)
    platform_cls = BessPlatform if bess else OpenNetVMPlatform
    platform = platform_cls(
        SpeedyBox(chain_for(shape)),
        # An attached registry watches engine events, which only the
        # generator DES has: observing selects it.
        metrics=MetricsRegistry(),
        forensics=engine,
    )
    platform.run_load(packet_stream(flows, per_flow), inter_arrival_ns=gap)
    assert_exact(engine, "des")


batch_cases = st.tuples(
    st.integers(min_value=2, max_value=40),   # flows
    st.integers(min_value=1, max_value=6),    # packets per flow
    st.integers(min_value=2, max_value=16),   # admission block
)


@settings(max_examples=15, deadline=None)
@given(batch_cases)
def test_batch_lane_components_sum_exactly(case):
    flows, per_flow, block = case
    engine = ForensicsEngine(record_all=True, sample_every=1)
    chain = [
        SyntheticNF("fw", action=Modify.ttl_dec(), sf_payload_class=None),
        SyntheticNF("mon", sf_payload_class=None),
    ]
    platform = BessPlatform(SpeedyBox(chain), forensics=engine)
    batch = uniform_batch(flows, per_flow, interleave="round_robin", block=block)
    platform.run_load(batch)
    assert_exact(engine, "batch")


@pytest.mark.parametrize("platform_cls", [BessPlatform, OpenNetVMPlatform])
def test_lane_rows_equal_the_per_packet_rows(platform_cls):
    """Every packet's ``fid``, ``fast`` flag and service / transfer
    split come from the report that made its plan, on both functional
    routes.  The lane used to label packets by their flow's index in the
    batch, leave ``fast`` unset and estimate transfer from the plan's
    shape (one hop read as a fast-path plan: a BESS first packet came
    out as 1 325 / 130 ns where the pass says 920 / 535)."""

    def rows(offered):
        engine = ForensicsEngine(record_all=True)
        chain = [
            SyntheticNF("fw", action=Modify.ttl_dec(), sf_payload_class=None),
            SyntheticNF("nat", action=Modify.set(dst_port=8080), sf_payload_class=None),
            SyntheticNF("mon", sf_payload_class=None),
        ]
        platform = platform_cls(SpeedyBox(chain), forensics=engine)
        batch = uniform_batch(4, 4, interleave="round_robin")
        platform.run_load(batch if offered == "batch" else batch.packet_view())
        assert (platform.last_lane_stats is not None) == (offered == "batch")
        return [
            (record.fid, record.fast, record.service_ns, record.transfer_ns)
            for record in engine.records
        ]

    assert rows("batch") == rows("packet_view")


# -- observing a run must not change what forensics reports about it -----------


def stateful_trace():
    return TrafficGenerator(
        [FlowSpec.tcp(f"10.4.{i // 200}.{i % 200 + 1}", "99.0.0.9", 2000 + i, 443,
                      packets=6, handshake=True, fin=True)
         for i in range(40)],
        interleave="round_robin",
    ).packets()


def stateful_chain():
    return [MazuNAT("nat"), Monitor("mon"), IPFilter("fw")]


def unlabelled_rows(engine: ForensicsEngine) -> list:
    """The engine's rows without the labels that name the observer."""
    return [
        {key: value for key, value in row.items() if key not in ("lane", "replica")}
        for row in engine.rows()
    ]


@pytest.mark.parametrize("platform_name", ["bess", "onvm"])
def test_rows_do_not_depend_on_who_replayed_the_run(platform_name):
    """The same packets, the same ``LoadResult`` — bare (closed form),
    with a registry attached (DES) and as a one-replica cluster: the
    1-in-N stride and the windows run in packet order, which no replay
    reorders, so the rows are equal.  On ONVM, where fast packets
    overtake slow ones, the DES route and the cluster used to stride in
    completion order and disagreed with the closed form."""
    platform_cls = {"bess": BessPlatform, "onvm": OpenNetVMPlatform}[platform_name]

    def engine():
        return ForensicsEngine(worst_k=4, window_packets=64, sample_every=4)

    bare, watched, clustered = engine(), engine(), engine()
    results = [
        platform_cls(SpeedyBox(stateful_chain()), forensics=bare).run_load(stateful_trace()),
        platform_cls(
            SpeedyBox(stateful_chain()), metrics=MetricsRegistry(), forensics=watched
        ).run_load(stateful_trace()),
        ScaleCluster(
            stateful_chain, platform=platform_name, replicas=1, forensics=clustered
        ).run_load(stateful_trace()).total,
    ]
    assert results[0] == results[1] == results[2]
    assert {row["lane"] for row in watched.rows() if "lane" in row} == {"des"}
    assert unlabelled_rows(bare) == unlabelled_rows(watched) == unlabelled_rows(clustered)
    for row in bare.rows():
        if row["type"] == "worst":
            assert components_sum(
                row["queue_ns"], row["service_ns"], row["transfer_ns"], row["stall_ns"]
            ) == row["latency_ns"]
