"""Property test: forensics reduces over the time series' one cut.

A run has one window sequence, the one ``TimeSeries.ingest_result``
cuts; the :class:`~repro.obs.forensics.ForensicsEngine` has no window
clock of its own.  On either clock (packet count, simulated ns), on a
platform under each replay (the vector recursion, the closed form, the
DES) and on a cluster that loses a replica mid-run:

- the engine's window rows name the time series' windows, index for
  index, with the same packet counts;
- a buffered packet is never decomposed — not sampled, not kept among
  the worst — since its stall arrives as a ``StallCharge`` when recovery
  delivers it (``note_stall``);
- every decomposed packet's components sum exactly to its latency.

The engine keeps every replayed packet of a window as a worst-K record
(``worst_k`` above any window's size), so the last two claims are
checked packet by packet.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.framework import SpeedyBox
from repro.ft import FaultInjector, FaultTolerance, SharedPortPool, TransactionalStore
from repro.nf import IPFilter, MazuNAT, Monitor
from repro.obs import ForensicsEngine, MetricsRegistry, TimeSeries
from repro.obs.forensics import components_sum
from repro.platform import BessPlatform, OpenNetVMPlatform
from repro.scale import ScaleCluster
from repro.traffic import FlowSpec, TrafficGenerator

STRIDE = 3

clocks = st.one_of(
    st.integers(min_value=1, max_value=48).map(lambda k: {"window_packets": k}),
    st.sampled_from([300.0, 2_000.0, 20_000.0]).map(lambda ns: {"window_ns": ns}),
)

#: replay -> (platform class, arrival gap ns, attach a registry)
ROUTES = {
    "vector": (BessPlatform, 0.0, False),
    "analytic": (OpenNetVMPlatform, 120.0, False),
    "des": (BessPlatform, 120.0, True),
}


def trace(flows: int, per_flow: int):
    return TrafficGenerator(
        [FlowSpec.tcp(f"10.6.{i // 200}.{i % 200 + 1}", "99.1.0.7", 3000 + i, 80,
                      packets=per_flow, handshake=True)
         for i in range(flows)],
        interleave="round_robin",
    ).packets()


def assert_one_cut(timeseries: TimeSeries, engine: ForensicsEngine) -> list:
    """The three claims; returns the worst-K records."""
    windows = list(timeseries.windows)
    assert [(row["window"], row["packets"]) for row in engine.windows] == [
        (window.index, window.packets) for window in windows
    ]
    records = [record for __, worst in engine.recorder.entries for record in worst]
    for window, row, (__, worst) in zip(windows, engine.windows, engine.recorder.entries):
        replayed = window.packets - window.buffered
        assert len(worst) == replayed  # every replayed packet, no buffered one
        assert row["sampled"] == replayed // STRIDE
        assert sorted(record.latency_ns for record in worst) == window.sorted_latencies()
        assert window.components == {
            name: row[f"{name}_ns"] for name in ("service", "transfer", "stall", "queue")
        }
    assert engine.packets == timeseries.total_packets
    for record in records:
        assert record.stall_ns == 0.0  # a replayed packet waited; it never stalled
        assert components_sum(
            record.queue_ns, record.service_ns, record.transfer_ns, record.stall_ns
        ) == record.latency_ns
    return records


@settings(max_examples=30, deadline=None)
@given(
    route=st.sampled_from(sorted(ROUTES)),
    clock=clocks,
    flows=st.integers(min_value=1, max_value=12),
    per_flow=st.integers(min_value=1, max_value=6),
)
def test_a_platform_run_has_one_window_sequence(route, clock, flows, per_flow):
    platform_cls, gap, watched = ROUTES[route]
    timeseries = TimeSeries(**clock)
    engine = ForensicsEngine(worst_k=1 << 16, sample_every=STRIDE)
    extra = {"metrics": MetricsRegistry()} if watched else {}
    platform = platform_cls(
        SpeedyBox([MazuNAT("nat"), Monitor("mon"), IPFilter("fw")]),
        timeseries=timeseries, forensics=engine, **extra,
    )
    packets = trace(flows, per_flow)
    platform.run_load(packets, inter_arrival_ns=gap)
    records = assert_one_cut(timeseries, engine)
    assert timeseries.total_buffered == 0
    assert sorted(record.index for record in records) == list(range(len(packets)))
    assert {record.lane for record in records} == {route}


@settings(max_examples=12, deadline=None)
@given(
    clock=clocks,
    platform=st.sampled_from(["bess", "onvm"]),
    replicas=st.integers(min_value=2, max_value=3),
    kill_at=st.integers(min_value=20, max_value=90),
    recover_after=st.one_of(st.none(), st.integers(min_value=8, max_value=40)),
    gap=st.sampled_from([0.0, 150.0]),
)
def test_a_cluster_run_with_a_kill_has_one_window_sequence(
    clock, platform, replicas, kill_at, recover_after, gap
):
    pool = SharedPortPool(TransactionalStore(), port_range=(20000, 60000))

    def chain():
        return [MazuNAT("nat", port_range=(20000, 60000), port_pool=pool),
                Monitor("mon"), IPFilter("fw")]

    timeseries = TimeSeries(**clock)
    engine = ForensicsEngine(worst_k=1 << 16, sample_every=STRIDE)
    cluster = ScaleCluster(chain, platform=platform, replicas=replicas,
                           timeseries=timeseries, forensics=engine)
    ft = FaultTolerance(
        cluster,
        checkpoint_interval=8,
        injector=FaultInjector(kill_at=kill_at, recover_after=recover_after),
        forensics=engine,
    )
    packets = trace(16, 8)
    cluster.run_load(packets, inter_arrival_ns=gap)
    if ft.dead:
        ft.recover_all()
    records = assert_one_cut(timeseries, engine)
    assert timeseries.total_buffered == ft.packets_buffered > 0
    assert len(records) == len(packets) - ft.packets_buffered
    # the buffered packets' time is charged where recovery delivered them
    assert len(engine.stall_records) == sum(r.packets_charged for r in ft.recoveries)
    assert engine.stall_records
