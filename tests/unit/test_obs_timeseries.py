"""Windowed telemetry: clocks, ring eviction, registry deltas, export.

Includes the gen-3 oracle test: a platform run that fits in a single
window must reproduce the end-of-run
``LoadResult.latency_percentile`` values *bit-for-bit* — the window's
sample channel is the same population.  Every window is cut from one
finished run's columns (``TimeSeries.ingest_result``); the last class
holds those columns to the run itself on each route that fills them.
"""

import math

import pytest

from repro.core.framework import SpeedyBox
from repro.nf import IPFilter, MazuNAT, Monitor
from repro.nf.ipfilter import Verdict
from repro.obs import TimeSeries
from repro.obs.registry import MetricsRegistry
from repro.obs.record import load_jsonl
from repro.obs.report import render_windows
from repro.obs.timeseries import percentile_from_deltas
from repro.platform import BessPlatform
from repro.scale import ScaleCluster
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets
from tests.integration.helpers import ingest_rows


def make_packets(flows=4, per_flow=8, **spec_kwargs):
    specs = [
        FlowSpec.tcp(f"10.0.{i}.1", "20.0.0.1", 2000 + i, 80, packets=per_flow, **spec_kwargs)
        for i in range(flows)
    ]
    return TrafficGenerator(specs, interleave="round_robin").packets()


class TestConstruction:
    def test_both_clocks_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(window_ns=1000.0, window_packets=10)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(window_ns=0.0)
        with pytest.raises(ValueError):
            TimeSeries(window_packets=0)

    def test_default_is_sim_time_clock(self):
        ts = TimeSeries()
        assert ts.window_ns == 1_000_000.0
        assert ts.window_packets is None


class TestPacketClock:
    def test_windows_close_every_n_records(self):
        ts = TimeSeries(window_packets=4)
        closed = ingest_rows(ts, [(float(i), 100.0 + i) for i in range(10)])
        # the run's trailing two packets close with it: no window is left open
        assert ts.windows_closed == 3 == len(closed)
        assert [w.packets for w in ts.windows] == [4, 4, 2]
        assert ts.finish() is None
        # a window never spans two runs
        ingest_rows(ts, [(0.0, 1.0), (1.0, 1.0)])
        assert [w.packets for w in ts.windows] == [4, 4, 2, 2]

    def test_counts_split_drops_and_buffered(self):
        ts = TimeSeries(window_packets=8)
        (window,) = ingest_rows(ts, [(0.0, 7.0, 0, "drop"), (1.0, None, 0, "buffer"), (2.0, 50.0)])
        assert window.packets == 3
        assert window.drops == 1
        assert window.buffered == 1
        # a dropped packet has no latency, as in LoadResult
        assert window.latencies == [50.0]
        assert ts.total_packets == 3
        assert ts.total_drops == 1
        assert ts.total_buffered == 1

    def test_ingested_windows_carry_their_arrival_bounds(self):
        """A packet-clock window is bounded by its first and last
        arrival, on every route: a saturated run offers every packet at
        0 (no rate), a spaced one at its gaps."""
        ts = TimeSeries(window_packets=8)
        BessPlatform(SpeedyBox([IPFilter("fw0")]), timeseries=ts).run_load(make_packets())
        assert len(ts.windows) == 4 and all(w.packets == 8 for w in ts.windows)
        for window in ts.windows:
            row = window.summary()
            assert (row["start_ns"], row["end_ns"], row["rate_pps"]) == (0.0, 0.0, None)
        table = render_windows([w.summary() for w in ts.windows])
        assert "1000.000" not in table
        assert all(line.split()[1] == "0" for line in table.splitlines()[3:])

        spaced = TimeSeries(window_packets=8)
        BessPlatform(SpeedyBox([IPFilter("fw0")]), timeseries=spaced).run_load(
            make_packets(), inter_arrival_ns=100.0
        )
        bounds = [(w.start_ns, w.end_ns) for w in spaced.windows]
        assert bounds == [(800.0 * k, 800.0 * k + 700.0) for k in range(4)]
        assert spaced.windows[0].rate_pps == pytest.approx(8 / (700.0 / 1e9))


class TestSimTimeClock:
    def test_windows_align_to_the_grid(self):
        ts = TimeSeries(window_ns=100.0)
        ingest_rows(ts, [(50.0, 10.0), (250.0, 20.0)])
        # [100, 200) held no arrival: it is no window
        assert ts.windows_closed == 2
        first, last = ts.windows
        assert (first.start_ns, first.end_ns) == (0.0, 100.0)
        assert first.packets == 1
        assert (last.start_ns, last.end_ns, last.index) == (200.0, 300.0, 1)

    def test_rate_is_packets_over_duration(self):
        ts = TimeSeries(window_ns=1000.0)
        (window,) = ingest_rows(ts, [(float(i * 10), 1.0) for i in range(10)])
        assert window.rate_pps == pytest.approx(10 / (1000.0 / 1e9))

    def test_out_of_order_arrivals_group_by_slot(self):
        ts = TimeSeries(window_ns=100.0)
        ingest_rows(ts, [(150.0, 1.0), (20.0, 2.0), (160.0, 3.0), (30.0, 4.0)])
        assert [(w.start_ns, w.latencies) for w in ts.windows] == [
            (0.0, [2.0, 4.0]), (100.0, [1.0, 3.0])
        ]


class TestSampling:
    def test_replica_subwindows_partition_the_window(self):
        ts = TimeSeries(window_packets=100)
        (window,) = ingest_rows(
            ts, [(float(i), 10.0, i % 2, "ok", i % 2 == 0) for i in range(6)]
        )
        assert set(window.replicas) == {0, 1}
        assert window.replicas[0].packets == 3
        assert window.replicas[0].fast_hits == 3
        assert window.replicas[1].fast_hits == 0
        assert sum(rw.packets for rw in window.replicas.values()) == window.packets


class TestRegistryDeltas:
    def test_counters_difference_per_window(self):
        """Windows close after their run, so a run's first window holds
        what the registry moved since the previous run, and the rest of
        its windows hold nothing: the deltas are per run."""
        registry = MetricsRegistry()
        counter = registry.counter("work_total", "")
        ts = TimeSeries(window_packets=2, registry=registry)
        counter.inc(5)
        ingest_rows(ts, [(0.0, 1.0), (1.0, 1.0)])
        counter.inc(3)
        ingest_rows(ts, [(2.0, 1.0), (3.0, 1.0), (4.0, 1.0), (5.0, 1.0)])
        deltas = [w.metric_deltas.get("work_total") for w in ts.windows]
        assert deltas == [5.0, 3.0, None]

    def test_histogram_deltas_yield_window_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_ns", "", buckets=(100.0, 200.0, 400.0))
        ts = TimeSeries(window_packets=1, registry=registry)
        for __ in range(99):
            hist.observe(50.0)
        hist.observe(399.0)
        ingest_rows(ts, [(0.0, 1.0)])  # closes a window; snapshot runs
        window = ts.windows[-1]
        pcts = window.hist_percentiles["lat_ns"]
        # Prometheus-style estimate: linear interpolation inside the
        # winning bucket, so p50 lands at rank 50/99 of [0, 100].
        assert pcts["p50"] == pytest.approx(100.0 * 50 / 99)
        assert 0.0 < pcts["p50"] <= 100.0
        assert 0.0 < pcts["p99"] <= 400.0


class TestRing:
    def test_eviction_is_bounded_and_keeps_totals(self):
        ts = TimeSeries(window_packets=1)
        closed = TimeSeries.CAPACITY + 3
        ingest_rows(ts, [(float(i), 1.0) for i in range(closed)])
        assert ts.windows_closed == closed
        assert len(ts.windows) == TimeSeries.CAPACITY
        assert ts.evicted == 3
        # run totals are tracked outside the ring
        assert ts.total_packets == closed
        # retained windows keep their own totals untouched
        assert [w.index for w in ts.windows] == list(range(3, closed))
        assert all(w.packets == 1 for w in ts.windows)

    def test_on_close_fires_in_order(self):
        seen = []
        ts = TimeSeries(window_packets=1)
        ts.on_close(lambda w: seen.append(w.index))
        ingest_rows(ts, [(float(i), 1.0) for i in range(3)])
        assert seen == [0, 1, 2]


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        ts = TimeSeries(window_packets=2)
        ingest_rows(ts, [(float(i), 100.0 * (i + 1), "r0") for i in range(4)])
        path = tmp_path / "windows.jsonl"
        assert ts.write_jsonl(path) == 2
        rows = load_jsonl(path)
        assert [row["index"] for row in rows] == [0, 1]
        assert rows[0]["packets"] == 2
        assert rows[0]["replicas"]["r0"]["packets"] == 2
        assert rows[0]["p99_ns"] == ts.windows[0].p99_ns

    def test_render_windows_tables_live_and_loaded_rows(self, tmp_path):
        ts = TimeSeries(window_packets=2)
        ingest_rows(ts, [(float(i), 100.0) for i in range(4)])
        text = render_windows([w.summary() for w in ts.windows])
        assert "p99_us" in text and "win" in text

    def test_summary_and_reset(self):
        ts = TimeSeries(window_packets=1)
        ingest_rows(ts, [(0.0, 1.0, 0, "drop")])
        summary = ts.summary()
        assert summary["windows_closed"] == 1
        assert summary["total_drops"] == 1
        ts.reset()
        assert len(ts.windows) == 0
        assert ts.total_packets == 0


class TestPercentileFromDeltas:
    def test_interpolates_inside_the_winning_bucket(self):
        bounds = (100.0, 200.0, math.inf)
        # 50 obs <= 100, 50 in (100, 200]
        assert percentile_from_deltas(bounds, (50, 50, 0), 0.50) == pytest.approx(100.0)
        assert percentile_from_deltas(bounds, (50, 50, 0), 0.75) == pytest.approx(150.0)

    def test_empty_and_overflow(self):
        bounds = (100.0, math.inf)
        assert percentile_from_deltas(bounds, (0, 0), 0.5) is None
        # all mass in the +Inf bucket clamps to the last finite bound
        assert percentile_from_deltas(bounds, (0, 10), 0.5) == pytest.approx(100.0)


class TestOracle:
    """Satellite: single-window run must match the end-of-run summary."""

    def test_single_window_percentiles_match_latency_percentile_exactly(self):
        packets = make_packets(flows=8, per_flow=16)
        ts = TimeSeries(window_packets=10 * len(packets))
        platform = BessPlatform(
            SpeedyBox([IPFilter(f"f{i}") for i in range(3)]), timeseries=ts
        )
        result = platform.run_load(clone_packets(packets))
        assert result.delivered == len(packets)
        assert len(ts.windows) == 1
        window = ts.windows[0]
        assert window.packets == len(packets)
        # Exact equality, not approx: same samples, same estimator.
        for fraction in (0.50, 0.90, 0.99):
            assert window.percentile(fraction) == result.latency_percentile(fraction)

    def test_spaced_run_splits_into_sim_time_windows(self):
        packets = make_packets(flows=4, per_flow=16)
        ts = TimeSeries(window_ns=16_000.0)
        platform = BessPlatform(SpeedyBox([IPFilter("fw")]), timeseries=ts)
        result = platform.run_load(clone_packets(packets), inter_arrival_ns=1000.0)
        assert result.delivered == len(packets)
        assert ts.windows_closed >= 2
        assert sum(w.packets for w in ts.windows) == len(packets)
        # windows sit on the 16us grid
        for window in ts.windows:
            assert window.start_ns % 16_000.0 == 0.0


class TestRunColumns:
    """What a window holds is what the run did, packet by packet."""

    def test_an_all_drop_run_counts_each_packet_once_where_it_arrived(self):
        ts = TimeSeries(window_ns=1000.0)
        platform = BessPlatform(
            SpeedyBox([IPFilter("fw", default_verdict=Verdict.DROP)]), timeseries=ts
        )
        result = platform.run_load(make_packets(flows=5, per_flow=10), inter_arrival_ns=100.0)
        assert result.dropped == result.offered == 50
        assert ts.total_packets == ts.total_drops == 50
        # ten arrivals per microsecond slot, each slot's packets all dropped
        assert [(w.start_ns, w.packets, w.drops) for w in ts.windows] == [
            (1000.0 * k, 10, 10) for k in range(5)
        ]
        # nothing was delivered, so no window has a latency to rank
        assert all(not w.latencies and w.p99_ns is None for w in ts.windows)
        assert all(w.replicas["bess"].percentile(0.99) is None for w in ts.windows)

    def test_a_timestamped_run_is_cut_on_its_timestamps(self):
        packets = make_packets(flows=5, per_flow=10)
        for index, packet in enumerate(packets):
            packet.timestamp_ns = index * 100_000.0
        ts = TimeSeries(window_ns=1_000_000.0)
        BessPlatform(SpeedyBox([IPFilter("fw")]), timeseries=ts).run_load(
            packets, use_timestamps=True
        )
        assert [(w.start_ns, w.end_ns, w.packets) for w in ts.windows] == [
            (1e6 * k, 1e6 * (k + 1), 10) for k in range(5)
        ]

    def test_cluster_windows_hold_the_replayed_latencies(self):
        packets = make_packets(flows=12, per_flow=10)
        ts = TimeSeries(window_packets=10 * len(packets))
        cluster = ScaleCluster(
            lambda: [MazuNAT("nat"), Monitor("mon"), IPFilter("fw")],
            replicas=2,
            timeseries=ts,
        )
        result = cluster.run_load(clone_packets(packets))
        (window,) = ts.windows
        assert sorted(window.latencies) == sorted(result.total.latencies_ns.tolist())
        for fraction in (0.50, 0.90, 0.99):
            assert window.percentile(fraction) == result.total.latency_percentile(fraction)
        for rid, part in result.per_replica.items():
            assert sorted(window.replicas[rid].latencies) == sorted(part.latencies_ns.tolist())

    def test_fast_hits_fall_in_the_windows_of_the_fast_packets(self):
        packets = make_packets(flows=40, per_flow=6, handshake=True)
        chain = lambda: [MazuNAT("nat"), Monitor("mon"), IPFilter("fw")]  # noqa: E731
        unloaded = BessPlatform(SpeedyBox(chain()))
        fast = [unloaded.process(packet).report.is_fast for packet in clone_packets(packets)]
        ts = TimeSeries(window_packets=40)
        BessPlatform(SpeedyBox(chain()), timeseries=ts).run_load(clone_packets(packets))
        expected = [sum(fast[lo : lo + 40]) for lo in range(0, len(packets), 40)]
        assert expected == [0, 0, 40, 40, 40, 40, 40]
        assert [w.replicas["bess"].fast_hits for w in ts.windows] == expected
