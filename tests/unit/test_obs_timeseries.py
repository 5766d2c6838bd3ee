"""Windowed telemetry: clocks, ring eviction, registry deltas, export.

Includes the gen-3 oracle test: a platform run that fits in a single
window must reproduce the end-of-run
``LoadResult.latency_percentile`` values *bit-for-bit* — the window's
sample channel is the same population.
"""

import math

import pytest

from repro.core.framework import SpeedyBox
from repro.nf import IPFilter
from repro.obs import TimeSeries
from repro.obs.registry import MetricsRegistry
from repro.obs.record import load_jsonl
from repro.obs.report import render_windows
from repro.obs.timeseries import percentile_from_deltas
from repro.platform import BessPlatform
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets


def make_packets(flows=4, per_flow=8):
    specs = [
        FlowSpec.tcp(f"10.0.{i}.1", "20.0.0.1", 2000 + i, 80, packets=per_flow)
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
        for i in range(10):
            ts.record(float(i), latency_ns=100.0 + i)
        assert ts.windows_closed == 2
        assert all(w.packets == 4 for w in ts.windows)
        # two records still pending in the open window
        ts.finish()
        assert ts.windows_closed == 3
        assert ts.windows[-1].packets == 2

    def test_counts_split_drops_and_buffered(self):
        ts = TimeSeries(window_packets=8)
        ts.record(0.0, dropped=True)
        ts.record(1.0, buffered=True)
        ts.record(2.0, latency_ns=50.0)
        window = ts.finish()
        assert window.packets == 3
        assert window.drops == 1
        assert window.buffered == 1
        assert ts.total_packets == 3
        assert ts.total_drops == 1
        assert ts.total_buffered == 1

    def test_ingested_windows_have_no_simulated_bounds(self):
        """A finished result carries no arrival times: packet-clock
        windows cut from it used to take packet positions (0, 64, 128 …)
        for nanoseconds and report every rate as 1 000 Mpps."""
        ts = TimeSeries(window_packets=8)
        BessPlatform(SpeedyBox([IPFilter("fw0")]), timeseries=ts).run_load(make_packets())
        assert len(ts.windows) == 4 and all(w.packets == 8 for w in ts.windows)
        for window in ts.windows:
            row = window.summary()
            assert (row["start_ns"], row["end_ns"], row["rate_pps"]) == (None, None, None)
        table = render_windows([w.summary() for w in ts.windows])
        assert "1000.000" not in table
        assert all(line.split()[1] == "-" for line in table.splitlines()[3:])
        # a dispatch-time window keeps the arrival bounds it was fed
        live = TimeSeries(window_packets=2)
        live.record(10.0, latency_ns=1.0)
        live.record(30.0, latency_ns=1.0)
        assert (live.windows[0].start_ns, live.windows[0].end_ns) == (10.0, 30.0)
        assert live.windows[0].rate_pps == pytest.approx(2 / (20.0 / 1e9))


class TestSimTimeClock:
    def test_windows_align_to_the_grid(self):
        ts = TimeSeries(window_ns=100.0)
        ts.record(50.0, latency_ns=10.0)
        ts.record(250.0, latency_ns=20.0)   # crosses two boundaries
        assert ts.windows_closed == 1
        first = ts.windows[0]
        assert (first.start_ns, first.end_ns) == (0.0, 100.0)
        assert first.packets == 1
        last = ts.finish()
        assert (last.start_ns, last.end_ns) == (200.0, 300.0)

    def test_rate_is_packets_over_duration(self):
        ts = TimeSeries(window_ns=1000.0)
        for i in range(10):
            ts.record(float(i * 10))
        window = ts.finish()
        assert window.rate_pps == pytest.approx(10 / (1000.0 / 1e9))


class TestSampling:
    def test_replica_subwindows_partition_the_window(self):
        ts = TimeSeries(window_packets=100)
        for i in range(6):
            ts.record(float(i), latency_ns=10.0, replica=i % 2, fast_hit=(i % 2 == 0))
        window = ts.finish()
        assert set(window.replicas) == {0, 1}
        assert window.replicas[0].packets == 3
        assert window.replicas[0].fast_hits == 3
        assert window.replicas[1].fast_hits == 0
        assert sum(rw.packets for rw in window.replicas.values()) == window.packets


class TestRegistryDeltas:
    def test_counters_difference_per_window(self):
        registry = MetricsRegistry()
        counter = registry.counter("work_total", "")
        ts = TimeSeries(window_packets=2, registry=registry)
        counter.inc(5)
        ts.record(0.0)
        ts.record(1.0)  # closes window 0
        counter.inc(3)
        ts.record(2.0)
        ts.record(3.0)  # closes window 1
        deltas = [w.metric_deltas.get("work_total") for w in ts.windows]
        assert deltas == [5.0, 3.0]

    def test_histogram_deltas_yield_window_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_ns", "", buckets=(100.0, 200.0, 400.0))
        ts = TimeSeries(window_packets=1, registry=registry)
        for __ in range(99):
            hist.observe(50.0)
        hist.observe(399.0)
        ts.record(0.0)  # closes a window; snapshot runs
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
        for i in range(closed):
            ts.record(float(i), latency_ns=1.0)
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
        for i in range(3):
            ts.record(float(i))
        assert seen == [0, 1, 2]


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        ts = TimeSeries(window_packets=2)
        for i in range(4):
            ts.record(float(i), latency_ns=100.0 * (i + 1), replica="r0")
        path = tmp_path / "windows.jsonl"
        assert ts.write_jsonl(path) == 2
        rows = load_jsonl(path)
        assert [row["index"] for row in rows] == [0, 1]
        assert rows[0]["packets"] == 2
        assert rows[0]["replicas"]["r0"]["packets"] == 2
        assert rows[0]["p99_ns"] == ts.windows[0].p99_ns

    def test_render_windows_tables_live_and_loaded_rows(self, tmp_path):
        ts = TimeSeries(window_packets=2)
        for i in range(4):
            ts.record(float(i), latency_ns=100.0)
        text = render_windows([w.summary() for w in ts.windows])
        assert "p99_us" in text and "win" in text

    def test_summary_and_reset(self):
        ts = TimeSeries(window_packets=1)
        ts.record(0.0, dropped=True)
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
