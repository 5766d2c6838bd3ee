"""Unit tests for tail-latency forensics (repro.obs.forensics).

The load-bearing claim is *exactness*: every decomposed packet's
components reproduce its latency under IEEE float equality in the
canonical order ``((service + transfer) + stall) + queue`` — including
the round-half-even midpoint inputs where no exact residual exists and
the decomposition must fall back to a queue-only split rather than
break the invariant.
"""

import hashlib
import json
from unittest import mock

import pytest

import repro.platform.base as platform_base
from repro.core.framework import SpeedyBox
from repro.nf import IPFilter, Monitor
from repro.obs import AuditLog
from repro.obs.forensics import (
    COMPONENTS,
    FlightRecorder,
    ForensicsEngine,
    RegimeShiftDetector,
    StallCharge,
    TailRecord,
    components_sum,
    decompose,
    emit_recovery_regime_shift,
    exact_residual,
    group_forensics_rows,
    split_plan_total,
)
from repro.obs.record import load_jsonl
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import TimeSeries
from repro.obs.report import render_forensics, render_timeline
from repro.platform import BessPlatform, OpenNetVMPlatform
from repro.traffic import FlowSpec, TrafficGenerator
from repro.vector import np


class TestExactResidual:
    def test_naive_difference_is_not_exact_in_general(self):
        # The motivating example: (a - b) + b != a.
        a, b = 2.0**52 + 3.0, 0.5
        assert (a - b) + b != a

    def test_walk_finds_exact_residual_when_one_exists(self):
        a, b = 2.0**52 + 3.0, 1.0
        q = exact_residual(a, b)
        assert b + q == a

    def test_midpoint_has_no_exact_residual_and_returns_naive(self):
        # Both neighbouring q values tie-to-even onto an even sum while
        # the target is odd — the walk gives up and returns a - b.
        a, b = 2.0**52 + 3.0, 0.5
        q = exact_residual(a, b)
        assert q == a - b
        assert b + q != a  # no exact residual exists at this midpoint

    def test_trivial_cases(self):
        assert exact_residual(0.0, 0.0) == 0.0
        assert exact_residual(100.0, 40.0) == 60.0


class TestSplitPlanTotal:
    def test_split_is_exact(self):
        service, transfer = split_plan_total(1234.5, 200.25)
        assert service + transfer == 1234.5
        assert transfer == 200.25

    def test_estimate_clamped_to_plan_total(self):
        service, transfer = split_plan_total(100.0, 1e9)
        assert transfer <= 100.0
        assert service + transfer == 100.0
        service, transfer = split_plan_total(100.0, -5.0)
        assert transfer == 0.0
        assert service == 100.0

    def test_zero_plan_collapses(self):
        assert split_plan_total(0.0, 10.0) == (0.0, 0.0)


class TestDecompose:
    def test_components_sum_exactly(self):
        queue, service, transfer, stall = decompose(1000.0, 321.7, 45.3)
        assert stall == 0.0
        assert components_sum(queue, service, transfer, stall) == 1000.0

    def test_midpoint_falls_back_to_queue_only(self):
        # No exact residual exists for these inputs; the invariant must
        # survive via the queue-only fallback.
        latency = 2.0**52 + 3.0
        queue, service, transfer, stall = decompose(latency, 0.5, 0.0)
        assert (queue, service, transfer, stall) == (latency, 0.0, 0.0, 0.0)
        assert components_sum(queue, service, transfer, stall) == latency

    def test_extreme_magnitude_gap_still_exact(self):
        queue, service, transfer, stall = decompose(2.0**52 + 3.0, 2.0**52, 1.0)
        assert components_sum(queue, service, transfer, stall) == 2.0**52 + 3.0


class TestRecords:
    def test_tail_record_dominant_and_tiebreak(self):
        record = TailRecord(0, 100.0, 60.0, 30.0, 5.0, 5.0)
        assert record.dominant == "queue"
        # Exact tie between service and queue: canonical order wins.
        tie = TailRecord(0, 100.0, 50.0, 50.0, 0.0, 0.0)
        assert tie.dominant == "service"
        assert COMPONENTS.index("service") < COMPONENTS.index("queue")

    def test_stall_charge_latency_is_canonical_sum(self):
        charge = StallCharge("r0", "flow", 10.0, stall_ns=900.0, service_ns=100.0)
        assert charge.latency_ns == components_sum(0.0, 100.0, 0.0, 900.0)
        summary = charge.summary()
        assert summary["dominant"] == "stall"
        assert summary["type"] == "stall"


class TestFlightRecorder:
    def test_ring_is_bounded_and_evicts_oldest(self):
        recorder = FlightRecorder(worst_k=2)
        windows = FlightRecorder.CAPACITY + 2
        for wid in range(windows):
            recorder.record_window({"window": wid}, [])
        assert recorder.windows_recorded == windows
        assert recorder.windows_evicted == 2
        assert [summary["window"] for summary, __ in recorder.entries] == list(range(2, windows))

    def test_worst_overall_sorted_latency_desc(self):
        recorder = FlightRecorder(worst_k=2)
        mk = lambda i, lat: TailRecord(i, lat, lat, 0.0, 0.0, 0.0)
        recorder.record_window({"window": 0}, [mk(0, 5.0), mk(1, 9.0)])
        recorder.record_window({"window": 1}, [mk(2, 7.0)])
        assert [r.latency_ns for r in recorder.worst_overall()] == [9.0, 7.0, 5.0]

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            FlightRecorder(worst_k=0)


def judge(detector, windows, engine=None):
    """Close one window per ``(latencies, buffered)`` through a
    ``TimeSeries`` on a 1 us clock that ``detector`` is attached to, as
    one run; ``engine`` (whose detector it is) reduces over the cut with
    every packet's plan 10 ns of service."""
    timeseries = TimeSeries(window_ns=1000.0)
    detector.attach(timeseries)
    arrival, latency, held = [], [], []
    for index, (latencies, buffered) in enumerate(windows):
        arrival += [index * 1000.0] * (len(latencies) + buffered)
        latency += list(latencies) + [float("nan")] * buffered
        held += [False] * len(latencies) + [True] * buffered
    n = len(arrival)
    labels = (np.full(n, 10.0), np.zeros(n), np.ones(n, dtype=np.int64),
              np.zeros(n, dtype=np.int64), np.full(n, "vector", dtype=object))
    flags = np.zeros(n, dtype=bool)
    return timeseries.ingest_result(
        arrival, latency, "r0", flags, flags, held, labels=labels, forensics=engine
    )


class TestRegimeShiftDetector:
    def test_fires_on_p99_jump_with_audit_event(self):
        audit = AuditLog()
        engine = ForensicsEngine(sample_every=1, audit=audit)
        detector = engine.detector
        judge(detector, [([100.0, 150.0], 0)] * 4 + [([100.0, 400.0], 0)], engine)
        assert len(detector.shifts) == 1
        shift = detector.shifts[0]
        assert (shift["window"], shift["metric"]) == (4, "p99")
        assert shift["component"] == "queue"  # 390 of the 400 ns waited
        events = audit.events("latency_regime_shift")
        assert len(events) == 1
        assert events[0]["current"] == 400.0 and events[0]["baseline"] == 150.0

    def test_needs_min_baseline_before_firing(self):
        detector = RegimeShiftDetector()
        judge(detector, [([100.0, 100.0], 0), ([900.0, 900.0], 0)])  # only 1 sample
        assert detector.shifts == []

    def test_buffered_fraction_fires_stall_component_once_per_regime(self):
        detector = RegimeShiftDetector()
        # latched through the second surge window, cleared by the third
        judge(detector, [([100.0] * 90, 10), ([100.0] * 80, 20), ([100.0] * 100, 0),
                         ([100.0] * 50, 50)])
        stall_shifts = [s for s in detector.shifts if s["component"] == "stall"]
        assert [s["window"] for s in stall_shifts] == [0, 3]
        assert stall_shifts[0]["current"] == 0.1 and stall_shifts[0]["buffered"] == 10

    def test_forget_starts_a_fresh_baseline(self):
        detector = RegimeShiftDetector()
        judge(detector, [([100.0, 100.0], 0)] * 3 + [([100.0] * 90, 10)])
        detector.forget()
        # no baseline to jump from, and the surge latch is open again
        judge(detector, [([900.0, 900.0], 0), ([100.0] * 90, 10)])
        assert [(s["metric"], s["window"]) for s in detector.shifts] == [
            ("buffered_fraction", 3), ("buffered_fraction", 1)
        ]

    def test_each_closed_window_is_observed_once_against_earlier_ones(self, monkeypatch):
        """Wired as the CLI wires it (the detector attached to the run's
        TimeSeries, the engine reducing over its cut), a run that closes
        three windows is judged three times — each window once, in
        order, on its exact p99 against the windows before it, with the
        component sums the engine left on it."""
        from repro.cli import build_chain, make_trace_packets

        timeseries = TimeSeries(window_packets=256)
        engine = ForensicsEngine()
        detector = engine.detector
        judged = []
        observe = detector.observe

        def spy(window):
            judged.append((window.index, list(detector._p99s), dict(window.components)))
            observe(window)

        monkeypatch.setattr(detector, "observe", spy)
        detector.attach(timeseries)
        platform = BessPlatform(
            SpeedyBox(build_chain("nat,monitor,firewall")),
            timeseries=timeseries,
            forensics=engine,
        )
        packets = make_trace_packets(40, 1)
        assert len(packets) == 602
        platform.run_load(packets)
        p99s = [window.p99_ns for window in timeseries.windows]
        assert len(timeseries) == len(engine.windows) == 3
        assert [index for index, __, ___ in judged] == [row["window"] for row in engine.windows]
        assert [(index, history) for index, history, __ in judged] == [
            (index, p99s[:index]) for index in range(3)
        ]
        assert [components for __, ___, components in judged] == [
            {name: row[f"{name}_ns"] for name in COMPONENTS} for row in engine.windows
        ]
        assert list(detector._p99s) == p99s

    def test_unknown_component_without_sums(self):
        assert RegimeShiftDetector._moved_component(None) == "unknown"
        assert RegimeShiftDetector._moved_component({"stall": 5.0}) == "stall"

    def test_emit_recovery_regime_shift_names_stall(self):
        audit = AuditLog()
        emit_recovery_regime_shift(audit, 2, [100.0, 300.0, 200.0])
        event = audit.last("latency_regime_shift")
        assert event["component"] == "stall"
        assert event["current"] == 200.0  # median
        assert event["stall_max_ns"] == 300.0
        emit_recovery_regime_shift(audit, 2, [])  # no stalls, no event
        assert len(audit.events("latency_regime_shift")) == 1


def run_engine(engine, packets=96, window_packets=4096):
    observers = {}
    if engine is not None:
        observers = {"timeseries": TimeSeries(window_packets=window_packets), "forensics": engine}
    platform = BessPlatform(SpeedyBox([IPFilter("fw0")]), **observers)
    stream = TrafficGenerator(
        [FlowSpec.tcp(f"10.0.0.{i}", "10.0.1.1", 1000 + i, 80, packets=8)
         for i in range(packets // 8)],
        interleave="round_robin",
    ).packets()
    result = platform.run_load(stream)
    return result


class TestForensicsEngine:
    def test_an_engine_needs_a_timeseries(self):
        with pytest.raises(ValueError, match="timeseries"):
            BessPlatform(SpeedyBox([IPFilter("fw0")]), forensics=ForensicsEngine())

    def test_absent_engine_keeps_platform_results_identical(self):
        bare = run_engine(None)
        observed = run_engine(ForensicsEngine(sample_every=1))
        assert bare == observed

    def test_record_all_components_sum_exactly_per_packet(self):
        # worst_k covers the window: every packet is a worst-K record
        engine = ForensicsEngine(worst_k=96, sample_every=1)
        run_engine(engine)
        records = engine.recorder.worst_overall()
        assert len(records) == 96
        for record in records:
            assert components_sum(
                record.queue_ns, record.service_ns,
                record.transfer_ns, record.stall_ns,
            ) == record.latency_ns

    def test_windows_and_worst_k_populate(self):
        engine = ForensicsEngine(worst_k=3, sample_every=1)
        run_engine(engine, packets=64, window_packets=16)
        assert engine.packets == 64
        assert [row["window"] for row in engine.windows] == [0, 1, 2, 3]
        for __, worst in engine.recorder.entries:
            assert 1 <= len(worst) <= 3
        top = engine.recorder.worst_overall()[:3]
        assert all(a.latency_ns >= b.latency_ns for a, b in zip(top, top[1:]))

    def test_note_stall_accumulates(self):
        engine = ForensicsEngine()
        engine.note_stall(StallCharge("r1", "f", 0.0, stall_ns=500.0, service_ns=20.0))
        assert engine.totals["stall"] == 500.0
        assert engine.summary()["stall_records"] == 1

    def test_jsonl_round_trip(self, tmp_path):
        engine = ForensicsEngine(sample_every=1)
        run_engine(engine, window_packets=32)
        engine.note_stall(StallCharge("r0", "flow", 5.0, 900.0, 100.0))
        path = tmp_path / "forensics.jsonl"
        count = engine.write_jsonl(path)
        assert count == len(engine.rows())
        data = group_forensics_rows(load_jsonl(path))
        assert data["summary"]["packets"] == engine.packets
        assert len(data["windows"]) == len(engine.windows)
        assert len(data["stalls"]) == 1
        assert data["stalls"][0]["dominant"] == "stall"

    def test_load_rejects_empty_and_truncated(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_jsonl(empty)
        truncated = tmp_path / "trunc.jsonl"
        truncated.write_text(
            json.dumps({"type": "summary"}) + "\n" + '{"type": "wind'
        )
        with pytest.raises(ValueError, match="trunc.jsonl:2:"):
            load_jsonl(truncated)


class TestTimelineAndRendering:
    def test_timeline_orders_and_normalizes(self):
        """The journal's story in ascending ``seq``, one line per event in
        one format; what is not story (a checkpoint) stays off it, and a
        long story keeps its first and last events and names the rest."""
        audit = [
            {"seq": 5, "kind": "ft_failover_complete", "replica": 0, "delivered": 3},
            {"seq": 1, "kind": "ft_kill", "replica": 0},
            {"seq": 2, "kind": "ft_checkpoint", "replica": 1, "cause": "interval"},
            {"seq": 3, "kind": "latency_regime_shift", "metric": "p99", "window": 0},
        ]
        assert render_timeline(audit).splitlines() == [
            "timeline (3 events)",
            "  #1 ft_kill replica=0",
            "  #3 latency_regime_shift metric=p99 window=0",
            "  #5 ft_failover_complete delivered=3 replica=0",
        ]
        story = [{"seq": seq, "kind": "ft_restore"} for seq in range(100, 140)]
        lines = render_timeline(story).splitlines()
        assert lines[0] == "timeline (40 events)" and len(lines) == 1 + 20 + 1 + 10
        assert lines[20] == "  #119 ft_restore" and lines[22] == "  #130 ft_restore"
        assert lines[21] == "  ... 10 events left out (#120 to #129)"
        assert render_timeline(audit[2:3]).splitlines()[1].startswith("(no ")

    def test_render_forensics_shows_attribution_and_worst(self, tmp_path):
        engine = ForensicsEngine(sample_every=1)
        run_engine(engine, window_packets=32)
        path = tmp_path / "f.jsonl"
        engine.write_jsonl(path)
        text = render_forensics(group_forensics_rows(load_jsonl(path)), top=3)
        assert "component attribution" in text
        for name in COMPONENTS:
            assert name in text
        assert "worst 3 packets" in text

    def test_render_shows_stalls_and_the_shift_before_the_completion(self, tmp_path):
        audit = AuditLog()
        engine = ForensicsEngine(sample_every=1, audit=audit)
        run_engine(engine, window_packets=32)
        engine.note_stall(StallCharge("r0", "flow", 5.0, 900.0, 100.0))
        emit_recovery_regime_shift(audit, "r0", [900.0])
        audit.emit("ft_failover_complete", replica="r0")
        path = tmp_path / "f.jsonl"
        engine.write_jsonl(path)
        text = render_forensics(group_forensics_rows(load_jsonl(path)), top=5)
        assert "stall charges (1 packets)" in text
        assert "stall-dominant  : 1/1" in text
        lines = render_timeline(audit.events()).splitlines()
        assert lines[0] == "timeline (2 events)"
        assert "latency_regime_shift" in lines[1] and "component=stall" in lines[1]
        assert "ft_failover_complete" in lines[2]

#: sha256 of :func:`kept_rows` for :func:`non_monotone_run` on each
#: replay, as the engine computed them when it still derived ``finish -
#: arrival`` from the two columns itself and cut its own windows
NON_MONOTONE_ROWS = {
    "analytic": "de04949709bdc28c9eeafb43fb0dc4a900ad130a1a534bfa20f3ecc5fa0d6534",
    "des": "86e8a2b73e0181ccaedfdb217b9ccfd05bf6cde55a621038628bd02668fa331d",
}
WINDOW_KEYS = {"type", "window", "packets", "sampled", "queue_ns", "service_ns",
               "transfer_ns", "stall_ns"}


def kept_rows(rows):
    """The summary's packet, sample, window and stall counts and its
    component totals, each window's packet and sampled counts and
    component sums, and every worst-K record: what an engine reducing
    over a ``TimeSeries`` cut of the same packet windows reports as its
    own-window engine did (no detector attached)."""
    out = []
    for row in rows:
        if row["type"] == "summary":
            row = {k: v for k, v in row.items()
                   if k not in ("runs", "window_packets", "regime_shifts")}
        elif row["type"] == "window":
            row = {k: v for k, v in row.items() if k in WINDOW_KEYS}
        elif row["type"] == "regime_shift":
            continue
        out.append(row)
    return out


def non_monotone_run(route):
    """A three-NF ONVM pipeline (one stage per NF) under load: first
    packets take every stage, later ones fewer, so packets overtake
    each other and ``finish`` is not monotone.  An attached registry
    takes the DES.  Returns the engine, the result and the run's
    packet-order latency and finish columns, as the tail built the
    result from them."""
    stream = TrafficGenerator(
        [FlowSpec.tcp(f"10.0.0.{i}", "10.0.1.1", 1000 + i, 80, packets=6,
                      payload=b"x" * (40 * i), handshake=True, fin=True)
         for i in range(1, 25)],
        interleave="round_robin",
    ).packets()
    engine = ForensicsEngine(worst_k=5, sample_every=3)
    extra = {"metrics": MetricsRegistry()} if route == "des" else {}
    platform = OpenNetVMPlatform(
        SpeedyBox([IPFilter("fw0"), Monitor("mon"), IPFilter("fw1")]),
        timeseries=TimeSeries(window_packets=32), forensics=engine, **extra,
    )
    columns = []
    build = platform_base.columns_timeline

    def spy(arrival, finish):
        timeline, delivery = build(arrival, finish)
        columns.append((np.array(timeline[0]), np.array(finish)))
        return timeline, delivery

    with mock.patch.object(platform_base, "columns_timeline", spy):
        result = platform.run_load(stream, inter_arrival_ns=50.0)
    ((latencies, finish),) = columns
    return engine, result, latencies, finish


class TestNonMonotoneRuns:
    """The run's tail hands the cut the packet-order latency column and
    the result a finish-order copy; on a run whose packets overtake each
    other the two orders differ, and the windows must not move."""

    @pytest.mark.parametrize("route", sorted(NON_MONOTONE_ROWS))
    def test_windows_and_worst_k_are_unchanged(self, route):
        engine, result, __, finish = non_monotone_run(route)
        assert (finish[1:] < finish[:-1]).any()
        assert {record.lane for record in engine.recorder.worst_overall()} == {route}
        assert len(engine.windows) == 6 and engine.packets == len(finish) == 192
        rows = json.dumps(kept_rows(engine.rows()), sort_keys=True).encode()
        assert hashlib.sha256(rows).hexdigest() == NON_MONOTONE_ROWS[route]

    @pytest.mark.parametrize("route", sorted(NON_MONOTONE_ROWS))
    def test_windows_read_packet_order_and_the_result_finish_order(self, route):
        engine, result, latencies, finish = non_monotone_run(route)
        order = np.argsort(finish, kind="stable")
        assert not np.array_equal(order, np.arange(len(order)))
        assert np.array_equal(result.latencies_ns, latencies[order])
        for row, (__, worst) in zip(engine.windows, engine.recorder.entries):
            start = row["window"] * 32
            segment = latencies[start : start + 32]
            assert row["packets"] == len(segment)
            assert all(start <= record.index < start + 32 for record in worst)
            assert [record.latency_ns for record in worst] == sorted(segment.tolist())[-5:][::-1]
