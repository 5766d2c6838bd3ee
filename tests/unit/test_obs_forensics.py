"""Unit tests for tail-latency forensics (repro.obs.forensics).

The load-bearing claim is *exactness*: every decomposed packet's
components reproduce its latency under IEEE float equality in the
canonical order ``((service + transfer) + stall) + queue`` — including
the round-half-even midpoint inputs where no exact residual exists and
the decomposition must fall back to a queue-only split rather than
break the invariant.
"""

import json

import pytest

from repro.core.framework import SpeedyBox
from repro.nf import IPFilter
from repro.obs import AuditLog
from repro.obs.forensics import (
    COMPONENTS,
    FlightRecorder,
    ForensicsEngine,
    RegimeShiftDetector,
    StallCharge,
    TailRecord,
    build_timeline,
    components_sum,
    decompose,
    emit_recovery_regime_shift,
    exact_residual,
    group_forensics_rows,
    render_explain,
    render_forensics,
    split_plan_total,
)
from repro.obs.record import load_jsonl
from repro.platform import BessPlatform


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


class TestRegimeShiftDetector:
    @staticmethod
    def window(index, p50, p99, packets=100, buffered=0):
        return {"index": index, "p50_ns": p50, "p99_ns": p99,
                "packets": packets, "buffered": buffered}

    def test_fires_on_p99_jump_with_audit_event(self):
        audit = AuditLog()
        detector = RegimeShiftDetector(audit=audit)
        for i in range(4):
            detector.observe_latency(self.window(i, 100.0, 150.0))
        assert detector.shifts == []
        detector.observe_latency(
            self.window(4, 100.0, 400.0), components={"queue": 9.0, "stall": 1.0}
        )
        assert len(detector.shifts) == 1
        shift = detector.shifts[0]
        assert shift["metric"] == "p99"
        assert shift["component"] == "queue"
        events = audit.events("latency_regime_shift")
        assert len(events) == 1
        assert events[0]["current"] == 400.0

    def test_needs_min_baseline_before_firing(self):
        detector = RegimeShiftDetector()
        detector.observe_latency(self.window(0, 100.0, 100.0))
        detector.observe_latency(self.window(1, 900.0, 900.0))  # only 1 sample
        assert detector.shifts == []

    def test_buffered_fraction_fires_stall_component_once_per_regime(self):
        detector = RegimeShiftDetector()
        detector.observe_buffered(self.window(0, 100.0, 100.0, buffered=10))
        detector.observe_buffered(self.window(1, 100.0, 100.0, buffered=20))
        stall_shifts = [s for s in detector.shifts if s["component"] == "stall"]
        assert len(stall_shifts) == 1  # latched until the surge clears
        detector.observe_buffered(self.window(2, 100.0, 100.0, buffered=0))
        detector.observe_buffered(self.window(3, 100.0, 100.0, buffered=50))
        stall_shifts = [s for s in detector.shifts if s["component"] == "stall"]
        assert len(stall_shifts) == 2

    def test_each_closed_window_is_observed_once_against_earlier_ones(self, monkeypatch):
        """Wired as the CLI wires it (the detector attached to the run's
        TimeSeries), a run that closes three windows gives the latency
        rules three observations — the forensics windows, in order, each
        judged against the windows before it — and the TimeSeries windows
        feed only the buffered rule."""
        from repro.cli import build_chain, make_trace_packets
        from repro.obs import TimeSeries

        timeseries = TimeSeries(window_packets=256)
        engine = ForensicsEngine(window_packets=256)
        detector = engine.detector
        detector.attach(timeseries)
        judged = []
        observe_latency = detector.observe_latency

        def spy(summary, components=None):
            judged.append((summary["window"], list(detector._p99s)))
            observe_latency(summary, components)

        monkeypatch.setattr(detector, "observe_latency", spy)
        platform = BessPlatform(
            SpeedyBox(build_chain("nat,monitor,firewall")),
            timeseries=timeseries,
            forensics=engine,
        )
        packets = make_trace_packets(40, 1)
        assert len(packets) == 602
        platform.run_load(packets)
        p99s = [window["p99_ns"] for window in engine.windows]
        assert len(timeseries) == len(engine.windows) == 3
        assert judged == [(index, p99s[:index]) for index in range(3)]
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


def run_engine(engine, packets=96):
    platform = BessPlatform(SpeedyBox([IPFilter("fw0")]), forensics=engine)
    from repro.traffic import FlowSpec, TrafficGenerator

    stream = TrafficGenerator(
        [FlowSpec.tcp(f"10.0.0.{i}", "10.0.1.1", 1000 + i, 80, packets=8)
         for i in range(packets // 8)],
        interleave="round_robin",
    ).packets()
    result = platform.run_load(stream)
    return result


class TestForensicsEngine:
    def test_disabled_engine_observes_nothing(self):
        engine = ForensicsEngine(enabled=False)
        run_engine(engine)
        assert engine.packets == 0
        assert engine.windows == []
        assert engine.runs == 0

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
        engine = ForensicsEngine(worst_k=3, window_packets=16, sample_every=1)
        run_engine(engine, packets=64)
        assert engine.packets == 64
        assert len(engine.windows) == 4
        for __, worst in engine.recorder.entries:
            assert 1 <= len(worst) <= 3
        top = engine.recorder.worst_overall()[:3]
        assert all(a.latency_ns >= b.latency_ns for a, b in zip(top, top[1:]))

    def test_note_stall_accumulates(self):
        engine = ForensicsEngine()
        engine.note_stall(StallCharge("r1", "f", 0.0, stall_ns=500.0, service_ns=20.0))
        assert engine.totals["stall"] == 500.0
        assert engine.summary()["stall_records"] == 1
        disabled = ForensicsEngine(enabled=False)
        disabled.note_stall(
            StallCharge("r1", "f", 0.0, stall_ns=500.0, service_ns=20.0)
        )
        assert disabled.stall_records == []

    def test_reset_clears_state(self):
        engine = ForensicsEngine(sample_every=1)
        run_engine(engine)
        engine.note_stall(StallCharge("r", "f", 0.0, 1.0, 1.0))
        engine.reset()
        assert engine.packets == engine.sampled == engine.runs == 0
        assert engine.windows == [] and engine.stall_records == []
        assert all(v == 0.0 for v in engine.totals.values())

    def test_jsonl_round_trip(self, tmp_path):
        engine = ForensicsEngine(sample_every=1, window_packets=32)
        run_engine(engine)
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
        audit = [
            {"seq": 1, "kind": "ft_kill", "replica": 0},
            {"seq": 5, "kind": "ft_failover_complete", "replica": 0},
        ]
        forensics = {
            "stalls": [{"arrival_ns": 3.0, "replica": 0, "flow": "f",
                        "stall_ns": 7.0, "cause": "failover"}],
            "worst": [{"index": 2, "replica": 0, "fid": 9,
                       "latency_ns": 10.0, "dominant": "stall", "window": 0}],
        }
        windows = [{"start_ns": 2.0, "index": 0, "packets": 4,
                    "buffered": 1, "p99_ns": 9.0}]
        timeline = build_timeline(audit=audit, windows=windows, forensics=forensics)
        # Equal-time tie at t=2: the window (priority 1) precedes the
        # forensic worst-packet record (priority 3).
        assert [e["kind"] for e in timeline] == [
            "ft_kill", "telemetry_window", "worst_packet",
            "stall_charge", "ft_failover_complete",
        ]
        assert all({"t", "source", "kind", "replica", "flow", "detail"} <= set(e)
                   for e in timeline)

    def test_equal_time_orders_audit_before_forensics(self):
        audit = [{"seq": 3, "kind": "ft_kill", "replica": 0}]
        forensics = {"stalls": [{"arrival_ns": 3.0, "replica": 0, "flow": "f"}]}
        timeline = build_timeline(audit=audit, forensics=forensics)
        assert [e["source"] for e in timeline] == ["audit", "forensics"]

    def test_render_forensics_shows_attribution_and_worst(self, tmp_path):
        engine = ForensicsEngine(sample_every=1, window_packets=32)
        run_engine(engine)
        path = tmp_path / "f.jsonl"
        engine.write_jsonl(path)
        text = render_forensics(group_forensics_rows(load_jsonl(path)), top=3)
        assert "component attribution" in text
        for name in COMPONENTS:
            assert name in text
        assert "worst 3 packets" in text

    def test_render_explain_includes_stalls_shifts_and_timeline(self, tmp_path):
        audit = AuditLog()
        engine = ForensicsEngine(sample_every=1, window_packets=32, audit=audit)
        run_engine(engine)
        engine.note_stall(StallCharge("r0", "flow", 5.0, 900.0, 100.0))
        emit_recovery_regime_shift(audit, "r0", [900.0])
        audit.emit("ft_failover_complete", replica="r0")
        path = tmp_path / "f.jsonl"
        engine.write_jsonl(path)
        text = render_explain(group_forensics_rows(load_jsonl(path)), audit=audit.events())
        assert "stall charges (1 packets)" in text
        assert "stall-dominant  : 1/1" in text
        assert "regime shifts" in text
        assert "correlated causes" in text
        assert "causal timeline (tail)" in text
