"""SLO engine: spec parsing, budget accounting, burn-rate alerts."""

import pytest

from repro.obs import AuditLog, SLOEngine, TimeSeries
from repro.obs.slo import SLObjective
from tests.integration.helpers import ingest_rows


class TestParsing:
    def test_latency_spec(self):
        obj = SLObjective.parse("p99<250us")
        assert obj.kind == "latency"
        assert obj.threshold_ns == 250_000.0
        assert obj.fraction == 0.99
        assert obj.target == 0.999

    def test_latency_spec_with_target_and_units(self):
        obj = SLObjective.parse("p50 < 40 ms @0.99")
        assert obj.threshold_ns == 40e6
        assert obj.fraction == 0.50
        assert obj.target == 0.99

    def test_loss_specs(self):
        assert SLObjective.parse("loss<0.001").loss_budget == 0.001
        assert SLObjective.parse("loss<0.1%").loss_budget == pytest.approx(0.001)
        obj = SLObjective.parse("loss<0.1%")
        assert obj.kind == "loss"
        assert obj.target == pytest.approx(0.999)

    def test_bad_specs_rejected(self):
        for spec in ("p0<1us", "p99<", "drops<5", "loss<2", "loss<150%"):
            with pytest.raises(ValueError):
                SLObjective.parse(spec)

    def test_engine_needs_objectives(self):
        with pytest.raises(ValueError):
            SLOEngine([])


def run_windows(engine_specs, windows):
    """Feed synthetic windows, one run each; a window is (latencies,
    drops[, buffered]): packets delivered at those latencies, then
    packets dropped, then packets held for a dead home."""
    ts = TimeSeries(window_packets=10_000)
    audit = AuditLog()
    engine = SLOEngine.from_specs(engine_specs, timeseries=ts, audit=audit)
    for latencies, drops, *held in windows:
        outcomes = ["ok"] * len(latencies) + ["drop"] * drops + ["buffer"] * sum(held)
        latencies = list(latencies) + [100.0] * drops + [None] * sum(held)
        ingest_rows(ts, [(float(i), latency, 0, outcome)
                         for i, (latency, outcome) in enumerate(zip(latencies, outcomes))])
    return engine, audit


class TestAccounting:
    def test_compliant_windows_leave_budget_untouched(self):
        engine, audit = run_windows(
            ["p99<250us"], [([100.0] * 100, 0), ([200.0] * 100, 0)]
        )
        summary = engine.summary()["p99<250us"]
        assert summary["events"] == 200
        assert summary["bad"] == 0
        assert summary["compliance"] == 1.0
        assert audit.events("slo_burn_alert") == []

    def test_latency_samples_over_threshold_are_bad_events(self):
        engine, __ = run_windows(
            ["p99<250us"], [([100.0] * 99 + [400_000.0], 0)]
        )
        summary = engine.summary()["p99<250us"]
        assert summary["bad"] == 1
        assert summary["compliance"] == pytest.approx(0.99)

    def test_loss_counts_drops_and_buffered(self):
        engine, __ = run_windows(["loss<0.1%"], [([100.0] * 98, 1, 1)])
        summary = engine.summary()["loss<0.1%"]
        assert summary["events"] == 100
        assert summary["bad"] == 2

    def test_burn_alert_fires_and_audits_once_per_window(self):
        # 1% bad vs 0.1% budget = burn 10 >= 2 -> alert
        engine, audit = run_windows(
            ["loss<0.1%"], [([100.0] * 99, 1), ([100.0] * 100, 0)]
        )
        alerts = [alert for alert in engine.alerts() if alert["objective"] == "loss<0.1%"]
        assert len(alerts) == 1
        assert alerts[0]["burn_rate"] == pytest.approx(10.0)
        events = audit.events("slo_burn_alert")
        assert len(events) == 1
        assert events[0]["objective"] == "loss<0.1%"

    def test_burn_below_alert_rate_is_silent(self):
        # 0.15% bad vs 0.1% budget = burn 1.5 < 2
        engine, audit = run_windows(
            ["loss<0.1%"], [([100.0] * 1997, 3)]
        )
        assert engine.alerts() == []
        assert audit.events("slo_burn_alert") == []
        state = engine.summary()["loss<0.1%"]
        assert state["worst_burn"] == pytest.approx(1.5, rel=1e-3)

    def test_budget_remaining_goes_negative_when_overspent(self):
        engine, __ = run_windows(["loss<0.1%"], [([100.0] * 90, 10)])
        assert engine.budget_remaining("loss<0.1%") < 0
        assert engine.compliance("loss<0.1%") == pytest.approx(0.9)

    def test_render_tables_every_objective(self):
        engine, __ = run_windows(
            ["p99<250us", "loss<0.1%"], [([100.0] * 100, 0)]
        )
        text = engine.render()
        assert "p99<250us" in text and "loss<0.1%" in text
        assert "burn_max" in text
        assert "1.00000" in text and "no data" not in text

    def test_render_does_not_call_zero_events_compliance(self):
        engine, __ = run_windows(["p99<250us"], [])
        text = engine.render()
        assert "no data" in text and "1.00000" not in text
