"""Health scoring: thresholds, EWMA baseline, transitions, audit."""

from repro.obs import AuditLog, HealthModel, TimeSeries
from repro.obs.health import CRITICAL, DEGRADED, HEALTHY


def feed_window(ts, replica=0, packets=16, drops=0, buffered=0,
                latency_ns=100.0, fast_hits=None):
    """Fill and close exactly one packet-clock window."""
    served = packets - buffered
    fast = served if fast_hits is None else fast_hits
    for i in range(packets):
        ts.record(
            float(i),
            latency_ns=latency_ns if i >= buffered + drops else None,
            replica=replica,
            dropped=(buffered <= i < buffered + drops),
            buffered=(i < buffered),
            fast_hit=(i - buffered - drops < fast),
        )


def make_pair(window_packets=16, **kwargs):
    ts = TimeSeries(window_packets=window_packets)
    audit = AuditLog()
    health = HealthModel(timeseries=ts, audit=audit, **kwargs)
    return ts, audit, health


def state_of(health, replica):
    track = health._tracks.get(replica)
    return track.state if track is not None else HEALTHY


def last_report(health, replica):
    track = health._tracks.get(replica)
    return track.last if track is not None else None


class TestScoring:
    def test_quiet_replica_stays_healthy(self):
        ts, audit, health = make_pair()
        for __ in range(3):
            feed_window(ts)
        assert state_of(health, 0) == HEALTHY
        assert health.worst_state() == HEALTHY
        assert audit.events() == []

    def test_drop_rate_degrades_then_criticals(self):
        ts, audit, health = make_pair()
        feed_window(ts)  # healthy baseline
        feed_window(ts, drops=1)  # 1/16 > 1% degraded threshold
        assert state_of(health, 0) == DEGRADED
        feed_window(ts, drops=4)  # 25% > 10% critical threshold
        assert state_of(health, 0) == CRITICAL
        kinds = [e["kind"] for e in audit.events()]
        assert kinds == ["health_degraded", "health_critical"]

    def test_buffered_packets_are_critical_by_definition(self):
        ts, __, health = make_pair()
        feed_window(ts, buffered=2)
        assert state_of(health, 0) == CRITICAL
        report = last_report(health, 0)
        assert any("buffered" in reason for reason in report.reasons)

    def test_latency_trend_judged_against_healthy_baseline(self):
        ts, __, health = make_pair()
        feed_window(ts, latency_ns=100.0)   # baseline learns 100ns
        feed_window(ts, latency_ns=250.0)   # 2.5x baseline -> degraded
        assert state_of(health, 0) == DEGRADED
        report = last_report(health, 0)
        assert report.baseline_p99_ns == 100.0
        # the degraded window must NOT teach the baseline
        feed_window(ts, latency_ns=100.0)
        assert last_report(health, 0).baseline_p99_ns == 100.0

    def test_recovery_emits_health_recovered(self):
        ts, audit, health = make_pair()
        feed_window(ts)
        feed_window(ts, drops=1)
        feed_window(ts)
        assert state_of(health, 0) == HEALTHY
        assert [e["kind"] for e in audit.events()] == [
            "health_degraded",
            "health_recovered",
        ]

    def test_tiny_windows_skip_ratio_rules(self):
        ts, __, health = make_pair(window_packets=4)
        feed_window(ts, packets=4, drops=2)  # 50% drops but < min_packets
        assert state_of(health, 0) == HEALTHY


class TestWiring:
    def test_listeners_fire_on_state_change_only(self):
        ts, __, health = make_pair()
        seen = []
        health.add_listener(lambda report: seen.append((report.replica, report.state)))
        feed_window(ts)
        feed_window(ts, drops=1)
        feed_window(ts, drops=1)  # still degraded: no new event
        assert seen == [(0, DEGRADED)]

    def test_worst_state_and_snapshot(self):
        ts, __, health = make_pair()
        for i in range(16):
            ts.record(float(i), latency_ns=100.0, replica=i % 2)
        for i in range(16):
            ts.record(
                float(16 + i),
                latency_ns=100.0,
                replica=i % 2,
                dropped=(i % 2 == 1 and i < 8),
            )
        ts.finish()
        assert state_of(health, 1) == CRITICAL  # 4/8 dropped
        assert state_of(health, 0) == HEALTHY
        assert health.worst_state() == CRITICAL
        snapshot = health.snapshot()
        assert snapshot["1"]["state"] == CRITICAL
