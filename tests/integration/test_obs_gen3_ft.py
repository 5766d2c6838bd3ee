"""Gen-3 acceptance: telemetry sees the failure before recovery fixes it.

A replica is killed mid-run while windowed telemetry, the health model
and the SLO engine watch the cluster.  The dark-zone contract this PR
lights up: the doomed replica must be flagged unhealthy and an SLO
burn-rate alert must land in the audit log *before* the FT layer's
``ft_failover_complete`` — degraded-before-dead, ordered by audit seq.
Also covers the FT recovery timeline spans (detect → buffer → restore →
replay → drain on the ``ft:r<id>`` tracer track).
"""

from repro.ft import FaultInjector, FaultTolerance
from repro.nf import IPFilter, MazuNAT, Monitor
from repro.obs import (
    AuditLog,
    HealthModel,
    PacketTracer,
    SLOEngine,
    TimeSeries,
)
from repro.obs.health import HEALTHY
from repro.scale import ScaleCluster
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets

KILL_AT = 150
WINDOW_PACKETS = 32


def build_chain():
    return [
        MazuNAT("nat", external_ip="203.0.113.99", port_range=(20000, 60000)),
        Monitor("mon"),
        IPFilter("fw"),
    ]


def workload(flows=48, packets_per_flow=10):
    specs = [
        FlowSpec.tcp(
            f"10.6.{i // 200}.{i % 200 + 1}",
            f"99.4.0.{i % 20 + 1}",
            7000 + i,
            80,
            packets=packets_per_flow,
            handshake=True,
        )
        for i in range(flows)
    ]
    return TrafficGenerator(specs, interleave="round_robin", seed=11).packets()


def run_scenario():
    audit = AuditLog()
    tracer = PacketTracer()
    timeseries = TimeSeries(window_packets=WINDOW_PACKETS)
    health = HealthModel(timeseries=timeseries, audit=audit)
    slo = SLOEngine.from_specs(
        ["p99<250us", "loss<0.1%"], timeseries=timeseries, audit=audit
    )
    cluster = ScaleCluster(
        build_chain,
        replicas=3,
        audit=audit,
        timeseries=timeseries,
    )
    ft = FaultTolerance(
        cluster,
        checkpoint_interval=16,
        injector=FaultInjector(kill_at=KILL_AT),
        audit=audit,
        tracer=tracer,
    )
    health.add_listener(ft.on_health)
    packets = workload()
    result = cluster.run_load(clone_packets(packets))
    if ft.dead:
        ft.recover_all()
    return {
        "audit": audit,
        "tracer": tracer,
        "timeseries": timeseries,
        "health": health,
        "slo": slo,
        "ft": ft,
        "result": result,
        "offered": len(packets),
    }


class TestDegradedBeforeDead:
    def test_health_and_burn_alert_precede_failover_complete(self):
        ctx = run_scenario()
        audit = ctx["audit"]

        kills = audit.events("ft_kill")
        assert len(kills) == 1
        victim = kills[0]["replica"]

        complete = audit.events("ft_failover_complete")
        assert len(complete) == 1
        complete_seq = complete[0]["seq"]

        # The doomed replica was flagged while its packets were still
        # being buffered — before recovery finished.
        flags = [
            event
            for kind in ("health_degraded", "health_critical")
            for event in audit.events(kind)
            if event["replica"] == victim
        ]
        assert flags, "health never flagged the killed replica"
        assert min(event["seq"] for event in flags) < complete_seq

        # The loss SLO burned (buffered packets are bad events) and the
        # alert is ordered before the failover completion too.
        alerts = audit.events("slo_burn_alert")
        assert alerts, "no SLO burn alert was recorded"
        assert min(event["seq"] for event in alerts) < complete_seq

        # Charging the recovery stall announces the latency regime
        # shift before the failover is declared complete.
        shifts = audit.events("latency_regime_shift")
        assert shifts, "no latency_regime_shift was recorded"
        stall_shifts = [e for e in shifts if e.get("component") == "stall"]
        assert stall_shifts, "no stall-component regime shift"
        assert min(event["seq"] for event in stall_shifts) < complete_seq

    def test_windows_closed_mid_run_and_recovery_is_loss_free(self):
        ctx = run_scenario()
        timeseries = ctx["timeseries"]
        assert timeseries.windows_closed >= ctx["offered"] // WINDOW_PACKETS
        assert timeseries.total_buffered > 0  # the kill was observed

        # Loss-free failover: buffered packets are delivered by replay.
        ft = ctx["ft"]
        recovered = sum(r.packets_delivered for r in ft.recoveries)
        assert ft.packets_buffered > 0
        assert recovered == ft.packets_buffered

        # Health saw the victim; after recovery its state may still be
        # unhealthy (no healthy window closed after the run ended).
        health = ctx["health"]
        assert health.worst_state() != HEALTHY

        slo = ctx["slo"]
        assert slo.summary()["loss<0.1%"]["bad"] > 0


class TestRecoveryTimeline:
    def test_ft_track_carries_the_recovery_stages(self):
        ctx = run_scenario()
        tracer = ctx["tracer"]
        victim = ctx["audit"].events("ft_kill")[0]["replica"]
        track = f"ft:r{victim}"

        assert track in tracer.tracks()
        names = [span.name for span in tracer.spans if span.track == track]
        for stage in ("buffer", "restore", "replay", "drain"):
            assert stage in names, f"missing {stage} span on {track}"
        # the detect marker fires at kill time, before every stage span
        detects = [i for i in tracer.events()[1] if i.track == track and i.name == "detect"]
        assert len(detects) == 1
        stage_spans = [span for span in tracer.spans if span.track == track]
        assert all(detects[0].ts_ns <= span.start_ns for span in stage_spans)

    def test_recovery_metrics_accumulate(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        cluster = ScaleCluster(build_chain, replicas=2, metrics=registry)
        ft = FaultTolerance(
            cluster,
            checkpoint_interval=8,
            injector=FaultInjector(kill_at=40),
        )
        cluster.run_load(clone_packets(workload(flows=16, packets_per_flow=6)))
        assert ft.dead
        ft.recover_all()
        snapshot = registry.snapshot()
        assert snapshot.get("ft_restore_ns_total", 0.0) >= 0.0
        assert snapshot.get("ft_replay_ns_total", 0.0) > 0.0
        assert snapshot.get("ft_drain_ns_total", 0.0) >= 0.0
