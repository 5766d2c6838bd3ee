"""Tail-latency forensics benchmark — attribution across regime shifts.

Three deterministic phases feed one :class:`ForensicsEngine`, the
packet-clock :class:`TimeSeries` whose windows it reduces over, and one
audit log, so the recorded metrics exercise the whole forensics
pipeline end to end:

1. ``steady``   — paced many-flow traffic through a consolidated
   firewall|DPI|firewall chain with a light synthetic inspection
   workload; its windows establish the regime-shift detector's
   baseline.  (Arrivals are paced above the service time on purpose:
   a saturated source grows the queue without bound and every shift
   would name ``queue`` — pacing isolates the component under test.)
2. ``surge``    — the same traffic with the DPI state function's
   per-packet work inflated 10x; the service-time jump must fire a
   ``latency_regime_shift`` audit event naming ``service`` as the
   moved component.
3. ``failover`` — a replica cluster loses 1 of 3 replicas mid-run and
   recovers; the charged stall deliveries must land in the engine as
   stall records, and the stall regime shift must precede
   ``ft_failover_complete`` in audit order.

Every gated metric is simulated (packet counts, component shares from
the deterministic replay, simulated p99s, the failover stall charged
on the recovery's simulated clock), so the committed
``BENCH_forensics.json`` diffs cleanly across machines in the bench
regression gate; the only wall-clock number, ``elapsed_s``, is declared
``wall``.
"""

from __future__ import annotations

import time

from benchmarks.harness import count, make_platform, save_result, sim, wall
from repro.core.framework import SpeedyBox
from repro.ft import FaultInjector, FaultTolerance
from repro.nf import IPFilter, MazuNAT, Monitor, SyntheticNF
from repro.obs import AuditLog, ForensicsEngine, TimeSeries
from repro.obs.forensics import components_sum
from repro.scale import ScaleCluster
from repro.stats import format_table
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets

FLOWS = 32
PACKETS_PER_FLOW = 64
STEADY_CYCLES = 800.0
SURGE_CYCLES = 8000.0
#: inter-arrival pacing, above even the surge chain's service time
GAP_NS = 8000
WINDOW_PACKETS = 512
SAMPLE_EVERY = 4
WORST_K = 8
FT_REPLICAS = 3
FT_KILL_AT = 150


def chain(sf_work_cycles):
    return [
        IPFilter("fw0"),
        SyntheticNF("dpi", sf_work_cycles=sf_work_cycles),
        IPFilter("fw1"),
    ]


def ft_chain():
    return [
        MazuNAT("nat", external_ip="203.0.113.77", port_range=(20000, 60000)),
        Monitor("mon"),
        IPFilter("fw"),
    ]


def workload():
    specs = [
        FlowSpec.tcp(
            f"10.9.{index // 250}.{index % 250 + 1}",
            "20.0.0.9",
            3000 + index,
            80,
            packets=PACKETS_PER_FLOW,
            payload=b"x" * 26,
        )
        for index in range(FLOWS)
    ]
    return TrafficGenerator(specs, interleave="round_robin").packets()


def ft_workload(flows=48, packets_per_flow=10):
    specs = [
        FlowSpec.tcp(
            f"10.8.{i // 200}.{i % 200 + 1}",
            f"99.5.0.{i % 20 + 1}",
            7100 + i,
            80,
            packets=packets_per_flow,
            handshake=True,
        )
        for i in range(flows)
    ]
    return TrafficGenerator(specs, interleave="round_robin", seed=13).packets()


def run_phases():
    audit = AuditLog()
    engine = ForensicsEngine(worst_k=WORST_K, sample_every=SAMPLE_EVERY, audit=audit)
    # the packet clock keeps each window's stride where a 512-packet
    # window puts it, whatever the replay's timing
    timeseries = TimeSeries(window_packets=WINDOW_PACKETS)
    engine.detector.attach(timeseries)
    observers = {"timeseries": timeseries, "forensics": engine}
    packets = workload()

    started = time.perf_counter()
    steady = make_platform("bess", SpeedyBox(chain(STEADY_CYCLES)), **observers)
    steady_result = steady.run_load(clone_packets(packets), inter_arrival_ns=GAP_NS)
    steady_windows = list(timeseries.windows)

    surge = make_platform("bess", SpeedyBox(chain(SURGE_CYCLES)), **observers)
    surge_result = surge.run_load(clone_packets(packets), inter_arrival_ns=GAP_NS)
    surge_windows = list(timeseries.windows)[len(steady_windows):]
    elapsed = time.perf_counter() - started
    # Component attribution snapshot before the failover phase adds
    # its stall charge to the totals.
    attribution = dict(engine.summary()["components"])
    surge_shifts = list(engine.detector.shifts)

    cluster = ScaleCluster(
        ft_chain,
        replicas=FT_REPLICAS,
        audit=audit,
        **observers,
    )
    ft = FaultTolerance(
        cluster,
        checkpoint_interval=16,
        injector=FaultInjector(kill_at=FT_KILL_AT),
        audit=audit,
        forensics=engine,
    )
    ft_packets = ft_workload()
    cluster.run_load(clone_packets(ft_packets))
    if ft.dead:
        ft.recover_all()

    return {
        "audit": audit,
        "engine": engine,
        "ft": ft,
        "elapsed": elapsed,
        "offered": len(packets),
        "steady_delivered": steady_result.delivered,
        "surge_delivered": surge_result.delivered,
        "steady_windows": steady_windows,
        "surge_windows": surge_windows,
        "surge_shifts": surge_shifts,
        "attribution": attribution,
        "ft_offered": len(ft_packets),
    }


def test_forensics_attribution(benchmark):
    ctx = benchmark.pedantic(run_phases, rounds=1, iterations=1)
    engine = ctx["engine"]
    audit = ctx["audit"]

    assert ctx["steady_delivered"] == ctx["offered"]
    assert ctx["surge_delivered"] == ctx["offered"]

    # Every worst-K record decomposes exactly — same invariant the
    # property suite proves per lane, re-checked on the shipped artifact.
    worst = engine.recorder.worst_overall()
    assert worst, "flight recorder is empty"
    for record in worst:
        assert components_sum(
            record.queue_ns, record.service_ns, record.transfer_ns, record.stall_ns
        ) == record.latency_ns

    # The surge fired a service-attributed regime shift...
    service_shifts = [
        s for s in ctx["surge_shifts"] if s["component"] == "service"
    ]
    assert service_shifts, "surge did not fire a service regime shift"
    # ...and the failover's stall shift landed before ft_failover_complete.
    stall_events = [
        e for e in audit.events("latency_regime_shift")
        if e["component"] == "stall"
    ]
    complete = audit.events("ft_failover_complete")
    assert stall_events and complete
    assert min(e["seq"] for e in stall_events) < complete[0]["seq"]
    assert engine.stall_records, "no charged stall deliveries reached the engine"

    steady_p99 = max(w.p99_ns for w in ctx["steady_windows"])
    surge_p99 = max(w.p99_ns for w in ctx["surge_windows"])
    summary = engine.summary()
    attribution = ctx["attribution"]
    share_total = sum(attribution.values())

    metrics = {
        "packets": count(summary["packets"]),
        "sampled": count(summary["sampled"]),
        "windows": count(summary["windows"]),
        "worst_records": count(len(worst)),
        "steady_p99_us": sim(round(steady_p99 / 1000.0, 3), "lower"),
        "surge_p99_us": sim(round(surge_p99 / 1000.0, 3), "lower"),
        "service_shifts": count(len(service_shifts)),
        "stall_shifts": count(len(stall_events)),
        "regime_shifts_total": count(summary["regime_shifts"]),
        "stall_records": count(summary["stall_records"]),
        "ft_buffered": count(ctx["ft"].packets_buffered),
        "stall_charged_ms": sim(
            round(sum(c.stall_ns for c in engine.stall_records) / 1e6, 3), "lower"
        ),
        "elapsed_s": wall(round(ctx["elapsed"], 4)),
    }
    for name in ("queue", "service", "transfer", "stall"):
        share = attribution[name] / share_total if share_total else 0.0
        # where the latency sits is a finding, not a score
        metrics[f"{name}_share_pct"] = sim(round(100.0 * share, 2), "none")

    rows = [
        ["steady", f"{STEADY_CYCLES:.0f}", len(ctx["steady_windows"]),
         f"{steady_p99 / 1000.0:.2f}", "-"],
        ["surge", f"{SURGE_CYCLES:.0f}", len(ctx["surge_windows"]),
         f"{surge_p99 / 1000.0:.2f}",
         f"service x{len(service_shifts)}"],
        ["failover", "-", "-", "-",
         f"stall x{len(stall_events)} "
         f"({summary['stall_records']} charged deliveries)"],
    ]
    text = format_table(
        ["phase", "dpi cycles", "windows", "p99 us", "regime shifts"],
        rows,
        title=(
            f"tail-latency forensics — {summary['sampled']} sampled of "
            f"{summary['packets']} packets, 1-in-{SAMPLE_EVERY} stride, "
            f"worst-{WORST_K} ring"
        ),
    )
    save_result("forensics", text, metrics=metrics)

    assert summary["sampled"] > 0
    assert surge_p99 > 2.0 * steady_p99
