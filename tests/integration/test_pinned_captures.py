"""Two observed replays, pinned to their bytes.

``test_trace_export_oracle.py`` holds the renderers to reference
encoders over the *same* events, so a change that moves an event's
time, order or value in the replay or the pricing still passes it.
These two small captures replay on the discrete-event engine, and the
sha256 of what they export is pinned: BESS Chain 2 with every surface on,
and ONVM Chain 1 with two-slot rings, so that puts block.  Each run also
builds its stage plans once per report shape, and the counts are pinned
too.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.framework import SpeedyBox
from repro.nf import IPFilter, MaglevLoadBalancer, MazuNAT, Monitor, SnortIDS
from repro.nf.maglev import Backend
from repro.obs import (
    AuditLog,
    FlowSpanRecorder,
    ForensicsEngine,
    HealthModel,
    MetricsRegistry,
    PacketTracer,
    SLOEngine,
    TimeSeries,
    write_prometheus,
)
from repro.platform import BessPlatform, OpenNetVMPlatform, PlatformConfig
from repro.traffic import FlowSpec, TrafficGenerator

RULES = """
alert tcp any any -> any any (msg:"c2 beacon"; content:"malware-beacon"; sid:9001;)
log tcp any any -> any any (msg:"http get"; content:"GET /"; sid:9002;)
"""

#: capture -> (sha256 of trace.json, spans.jsonl, metrics.prom).  The
#: spans.jsonl digests were computed before the replay engine and the
#: pricing were reworked; the other two once the DES had no sink store
#: and no end-of-run pills, whose removal moved no other event.
PINNED = {
    "bess-chain-2-every-surface": (
        "1206838be38b2dc63bc1e31dd54a03808445e8ba732d2513bcde47ab58383408",
        "db9ad6d7bad7d694880eea60cbd87d25690eff8199b5714fa7788c290c8f011c",
        "98d712e82445a09cce8ad23341383f0ad8d7f7504a72568069ceb63719f5c8be",
    ),
    "onvm-chain-1-two-slot-rings": (
        "329c8d213cda740752fddaa419413029ef1df471353b449da08862aa9be97bd5",
        "5f3d51e78384585a6fb3839a5e0490f0d39d3ec58f87f32bb0990193de29c7c7",
        "30449d029b3006e27209354ec4d159353468a1a93e358ad57a5067163001a71c",
    ),
}

#: capture -> stage plans the run builds: one per distinct report shape
#: (62 and 35 when every report but a steady one built its own)
PLANS_BUILT = {"bess-chain-2-every-surface": 10, "onvm-chain-1-two-slot-rings": 6}


def traffic():
    """Eight TCP flows with handshakes and FINs, payloads small and
    large, some matching a rule, some flows talking back."""
    def payload(index):
        body = b"GET / " if index % 5 == 0 else b"malware-beacon" if index % 7 == 3 else b"x"
        return body * (1 if index % 2 else 120)

    specs = []
    for i in range(8):
        spec = FlowSpec.tcp(f"10.1.0.{i + 1}", "20.0.0.9", 4000 + i, 80, packets=6 + i,
                            payload=payload, handshake=True, fin=i % 3 == 0)
        specs.append(spec)
        if i % 2:
            specs.append(FlowSpec(spec.five_tuple.reversed(), packets=3, payload=b"re"))
    return TrafficGenerator(specs, interleave="shuffled", seed=11).packets()


def chain_1():
    backends = [Backend.make(f"b{i}", f"192.168.50.{i + 1}", 9000) for i in range(4)]
    return [
        MazuNAT("mazunat", external_ip="203.0.113.50", internal_prefix="10.0.0.0/8"),
        MaglevLoadBalancer("maglev", backends=backends, table_size=131),
        Monitor("monitor"),
        IPFilter("ipfilter"),
    ]


def bess_every_surface():
    metrics, tracer, audit = MetricsRegistry(), PacketTracer(), AuditLog()
    spans = FlowSpanRecorder(every=1, max_spans_per_flow=None)
    timeseries = TimeSeries(window_packets=32, registry=metrics)
    HealthModel(timeseries=timeseries, audit=audit)
    SLOEngine.from_specs(["p99<250us", "loss<0.1%"], timeseries=timeseries, audit=audit)
    forensics = ForensicsEngine(worst_k=4, audit=audit)
    forensics.detector.attach(timeseries)
    runtime = SpeedyBox([IPFilter("ipfilter"), SnortIDS("snort", RULES), Monitor("monitor")],
                        metrics=metrics, audit=audit)
    platform = BessPlatform(runtime, metrics=metrics, tracer=tracer, spans=spans,
                            timeseries=timeseries, forensics=forensics)
    return platform, metrics, tracer, spans


def onvm_two_slot_rings():
    metrics, tracer = MetricsRegistry(), PacketTracer()
    spans = FlowSpanRecorder(every=2, max_spans_per_flow=None)
    platform = OpenNetVMPlatform(SpeedyBox(chain_1(), metrics=metrics),
                                 PlatformConfig(ring_capacity=2),
                                 metrics=metrics, tracer=tracer, spans=spans)
    return platform, metrics, tracer, spans


CAPTURES = {
    "bess-chain-2-every-surface": bess_every_surface,
    "onvm-chain-1-two-slot-rings": onvm_two_slot_rings,
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("capture", sorted(CAPTURES))
def test_an_observed_replay_exports_its_pinned_bytes(capture, tmp_path):
    platform, metrics, tracer, spans = CAPTURES[capture]()
    built = []
    stage_plan = platform._stage_plan

    def counted(report):
        built.append(report)
        return stage_plan(report)

    platform._stage_plan = counted
    platform.run_load(traffic())
    write_prometheus(metrics, tmp_path / "metrics.prom")
    spans.write_jsonl(tmp_path / "spans.jsonl")
    spans.replay_into(tracer)
    tracer.write_chrome(tmp_path / "trace.json")
    assert tracer.des_runs == 1
    if capture.startswith("onvm"):
        assert metrics.snapshot()["sim_store_blocked_total{kind=put}"] > 0
    hashes = tuple(sha256(tmp_path / name) for name in ("trace.json", "spans.jsonl", "metrics.prom"))
    assert hashes == PINNED[capture]
    assert len(built) == PLANS_BUILT[capture]
