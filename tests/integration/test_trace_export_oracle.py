"""The trace exporters, byte for byte against their reference encoders.

``PacketTracer.write_chrome`` and ``FlowSpanRecorder.write_jsonl`` render
every event from fragments each template encodes once; the reference
encoders in ``tests/integration/helpers.py`` build one dict per event and
hand it to ``json.dumps``.  Four runs that between them reach every kind
of row — DES hops, ring counters, blocked markers, unloaded timelines
with worker fan-out, failover spans, ``run<n>:`` prefixes, spans that
arrive after the recorder's — must give the same bytes both ways.
"""

from __future__ import annotations

import json

from repro import cli
from repro.core.framework import SpeedyBox
from repro.nf import IPFilter, MaglevLoadBalancer, MazuNAT, Monitor, SnortIDS
from repro.nf.maglev import Backend
from repro.obs import AuditLog, FlowSpanRecorder, MetricsRegistry, PacketTracer
from repro.platform import BessPlatform, OpenNetVMPlatform
from repro.traffic import FlowSpec, TrafficGenerator
from tests.integration.helpers import chrome_reference, spans_jsonl_reference

RULES = """
alert tcp any any -> any any (msg:"c2 beacon"; content:"malware-beacon"; sid:9001;)
log tcp any any -> any any (msg:"http get"; content:"GET /"; sid:9002;)
"""


def mixed_traffic(flows=6, packets=10):
    """TCP flows whose payloads alternate small and large, some matching."""
    def payload(index):
        body = b"GET / " if index % 5 == 0 else b"x"
        return body * (1 if index % 2 else 240)

    specs = [FlowSpec.tcp(f"10.1.0.{i + 1}", "20.0.0.9", 4000 + i, 80, packets=packets,
                          payload=payload, handshake=True) for i in range(flows)]
    return TrafficGenerator(specs, interleave="round_robin", seed=5).packets()


def exported(tmp_path, tracer, recorder=None):
    """Write what a run record holds of ``tracer`` (and ``recorder``),
    check it against the references and return the Chrome events."""
    if recorder is not None:
        recorder.write_jsonl(tmp_path / "spans.jsonl")
        assert (tmp_path / "spans.jsonl").read_text() == spans_jsonl_reference(recorder)
        recorder.replay_into(tracer)
    count = tracer.write_chrome(tmp_path / "trace.json")
    text = (tmp_path / "trace.json").read_text()
    assert text == chrome_reference(tracer)
    events = json.loads(text)["traceEvents"]
    assert len(events) == count
    return events


def test_bess_chain_2_with_every_surface_on(tmp_path):
    metrics, tracer, audit = MetricsRegistry(), PacketTracer(), AuditLog()
    recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None)
    runtime = SpeedyBox([IPFilter("ipfilter"), SnortIDS("snort", RULES), Monitor("monitor")],
                        metrics=metrics, audit=audit)
    platform = BessPlatform(runtime, metrics=metrics, tracer=tracer, spans=recorder)
    platform.run_load(mixed_traffic())
    events = exported(tmp_path, tracer, recorder)
    names = [event["name"] for event in events]
    assert any(name.startswith("pkt") for name in names)  # DES hops
    assert any(event["ph"] == "C" for event in events)  # ring counters
    assert any(name.startswith("blocked_") for name in names)
    assert "packet" in names and any("sim_latency_ns" in event["args"] for event in events)
    # shared reports: far fewer span templates than recorded packets
    assert len({id(row[0]) for row in recorder._rows}) < len(recorder._rows) / 2


def test_onvm_chain_1_unloaded(tmp_path):
    backends = [Backend.make(f"b{i}", f"192.168.50.{i + 1}", 9000) for i in range(4)]
    chain = [
        MazuNAT("mazunat", external_ip="203.0.113.50", internal_prefix="10.0.0.0/8"),
        MaglevLoadBalancer("maglev", backends=backends, table_size=131),
        Monitor("monitor"),
        IPFilter("ipfilter"),
    ]
    tracer = PacketTracer()
    platform = OpenNetVMPlatform(SpeedyBox(chain), tracer=tracer)
    platform.process_all(mixed_traffic())
    events = exported(tmp_path, tracer)
    names = {event["name"] for event in events}
    assert {"fast_path_tx_ring", "fork+join"} <= names
    assert any(":worker" in track for track in tracer.tracks())


def test_a_failover_run(tmp_path, monkeypatch):
    """``scale --kill-at`` at ``--obs full``: the record's files are the
    references' encoding of the bundle the command wrote."""
    bundles = []
    write_record = cli.write_record

    def keeping(directory, obs, **kwargs):
        bundles.append(obs)
        return write_record(directory, obs, **kwargs)

    monkeypatch.setattr(cli, "write_record", keeping)
    record = tmp_path / "record"
    assert cli.main(["scale", "--replicas", "2", "--platforms", "bess", "--kill-at", "200",
                     "--obs", "full", "--obs-out", str(record)]) == 0
    (obs,) = bundles
    assert (record / "spans.jsonl").read_text() == spans_jsonl_reference(obs.spans)
    assert (record / "trace.json").read_text() == chrome_reference(obs.tracer)
    tracks = obs.tracer.tracks()
    assert any(track.startswith("run1:") for track in tracks)
    assert any(track.startswith("ft:") for track in tracks)


def test_spans_recorded_after_the_recorders(tmp_path):
    tracer = PacketTracer()
    recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None)
    platform = BessPlatform(SpeedyBox([IPFilter("fw"), Monitor("mon")]), tracer=tracer,
                            spans=recorder)
    packets = mixed_traffic(flows=3, packets=6)
    platform.process_all(packets[:9])
    recorder.replay_into(tracer)
    tracer.span("late", "flow:late", 5.0, 2.5, note='"quoted"', values=[1, 2.5, None])
    tracer.instant("mark", "late", 7.0, where="after")
    platform.process_all(packets[9:])
    events = exported(tmp_path, tracer, recorder)
    assert {"late", "mark"} <= {event["name"] for event in events}
