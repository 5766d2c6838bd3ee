"""Decision audit log: recording semantics and runtime integration."""

import json

import pytest

from repro.core.framework import SpeedyBox
from repro.net.headers import TCP_FIN, TCPHeader
from repro.nf import IPFilter, MazuNAT, Monitor
from repro.obs import AuditLog, NULL_AUDIT, load_jsonl, summarize_events
from repro.obs.registry import MetricsRegistry
from repro.traffic import FlowSpec, TrafficGenerator


def make_packets(n=6, sport=1000, fin=False):
    spec = FlowSpec.tcp("10.0.0.1", "20.0.0.1", sport, 80, packets=n, fin=fin)
    return TrafficGenerator([spec]).packets()


def is_fin(packet):
    return isinstance(packet.l4, TCPHeader) and packet.l4.has_flag(TCP_FIN)


class TestAuditLog:
    def test_emit_records_seq_kind_and_fields(self):
        log = AuditLog()
        first = log.emit("fastpath_compile", fid=7, waves=2)
        second = log.emit("global_mat_evict", fid=9)
        # nothing but what the emitter said and the order it said it in:
        # no host clock, so two runs export the same bytes
        assert first == {"seq": 1, "kind": "fastpath_compile", "fid": 7, "waves": 2}
        assert second == {"seq": 2, "kind": "global_mat_evict", "fid": 9}
        assert len(log) == 2

    def test_events_filter_counts_and_last(self):
        log = AuditLog()
        log.emit("a", n=1)
        log.emit("b", n=2)
        log.emit("a", n=3)
        assert [e["n"] for e in log.events("a")] == [1, 3]
        assert log.counts() == {"a": 2, "b": 1}
        assert log.last("a")["n"] == 3
        assert log.last("missing") is None

    def test_disabled_log_records_nothing(self):
        log = AuditLog(enabled=False)
        assert log.emit("anything", x=1) is None
        assert len(log) == 0
        assert NULL_AUDIT.emit("anything") is None
        assert len(NULL_AUDIT) == 0

    def test_reset_restarts_seq(self):
        log = AuditLog()
        log.emit("a")
        log.reset()
        assert len(log) == 0
        assert log.emit("b")["seq"] == 1

    def test_jsonl_round_trip(self, tmp_path):
        log = AuditLog()
        log.emit("fastpath_compile", fid=3)
        log.emit("migration_freeze", flow="10.0.0.1:1000>20.0.0.1:80")
        path = tmp_path / "audit.jsonl"
        assert log.write_jsonl(path) == 2
        loaded = load_jsonl(path)
        assert loaded == log.events()
        # ... and every line parses independently.
        lines = path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == [
            "fastpath_compile", "migration_freeze",
        ]

    def test_empty_log_writes_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert AuditLog().write_jsonl(path) == 0
        assert path.read_text() == ""
        # ... which no record holds: the one loader calls it damage
        with pytest.raises(ValueError, match="empty.jsonl: empty artifact"):
            load_jsonl(path)

    def test_summarize_events(self):
        events = [{"kind": "a"}, {"kind": "a"}, {"kind": "b"}, {"n": 1}]
        assert summarize_events(events) == {"a": 2, "b": 1, "?": 1}


class TestRuntimeAuditIntegration:
    def test_speedybox_emits_compile_and_insert(self):
        log = AuditLog()
        runtime = SpeedyBox([IPFilter("fw"), Monitor("mon")], audit=log)
        for packet in make_packets(6, fin=True):
            runtime.process(packet)
        counts = log.counts()
        assert counts["global_mat_insert"] == 1
        assert counts["fastpath_compile"] == 1
        compile_event = log.last("fastpath_compile")
        insert_event = log.last("global_mat_insert")
        assert compile_event["fid"] == insert_event["fid"]
        assert compile_event["waves"] >= 0
        # FIN teardown invalidates the compiled lane with the reason.
        assert log.last("fastpath_invalidate")["reason"] == "flow_delete"

    def test_global_mat_eviction_is_audited(self):
        log = AuditLog()
        runtime = SpeedyBox([MazuNAT("nat")], max_flows=2, audit=log)
        packets = []
        for sport in (1000, 1001, 1002):
            # No FINs, so all three flows stay live and contend.
            packets.extend(make_packets(4, sport=sport))
        for packet in packets:
            runtime.process(packet)
        evictions = log.events("global_mat_evict")
        assert evictions, "capacity 2 with 3 live flows must evict"
        assert all("fid" in event for event in evictions)

    def test_audit_does_not_perturb_metrics(self):
        """The audit log must never touch registry counters (parity)."""
        def run(audit):
            metrics = MetricsRegistry()
            runtime = SpeedyBox([IPFilter("fw")], metrics=metrics, audit=audit)
            for packet in make_packets(8):
                runtime.process(packet)
            return metrics.snapshot()

        assert run(NULL_AUDIT) == run(AuditLog())


def test_generated_flows_close_with_fin():
    # The invalidate test relies on the trailing FIN; pin it.
    assert is_fin(make_packets(4, fin=True)[-1])
    assert not any(is_fin(p) for p in make_packets(4))
