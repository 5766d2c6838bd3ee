"""End-to-end observability: exact span attribution + the obs dashboard.

The tentpole acceptance check lives here: a fig8-style run (9 IPFilter
chain) with flow spans at ``every=1`` / no cap produces per-stage span
cycles that sum to the run's total cycle count with exact ``==``
equality — the span layer, the Fig. 7 profiler and the raw CycleMeter
arithmetic all agree bit for bit.  The CLI half drives ``repro demo``
with every artifact flag and renders ``repro obs report`` from the
files it wrote.
"""

from repro.cli import main
from repro.core.framework import SpeedyBox
from repro.nf import IPFilter
from repro.obs import CycleAttribution, FlowSpanRecorder
from repro.platform import BessPlatform
from repro.platform.costs import CostModel
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets


def fig8_chain():
    return [IPFilter(f"ipfilter{i}") for i in range(9)]


def fig8_packets(flows=6, per_flow=30):
    specs = [
        FlowSpec.tcp(f"10.1.{i}.1", "20.0.0.1", 5000 + i, 80, packets=per_flow)
        for i in range(flows)
    ]
    return TrafficGenerator(specs, interleave="round_robin").packets()


class TestExactAttribution:
    def test_loaded_run_spans_sum_to_total_cycles(self):
        """Acceptance: span attribution == run total, exact equality."""
        model = CostModel()
        packets = fig8_packets()
        spans = FlowSpanRecorder(model=model, every=1, max_spans_per_flow=None)
        platform = BessPlatform(SpeedyBox(fig8_chain()), spans=spans)
        result = platform.run_load(clone_packets(packets))
        assert result.delivered == len(packets)
        assert spans.packets_sampled == len(packets)

        # The oracle: the identical run's reports, summed raw and bucketed
        # through the Fig. 7 profiler.
        attribution = CycleAttribution(model)
        oracle = SpeedyBox(fig8_chain())
        reports = [oracle.process(p) for p in clone_packets(packets)]
        attribution.ingest_all(reports)
        raw_total = sum(r.total_meter().cycles(model) for r in reports)

        span_total = sum(
            record["args"]["cycles"]
            for record in spans.records
            if record["depth"] == 1
        )
        root_total = sum(root["args"]["cycles"] for root in spans.roots())
        assert span_total == raw_total  # exact ==, no approx
        assert root_total == raw_total
        assert attribution.total_cycles() == raw_total

    def test_per_stage_spans_match_profiler_stages(self):
        """Fixed-meter stages agree bucket by bucket, not just in total."""
        model = CostModel()
        packets = fig8_packets(flows=3, per_flow=20)
        spans = FlowSpanRecorder(model=model, every=1, max_spans_per_flow=None)
        platform = BessPlatform(SpeedyBox(fig8_chain()), spans=spans)
        platform.run_load(clone_packets(packets))

        attribution = CycleAttribution(model)
        oracle = SpeedyBox(fig8_chain())
        attribution.ingest_all(oracle.process(p) for p in clone_packets(packets))

        by_stage = {}
        for record in spans.records:
            if record["depth"] != 1:
                continue
            stage = record["args"]["stage"]
            if stage in ("nf", "sf"):
                continue  # NF buckets are keyed by name in the profiler
            by_stage[stage] = by_stage.get(stage, 0.0) + record["args"]["cycles"]
        profiler_stages = attribution.stage_cycles()
        for stage, cycles in by_stage.items():
            assert cycles == profiler_stages[stage]

    def test_loaded_roots_carry_sim_latency(self):
        spans = FlowSpanRecorder(every=1, max_spans_per_flow=None)
        platform = BessPlatform(SpeedyBox(fig8_chain()), spans=spans)
        platform.run_load(fig8_packets(flows=2, per_flow=10))
        latencies = [
            root["args"].get("sim_latency_ns") for root in spans.roots()
        ]
        assert all(value is not None and value > 0 for value in latencies)


class TestReportCli:
    def run_demo(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        spans = tmp_path / "spans.jsonl"
        audit = tmp_path / "audit.jsonl"
        status = main([
            "demo", "--chain", "firewall,monitor", "--flows", "8",
            "--metrics-prom", str(metrics),
            "--span-out", str(spans), "--span-every", "1",
            "--audit-out", str(audit),
        ])
        assert status == 0
        capsys.readouterr()
        return metrics, spans, audit

    def test_obs_report_renders_every_section(self, tmp_path, capsys):
        metrics, spans, audit = self.run_demo(tmp_path, capsys)
        status = main([
            "obs", "report",
            "--metrics", str(metrics),
            "--spans", str(spans),
            "--audit", str(audit),
            "--slo-us", "50",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "repro obs report" in out
        assert "flows by latency" in out
        assert "SLO attainment" in out
        assert "cycle attribution" in out
        assert "audit events" in out
        assert "metrics" in out
        assert "fastpath_compile" in out

    def test_obs_report_accepts_json_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        status = main([
            "demo", "--chain", "firewall", "--flows", "4",
            "--metrics-json", str(metrics),
        ])
        assert status == 0
        capsys.readouterr()
        assert main(["obs", "report", "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "metrics" in out
        assert "chain_packets_total" in out
        # A single artifact is enough: no "(no artifacts given ...)" hint.
        assert "no artifacts" not in out

    def test_obs_report_without_artifacts_is_an_error(self, capsys):
        assert main(["obs", "report"]) == 2
        assert "at least one" in capsys.readouterr().err


class TestGen3Sections:
    """ft_*/txn_*/health_*/slo_* audit kinds and telemetry windows all
    surface in the dashboard (the report used to drop ft_*/txn_*)."""

    def run_scale(self, tmp_path, capsys):
        audit = tmp_path / "audit.jsonl"
        windows = tmp_path / "windows.jsonl"
        status = main([
            "scale", "--replicas", "3", "--flows", "24",
            "--kill-at", "100", "--checkpoint-every", "16",
            "--audit-out", str(audit),
            "--timeseries-out", str(windows), "--window-packets", "32",
            "--slo", "p99<250us", "--slo", "loss<0.1%",
        ])
        assert status == 0
        capsys.readouterr()
        return audit, windows

    def test_report_includes_ft_txn_health_and_windows(self, tmp_path, capsys):
        audit, windows = self.run_scale(tmp_path, capsys)
        status = main([
            "obs", "report", "--audit", str(audit), "--windows", str(windows),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "fault tolerance" in out
        assert "ft_failover_complete" in out
        assert "recoveries (" in out
        assert "health & SLO" in out
        assert "slo_burn_alert" in out
        assert "telemetry windows" in out

    def test_obs_watch_tables_windows_and_health(self, tmp_path, capsys):
        audit, windows = self.run_scale(tmp_path, capsys)
        assert main(["obs", "watch", "--windows", str(windows),
                     "--audit", str(audit)]) == 0
        out = capsys.readouterr().out
        assert "telemetry windows" in out
        assert "p99_us" in out
        assert "health & SLO" in out

    def test_obs_watch_needs_windows(self, capsys):
        assert main(["obs", "watch"]) == 2
        assert "--windows" in capsys.readouterr().err

    def test_obs_diff_gates_regressions(self, tmp_path, capsys):
        import json

        base = tmp_path / "base"
        cur = tmp_path / "cur"
        base.mkdir()
        cur.mkdir()
        payload = {
            "experiment": "x",
            "metrics": {"rate_mpps": 2.0},
            "schema": {"rate_mpps": {"kind": "sim", "direction": "higher"}},
        }
        (base / "BENCH_x.json").write_text(json.dumps(payload))
        (cur / "BENCH_x.json").write_text(json.dumps(payload))
        assert main(["obs", "diff", "--baseline", str(base),
                     "--current", str(cur)]) == 0
        capsys.readouterr()
        payload["metrics"]["rate_mpps"] = 1.0
        (cur / "BENCH_x.json").write_text(json.dumps(payload))
        assert main(["obs", "diff", "--baseline", str(base),
                     "--current", str(cur)]) == 1
        assert "regression" in capsys.readouterr().out
        assert main(["obs", "diff"]) == 2
        # what a key is comes from the artifact and from nowhere else
        del payload["schema"]
        (cur / "BENCH_x.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["obs", "diff", "--baseline", str(base),
                     "--current", str(cur)]) == 2
        assert "no schema block" in capsys.readouterr().err

    def test_txn_section_renders_from_audit_kinds(self):
        from repro.obs.report import render_txn_summary

        events = [
            {"kind": "txn_commit", "txn": "a", "reads": 1, "writes": 1},
            {"kind": "txn_abort", "txn": "b", "key": "('natpool', 'next')",
             "expected": 1, "found": 2},
            {"kind": "txn_abort", "txn": "c", "key": "('natpool', 'next')",
             "expected": 2, "found": 3},
        ]
        text = render_txn_summary(events)
        assert "commits audited : 1" in text
        assert "aborts          : 2" in text
        assert "natpool" in text
