"""End-to-end observability: exact span attribution + the obs dashboard.

The tentpole acceptance check lives here: a fig8-style run (9 IPFilter
chain) with flow spans at ``every=1`` / no cap produces per-stage span
cycles that sum to the run's total cycle count with exact ``==``
equality — the span layer and the raw CycleMeter arithmetic agree bit
for bit.  The CLI half drives ``repro demo --obs-out`` and renders
``repro obs report`` from the record it wrote.
"""

import re

from repro.cli import main
from repro.core.framework import SpeedyBox
from repro.nf import IPFilter
from repro.obs import FlowSpanRecorder, load_record, stage_of
from repro.platform import BessPlatform
from repro.platform.costs import CostModel
from tests.integration.test_route_matrix import routes  # noqa: F401  (the fixture)
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets
from tests.integration.helpers import total_meter


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
        spans = FlowSpanRecorder(every=1, max_spans_per_flow=None)
        platform = BessPlatform(SpeedyBox(fig8_chain()), spans=spans)
        result = platform.run_load(clone_packets(packets))
        assert result.delivered == len(packets)
        assert spans.packets_sampled == len(packets)

        # The oracle: the identical run's reports, summed raw.
        oracle = SpeedyBox(fig8_chain())
        reports = [oracle.process(p) for p in clone_packets(packets)]
        raw_total = sum(total_meter(r).cycles(model) for r in reports)

        span_total = sum(
            record["args"]["cycles"]
            for record in spans.records
            if record["depth"] == 1
        )
        root_total = sum(root["args"]["cycles"] for root in spans.roots())
        assert span_total == raw_total  # exact ==, no approx
        assert root_total == raw_total

    def test_per_stage_spans_match_profiler_stages(self):
        """Fixed-meter stages agree bucket by bucket, not just in total."""
        model = CostModel()
        packets = fig8_packets(flows=3, per_flow=20)
        spans = FlowSpanRecorder(every=1, max_spans_per_flow=None)
        platform = BessPlatform(SpeedyBox(fig8_chain()), spans=spans)
        platform.run_load(clone_packets(packets))

        # The oracle: every fixed-meter charge of the identical run,
        # bucketed by stage_of straight from the reports.
        oracle = SpeedyBox(fig8_chain())
        meter_stages = {}
        for packet in clone_packets(packets):
            fixed = oracle.process(packet).fixed_meter
            for operation, times in fixed.counts.items():
                stage = stage_of(operation)
                meter_stages[stage] = (
                    meter_stages.get(stage, 0.0) + model.op_cycles[operation] * times
                )

        by_stage = {}
        for record in spans.records:
            if record["depth"] != 1:
                continue
            stage = record["args"]["stage"]
            if stage in ("nf", "sf"):
                continue  # NF meters are not the fixed meter's
            by_stage[stage] = by_stage.get(stage, 0.0) + record["args"]["cycles"]
        assert by_stage == meter_stages

    def test_loaded_roots_carry_sim_latency(self):
        spans = FlowSpanRecorder(every=1, max_spans_per_flow=None)
        platform = BessPlatform(SpeedyBox(fig8_chain()), spans=spans)
        platform.run_load(fig8_packets(flows=2, per_flow=10))
        latencies = [
            root["args"].get("sim_latency_ns") for root in spans.roots()
        ]
        assert all(value is not None and value > 0 for value in latencies)


class TestReportCli:
    def run_demo(self, tmp_path, capsys, level="full"):
        record = tmp_path / "record"
        status = main([
            "demo", "--chain", "firewall,monitor", "--flows", "8",
            "--span-every", "1", "--obs-out", str(record), "--obs", level,
        ])
        assert status == 0
        capsys.readouterr()
        return record

    def test_obs_report_renders_every_section(self, tmp_path, capsys):
        record = self.run_demo(tmp_path, capsys)
        assert main(["obs", "report", str(record), "--slo-us", "50"]) == 0
        out = capsys.readouterr().out
        assert "repro obs report" in out
        assert "flows by latency" in out
        assert "SLO attainment" in out
        assert "cycle attribution" in out
        assert "audit events" in out
        assert "telemetry windows" in out
        assert "latency forensics" in out
        assert "metrics (" in out
        assert "fastpath_compile" in out

    def test_obs_report_accepts_json_metrics(self, tmp_path, capsys):
        """The metrics section is the full level's: a level-run record
        renders every other section and no metrics one."""
        assert main(["obs", "report", str(self.run_demo(tmp_path, capsys))]) == 0
        out = capsys.readouterr().out
        assert "metrics (" in out
        assert "chain_packets_total" in out
        assert main(["obs", "report", str(self.run_demo(tmp_path, capsys, "run"))]) == 0
        out = capsys.readouterr().out
        assert "audit events" in out and "latency forensics" in out
        assert "metrics (" not in out

    def test_obs_report_without_artifacts_is_an_error(self, capsys):
        assert main(["obs", "report"]) == 2
        assert "pass a run record" in capsys.readouterr().err

    def test_recording_at_level_run_changes_neither_stdout_nor_route(
        self, tmp_path, capsys, routes
    ):
        demo = ["demo", "--chain", "nat,maglev,monitor", "--flows", "6", "--seed", "3"]
        assert main(demo) == 0
        plain = capsys.readouterr().out
        plain_routes = list(routes)
        # original, speedybox: BESS plans at saturation
        assert plain_routes == ["vector", "vector"]
        del routes[:]
        assert main(demo + ["--obs-out", str(tmp_path / "record")]) == 0
        assert capsys.readouterr().out == plain
        assert routes == plain_routes
        watched = load_record(tmp_path / "record")  # ... and it was being watched
        assert watched.spans and watched.timeseries and watched.forensics["windows"]
        del routes[:]
        # the decision table's consequence of the other level
        assert main(demo + ["--obs-out", str(tmp_path / "record"), "--obs", "full"]) == 0
        assert routes == ["des", "des"]


class TestGen3Sections:
    """ft_*/txn_*/health_*/slo_* audit kinds and telemetry windows all
    surface in the dashboard (the report used to drop ft_*/txn_*)."""

    def run_scale(self, tmp_path, capsys):
        record = tmp_path / "record"
        status = main([
            "scale", "--replicas", "3", "--flows", "24",
            "--kill-at", "100", "--checkpoint-every", "16",
            "--obs-out", str(record), "--window-packets", "32",
            "--slo", "p99<250us", "--slo", "loss<0.1%",
        ])
        assert status == 0
        capsys.readouterr()
        return record

    def test_report_includes_ft_txn_health_and_windows(self, tmp_path, capsys):
        record = self.run_scale(tmp_path, capsys)
        assert main(["obs", "report", str(record)]) == 0
        out = capsys.readouterr().out
        assert "fault tolerance" in out
        assert "ft_failover_complete" in out
        assert "recoveries (" in out
        assert "health & SLO" in out
        assert "slo_burn_alert" in out
        assert "telemetry windows" in out

    def test_obs_and_ft_report_print_one_recovery_table(self, tmp_path, capsys):
        """Both readers of one failover record print the same recoveries
        table (they used to disagree on the ``ms`` column's format)."""
        record = self.run_scale(tmp_path, capsys)

        def recoveries(argv):
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            start = next(i for i, line in enumerate(lines) if line.startswith("recoveries ("))
            end = next((i for i in range(start, len(lines)) if not lines[i].strip()), len(lines))
            return lines[start:end]

        table = recoveries(["obs", "report", str(record)])
        assert table == recoveries(["ft", "report", str(record)])
        assert len(table) > 3 and table[1].split()[-1] == "ms"
        assert all(re.fullmatch(r"\d+\.\d\d", row.split()[-1]) for row in table[3:])

    def test_obs_watch_tables_windows_and_health(self, tmp_path, capsys):
        record = self.run_scale(tmp_path, capsys)
        assert main(["obs", "watch", str(record)]) == 0
        out = capsys.readouterr().out
        assert "telemetry windows" in out
        assert "p99_us" in out
        assert "health & SLO" in out

    def test_obs_watch_needs_windows(self, tmp_path, capsys):
        """A record whose windows were never fed, or whose windows file
        is empty: exit 2 naming the surface, not exit 0 and an empty table."""
        assert main(["obs", "watch"]) == 2
        assert "pass a run record" in capsys.readouterr().err
        record = tmp_path / "record"
        assert main(["sweep", "--max-length", "2", "--flows", "3",
                     "--obs-out", str(record)]) == 0
        capsys.readouterr()
        assert main(["obs", "watch", str(record)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "no timeseries surface" in captured.err
        (self.run_scale(tmp_path, capsys) / "timeseries.jsonl").write_text("")
        assert main(["obs", "watch", str(record)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "timeseries.jsonl: empty artifact" in captured.err

