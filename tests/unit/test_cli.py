"""Unit tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import NF_CATALOGUE, build_chain, main


class TestChainSpec:
    def test_builds_named_nfs(self):
        chain = build_chain("nat,monitor,firewall")
        assert [type(nf).__name__ for nf in chain] == ["MazuNAT", "Monitor", "IPFilter"]

    def test_instances_are_uniquely_named(self):
        chain = build_chain("monitor,monitor,monitor")
        assert len({nf.name for nf in chain}) == 3

    def test_unknown_nf_rejected(self):
        with pytest.raises(SystemExit):
            build_chain("nat,frobnicator")

    def test_empty_spec_rejected(self):
        with pytest.raises(SystemExit):
            build_chain(" , ,")

    def test_catalogue_covers_all_nf_families(self):
        assert {"nat", "maglev", "monitor", "firewall", "snort"} <= set(NF_CATALOGUE)


class TestDemoCommand:
    def test_demo_prints_summary(self, capsys):
        assert main(["demo", "--flows", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "original" in out
        assert "speedybox" in out
        assert "p50 latency reduction" in out

    def test_demo_no_speedybox(self, capsys):
        assert main(["demo", "--flows", "4", "--no-speedybox"]) == 0
        out = capsys.readouterr().out
        assert "speedybox" not in out

    def test_demo_onvm_platform(self, capsys):
        assert main(["demo", "--flows", "4", "--platform", "onvm",
                     "--chain", "monitor,firewall"]) == 0
        assert "onvm" in capsys.readouterr().out

    def test_list_nfs(self, capsys):
        assert main(["demo", "--list-nfs"]) == 0
        out = capsys.readouterr().out
        assert "maglev" in out
        assert "snort" in out

    def test_dump_rules(self, capsys):
        assert main(["demo", "--flows", "4", "--dump-rules", "2"]) == 0
        out = capsys.readouterr().out
        assert "fid=" in out
        assert "action  :" in out


class TestObservabilityFlags:
    def test_metrics_json_to_stdout(self, capsys):
        assert main(["demo", "--flows", "4", "--chain", "nat,maglev,monitor",
                     "--metrics-json", "-"]) == 0
        out = capsys.readouterr().out
        assert "fast_path_packets_total" in out
        assert "slow_path_packets_total" in out
        assert "ring_high_watermark" in out

    def test_metrics_json_to_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["demo", "--flows", "4", "--metrics-json", str(path)]) == 0
        snapshot = json.loads(path.read_text())
        assert snapshot["load_runs_total{platform=bess}"] >= 1
        assert any(key.startswith("path_packets_total") for key in snapshot)
        assert str(path) in capsys.readouterr().out

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["demo", "--flows", "4", "--trace-out", str(path)]) == 0
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert len(events) > 0
        timestamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert timestamps == sorted(timestamps)
        assert str(path) in capsys.readouterr().out

    def test_sweep_supports_metrics_json(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["sweep", "--max-length", "2", "--flows", "3",
                     "--metrics-json", str(path)]) == 0
        # Sweep runs unloaded (no rings): latency histogram + path counters.
        snapshot = json.loads(path.read_text())
        assert snapshot["platform_packets_total{platform=bess}"] > 0
        assert any(key.startswith("unloaded_latency_ns_bucket") for key in snapshot)

    def test_no_flags_no_observability_output(self, capsys):
        assert main(["demo", "--flows", "4"]) == 0
        out = capsys.readouterr().out
        assert "fast_path_packets_total" not in out


class TestEquivalenceCommand:
    def test_no_mismatches_returns_zero(self, capsys):
        assert main(["equivalence", "--flows", "8", "--seed", "2"]) == 0
        assert "0 mismatches" in capsys.readouterr().out

    def test_custom_chain(self, capsys):
        assert main(["equivalence", "--chain", "snort,monitor", "--flows", "6"]) == 0


class TestSweepCommand:
    def test_sweep_lists_lengths(self, capsys):
        assert main(["sweep", "--max-length", "3", "--flows", "4"]) == 0
        out = capsys.readouterr().out
        assert "chain length" in out
        assert "3" in out

    def test_onvm_capped_at_five(self, capsys):
        assert main(["sweep", "--platform", "onvm", "--max-length", "9", "--flows", "3"]) == 0
        out = capsys.readouterr().out
        assert "\n6 " not in out  # rows stop at 5


class TestProfileFlag:
    def test_sweep_profile_prints_report(self, capsys):
        assert main(["sweep", "--max-length", "2", "--flows", "3", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "chain length" in out  # the command still ran
        assert "top 30 by cumulative time" in out
        assert "cumtime" in out

    def test_demo_profile_out_writes_stats(self, tmp_path, capsys):
        import pstats

        path = str(tmp_path / "demo.prof")
        assert main(["demo", "--flows", "4", "--profile-out", path]) == 0
        out = capsys.readouterr().out
        assert f"wrote raw profile stats to {path}" in out
        stats = pstats.Stats(path)
        assert stats.total_calls > 0


class TestTraceCommand:
    def test_generate_and_inspect(self, tmp_path, capsys):
        path = str(tmp_path / "t.sbtr")
        assert main(["trace", "--generate", path, "--flows", "4"]) == 0
        assert main(["trace", "--inspect", path]) == 0
        out = capsys.readouterr().out
        assert "4 flows" in out

    def test_convert_to_pcap(self, tmp_path, capsys):
        sbtr = str(tmp_path / "t.sbtr")
        pcap = str(tmp_path / "t.pcap")
        assert main(["trace", "--generate", sbtr, "--flows", "3"]) == 0
        assert main(["trace", "--to-pcap", sbtr, pcap]) == 0
        assert "Wireshark" in capsys.readouterr().out
        from repro.net.pcap import load_pcap
        from repro.net.trace import load_trace

        assert len(load_pcap(pcap)) == len(load_trace(sbtr))

    def test_missing_args_errors(self, capsys):
        assert main(["trace"]) == 2


class TestScaleCommand:
    def test_scale_sweeps_both_platforms(self, capsys):
        assert main(["scale", "--replicas", "2", "--flows", "8", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "replica sweep" in out
        assert "Mpps" in out and "p99 us" in out
        # One row per (platform, replica count): both models, counts 1..2.
        assert sum(line.startswith("bess") for line in out.splitlines()) == 2
        assert sum(line.startswith("onvm") for line in out.splitlines()) == 2

    def test_scale_single_platform(self, capsys):
        assert main(
            ["scale", "--replicas", "3", "--platforms", "onvm", "--flows", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert sum(line.startswith("onvm") for line in out.splitlines()) == 3
        assert not any(line.startswith("bess") for line in out.splitlines())

    def test_scale_churn_reports_migrations(self, capsys):
        assert main(
            ["scale", "--replicas", "2", "--platforms", "bess", "--flows", "12",
             "--churn", "3"]
        ) == 0
        out = capsys.readouterr().out
        two_replica_row = [
            line for line in out.splitlines() if line.startswith("bess      2")
        ]
        assert two_replica_row and two_replica_row[0].rstrip().endswith("3")

    def test_scale_physical_cores_and_gap(self, capsys):
        assert main(
            ["scale", "--replicas", "2", "--platforms", "bess", "--flows", "6",
             "--physical-cores", "4", "--gap-ns", "100"]
        ) == 0
        assert "replica sweep" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["scale", "--physical-cores", "0"],
            ["scale", "--gap-ns", "-500"],
            ["scale", "--gap-ns", "nan"],
            ["trace", "--generate", "unwritten.sbtr", "--gap-ns", "inf"],
        ],
        ids=lambda argv: " ".join(argv[-2:]),
    )
    def test_bad_load_shape_is_a_usage_error(self, argv, capsys, tmp_path, monkeypatch):
        """Exit 2 with one usage error line before any packet runs — not a
        SimulationError trace after the functional pass, not a negative
        gap silently run as saturation."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        error_lines = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(error_lines) == 1 and argv[-2] in error_lines[0]
        assert captured.out == "" and not list(tmp_path.iterdir())

    def test_scale_no_speedybox(self, capsys):
        assert main(
            ["scale", "--replicas", "1", "--platforms", "bess", "--flows", "6",
             "--no-speedybox"]
        ) == 0

    def test_scale_metrics_json(self, tmp_path, capsys):
        target = tmp_path / "scale-metrics.json"
        assert main(
            ["scale", "--replicas", "2", "--platforms", "onvm", "--flows", "8",
             "--churn", "2", "--metrics-json", str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        assert "cluster_replicas" in payload
        assert "flow_migrations_total" in payload


class TestBatchCommand:
    def test_batch_lane_run(self, capsys):
        assert main(
            ["batch", "--flows", "200", "--packets-per-flow", "3",
             "--table", "64", "--block", "32"]
        ) == 0
        out = capsys.readouterr().out
        assert "batch lane" in out
        assert "us/packet" in out

    def test_batch_compare_legs_identical(self, capsys):
        assert main(
            ["batch", "--flows", "120", "--packets-per-flow", "4",
             "--table", "48", "--block", "16", "--compare"]
        ) == 0
        out = capsys.readouterr().out
        assert "per-packet" in out
        assert "identical results: yes" in out

    @pytest.mark.parametrize(
        "option", ["--flows", "--packets-per-flow", "--block", "--table"]
    )
    @pytest.mark.parametrize("value", ["0", "-3", "many"])
    def test_batch_rejects_non_positive_sizes(self, option, value, capsys):
        """Exit 2 with one usage error line, never a traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", option, value])
        assert exit_info.value.code == 2
        error_lines = [
            line for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert len(error_lines) == 1 and option in error_lines[0]

    def test_batch_onvm_platform(self, capsys):
        assert main(
            ["batch", "--platform", "onvm", "--flows", "60",
             "--packets-per-flow", "2", "--compare"]
        ) == 0
        assert "identical results: yes" in capsys.readouterr().out
