"""Unit tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import NF_CATALOGUE, build_chain, main
from repro.nf import IPFilter
from repro.nf.ipfilter import Verdict
from repro.obs import load_metrics, load_record


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

    def test_an_all_drop_chain_prints_no_latency(self, capsys, monkeypatch):
        """Latency columns rank delivered packets only: a chain that
        drops everything prints ``-`` for p50, p99 and the reduction,
        counts every packet dropped and delivers at 0 Mpps."""
        monkeypatch.setitem(
            NF_CATALOGUE, "blackhole", lambda i: IPFilter(f"blackhole{i}", default_verdict=Verdict.DROP)
        )
        assert main(["demo", "--flows", "4", "--seed", "3", "--chain", "blackhole"]) == 0
        lines = capsys.readouterr().out.splitlines()
        packets = int(lines[0].split("packets: ")[1])
        rows = [line.split() for line in lines if line.startswith(("original", "speedybox"))]
        assert rows == [[variant, "-", "-", "0.00", str(packets)] for variant in ("original", "speedybox")]
        assert lines[-1] == "p50 latency reduction: -"
        assert main(["scale", "--flows", "4", "--seed", "3", "--chain", "blackhole",
                     "--replicas", "2", "--platforms", "bess"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("bess")]
        assert [(row[3], row[4], row[5]) for row in rows] == [("0", "0.00", "-")] * 2

    def test_dump_rules(self, capsys):
        assert main(["demo", "--flows", "4", "--dump-rules", "2"]) == 0
        out = capsys.readouterr().out
        assert "fid=" in out
        assert "action  :" in out


DELETED_FLAGS = (
    "--metrics-json", "--metrics-prom", "--trace-out", "--span-out",
    "--audit-out", "--timeseries-out", "--forensics-out", "--profile-out",
)
RECORDING_COMMANDS = (["demo"], ["sweep"], ["scale"], ["batch"])


def manifest_of(directory):
    return json.loads((directory / "manifest.json").read_text())


class TestObservabilityArguments:
    """The record's numeric arguments: a value that cannot be used is a
    usage error (exit 2, one ``error:`` line), never a traceback and
    never quietly replaced by a default or clamped."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["demo", "--obs-out", "D", "--window-packets", "-3"],
            ["demo", "--obs-out", "D", "--window-packets", "0"],
            ["demo", "--slo", "p99<250us", "--window-ns", "-5"],
            ["demo", "--slo", "p99<250us", "--window-ns", "0"],
            ["demo", "--slo", "p99<250us", "--window-ns", "inf"],
            ["demo", "--obs-out", "D", "--span-every", "0"],
            ["demo", "--obs-out", "D", "--worst-k", "0"],
            ["scale", "--obs-out", "D", "--worst-k", "-1"],
        ],
        ids=lambda argv: " ".join(argv[-2:]),
    )
    def test_bad_values_are_usage_errors(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        error_lines = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(error_lines) == 1 and argv[-2] in error_lines[0]
        assert "Traceback" not in captured.err
        assert captured.out == "" and not list(tmp_path.iterdir())


class TestObservabilityFlags:
    """``--obs-out DIR`` / ``--obs LEVEL`` and the run record they leave.

    Some names here are older than the record (one flag per artifact);
    each test says what it pins now.
    """

    def test_metrics_json_to_stdout(self, tmp_path, capsys):
        """A record never goes to stdout: its one status line is on stderr."""
        plain = ["demo", "--flows", "4", "--chain", "nat,maglev,monitor"]
        assert main(plain) == 0
        expected = capsys.readouterr().out
        assert main(plain + ["--obs-out", str(tmp_path / "r"), "--obs", "full"]) == 0
        captured = capsys.readouterr()
        assert "fast_path_packets_total" not in captured.out
        # full flips the replay, so only the shape is compared here; the
        # level-run identity is tests/integration/test_obs_report.py's
        assert captured.out.splitlines()[0] == expected.splitlines()[0]
        assert captured.err.startswith(f"wrote run record to {tmp_path / 'r'} (level full: ")
        assert len(captured.err.splitlines()) == 1

    def test_metrics_json_to_file(self, tmp_path, capsys):
        """The registry is the full record's ``metrics.prom``."""
        out = tmp_path / "r"
        assert main(["demo", "--flows", "4", "--obs-out", str(out), "--obs", "full"]) == 0
        snapshot = load_metrics(out / "metrics.prom")
        assert snapshot["load_runs_total{platform=bess}"] >= 1
        assert any(key.startswith("path_packets_total") for key in snapshot)
        entry = manifest_of(out)["surfaces"]["metrics"]
        assert entry == {"file": "metrics.prom", "records": len(snapshot)}

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        """The packet tracer is the full record's ``trace.json``."""
        out = tmp_path / "r"
        assert main(["demo", "--flows", "4", "--obs-out", str(out), "--obs", "full"]) == 0
        events = json.loads((out / "trace.json").read_text())["traceEvents"]
        assert len(events) == manifest_of(out)["surfaces"]["trace"]["records"] > 0
        timestamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert timestamps == sorted(timestamps)

    def test_sweep_supports_metrics_json(self, tmp_path, capsys):
        """``sweep`` records too, and does not claim the surface it never feeds."""
        out = tmp_path / "r"
        assert main(["sweep", "--max-length", "2", "--flows", "3", "--slo", "p99<250us",
                     "--obs-out", str(out), "--obs", "full"]) == 0
        # Sweep runs unloaded (no rings): latency histogram + path counters.
        snapshot = load_metrics(out / "metrics.prom")
        assert snapshot["platform_packets_total{platform=bess}"] > 0
        assert any(key.startswith("unloaded_latency_ns_bucket") for key in snapshot)
        # ... and no telemetry windows: no 0-byte file, no 100 % compliance
        assert manifest_of(out)["surfaces"]["timeseries"] == "not fed"
        assert not (out / "timeseries.jsonl").exists()
        captured = capsys.readouterr()
        assert "timeseries not fed" in captured.err
        assert "no data" in captured.out and "1.00000" not in captured.out

    def test_scale_kill_records_its_failover(self, tmp_path, capsys):
        """A failover run still leaves a record: ``scale --kill-at``'s
        journal holds the kill and the recovery."""
        out = tmp_path / "r"
        assert main(["scale", "--flows", "12", "--replicas", "2", "--platforms", "bess",
                     "--kill-at", "40", "--obs-out", str(out)]) == 0
        assert manifest_of(out)["surfaces"]["audit"]["records"] > 0
        kinds = {json.loads(line)["kind"] for line in (out / "audit.jsonl").open()}
        assert {"ft_kill", "ft_failover_complete"} <= kinds

    def test_no_flags_no_observability_output(self, capsys):
        assert main(["demo", "--flows", "4"]) == 0
        captured = capsys.readouterr()
        assert "fast_path_packets_total" not in captured.out
        assert captured.err == ""

    def test_level_needs_somewhere_to_write(self, capsys):
        with pytest.raises(SystemExit, match="--obs full needs --obs-out"):
            main(["demo", "--flows", "4", "--obs", "full"])

    @pytest.mark.parametrize("command", RECORDING_COMMANDS, ids=" ".join)
    def test_help_shows_the_record_flags_and_no_old_one(self, command, capsys):
        with pytest.raises(SystemExit):
            main(command + ["--help"])
        text = capsys.readouterr().out
        assert "--obs-out DIR" in text and "--obs {run,full}" in text
        assert not [flag for flag in DELETED_FLAGS if flag in text]

    @pytest.mark.parametrize("flag", DELETED_FLAGS)
    def test_no_old_flag_survives_as_an_alias(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as usage:
            main(["demo", "--flows", "4", flag, str(tmp_path / "x")])
        assert usage.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestEquivalenceCommand:
    def test_no_mismatches_returns_zero(self, capsys):
        assert main(["equivalence", "--flows", "8", "--seed", "2"]) == 0
        assert "0 mismatches" in capsys.readouterr().out

    def test_custom_chain(self, capsys):
        assert main(["equivalence", "--chain", "snort,monitor", "--flows", "6"]) == 0

    def test_state_mismatch_names_the_flow_and_the_nf(self, capsys):
        """Monitor upstream of a NAT counts the rewritten tuple on the fast
        path (ROADMAP item 17): the outputs agree, the state does not."""
        assert main(["equivalence", "--chain", "monitor,nat"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH state mismatch — flow 10." in out and ", monitor0: " in out
        assert "40 mismatches (40 state)" in out

    def test_cluster_failover_under_churn_is_equivalent(self, capsys):
        """A kill, a recovery and churned connections on four replicas:
        loss-free and identical in output and state."""
        assert main(["equivalence", "--replicas", "4", "--kill-at", "300",
                     "--recover-after", "20", "--churn", "8"]) == 0
        out = capsys.readouterr().out
        assert "602 packets, 0 mismatches" in out
        assert "failover of replica" in out and "delivered" in out

    @pytest.mark.parametrize("argv", [
        ["--kill-at", "10"], ["--churn", "2"], ["--replicas", "2", "--recover-after", "5"],
        ["--replicas", "2", "--kill-at", "100000"], ["--replicas", "0"],
    ], ids=" ".join)
    def test_usage_errors(self, argv, capsys):
        try:
            code = main(["equivalence", "--flows", "4"] + argv)
        except SystemExit as usage:
            code = usage.code
        assert code == 2
        assert capsys.readouterr().err


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
        """Under ``--profile`` the raw stats are the record's ``profile.pstats``."""
        import pstats

        out = tmp_path / "r"
        assert main(["demo", "--flows", "4", "--profile", "--obs-out", str(out)]) == 0
        assert "top 30 by cumulative time" in capsys.readouterr().out
        stats = pstats.Stats(str(out / "profile.pstats"))
        assert stats.total_calls > 0
        assert manifest_of(out)["surfaces"]["profile"]["file"] == "profile.pstats"
        load_record(out)  # a record with a profile reads back


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
        from tests.integration.helpers import read_pcap
        from repro.net.trace import load_trace

        assert len(list(read_pcap(pcap))) == len(load_trace(sbtr))

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

    def test_no_replica_holds_two_connections_on_one_nat_port(self, capsys, monkeypatch):
        """Every ``scale`` row builds its replicas' NATs over one port pool
        per NAT (``pooled_chain_factory``).  With a private allocator per
        replica, a connection migrated by the churn or restored by the
        recovery kept a port its new replica had handed out too: the
        parent construction left 51 doubled ports over these rows."""
        import repro.cli as cli
        from repro.ft import FaultTolerance
        from repro.nf import MazuNAT
        from repro.scale import ScaleCluster

        doubled = []

        def check(cluster):
            for replica in cluster.replicas.values():
                for nf in replica.runtime.nfs:
                    if isinstance(nf, MazuNAT):
                        ports = [port for __, port in nf.mappings.values()]
                        doubled.append(len(ports) - len(set(ports)))

        def checked(method, cluster_of):
            def wrapper(self, *args, **kwargs):
                result = method(self, *args, **kwargs)
                check(cluster_of(self))
                return result

            return wrapper

        monkeypatch.setattr(ScaleCluster, "churn_flows",
                            checked(ScaleCluster.churn_flows, lambda cluster: cluster))
        monkeypatch.setattr(FaultTolerance, "recover",
                            checked(FaultTolerance.recover, lambda ft: ft.cluster))
        assert cli.main(
            ["scale", "--chain", "nat,monitor,firewall", "--replicas", "3",
             "--platforms", "onvm", "--flows", "40", "--seed", "1", "--checkpoint-every", "8",
             "--churn", "8", "--kill-at", "200", "--recover-after", "30"]
        ) == 0
        capsys.readouterr()
        assert len(doubled) > 6  # after each churn, and after each recovery
        assert sum(doubled) == 0

    def test_scale_gap(self, capsys):
        assert main(
            ["scale", "--replicas", "2", "--platforms", "bess", "--flows", "6",
             "--gap-ns", "100"]
        ) == 0
        assert "replica sweep" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
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

    def test_slo_counts_the_replayed_packets_over_its_threshold(self, capsys):
        """A cluster's windows hold each packet's replayed latency, so
        ``--slo 'p99<250us'`` counts as bad exactly the delivered packets
        slower than 250 us — not the service times a dispatch-time
        window used to hold."""
        from repro.cli import make_trace_packets
        from repro.scale import ScaleCluster
        from repro.traffic.generator import clone_packets

        assert main(["scale", "--replicas", "2", "--platforms", "bess",
                     "--slo", "p99<250us"]) == 0
        row = [line.split() for line in capsys.readouterr().out.splitlines()
               if line.startswith("p99<250us")]
        packets = make_trace_packets(40, 1)
        events = bad = 0
        for replicas in (1, 2):
            cluster = ScaleCluster(lambda: build_chain("nat,monitor,firewall"), replicas=replicas)
            total = cluster.run_load(clone_packets(packets)).total
            assert total.delivered == total.offered
            events += total.offered
            bad += int((total.latencies_ns > 250_000.0).sum())
        assert bad > 0
        assert row == [["p99<250us", "0.9990", str(events), str(bad), *row[0][4:]]]

    def test_scale_no_speedybox(self, capsys):
        assert main(
            ["scale", "--replicas", "1", "--platforms", "bess", "--flows", "6",
             "--no-speedybox"]
        ) == 0

    def test_scale_metrics_json(self, tmp_path, capsys):
        """``scale`` records: the cluster's series, and what ran, in the manifest."""
        out = tmp_path / "r"
        assert main(
            ["scale", "--replicas", "2", "--platforms", "onvm", "--flows", "8",
             "--churn", "2", "--obs-out", str(out), "--obs", "full"]
        ) == 0
        record = load_record(out)
        assert "cluster_replicas" in record.metrics
        assert "flow_migrations_total" in record.metrics
        assert record.manifest["command"] == "scale"
        assert record.manifest["platform"] == "onvm"
        assert record.manifest["argv"][:3] == ["scale", "--replicas", "2"]


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
