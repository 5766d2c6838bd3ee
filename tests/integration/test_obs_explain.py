"""CLI acceptance for tail-latency forensics, read back by ``repro obs report``.

Round-trips real run records through the command line: a demo run
writes ``--obs-out`` and ``obs report`` renders its forensics section; a
fig8-style cluster run with an injected failover must name the failover
stall as the dominant tail component and tell the failure story on one
timeline in ``seq`` order; and a missing, empty or truncated record must
fail with one clear message and exit code 2 — not a traceback.
"""

import pytest

from repro.cli import main, make_trace_packets, pooled_chain_factory
from repro.ft import FaultInjector, FaultTolerance
from repro.obs import load_record
from repro.obs.forensics import COMPONENTS
from repro.platform.base import LoadResult
from repro.scale import ScaleCluster
from repro.traffic.generator import clone_packets


class TestForensicsRoundTrip:
    def run_demo(self, tmp_path, capsys):
        record = tmp_path / "record"
        assert main([
            "demo", "--flows", "10", "--obs-out", str(record), "--window-packets", "32",
        ]) == 0
        assert "forensics" in capsys.readouterr().err
        return record

    def test_demo_emits_decomposed_artifact(self, tmp_path, capsys):
        data = load_record(self.run_demo(tmp_path, capsys)).forensics
        assert data["summary"]["packets"] > 0
        assert data["windows"] and data["worst"]
        for record in data["worst"]:
            # Components reproduce the latency after a JSON round trip.
            total = ((record["service_ns"] + record["transfer_ns"])
                     + record["stall_ns"]) + record["queue_ns"]
            assert total == record["latency_ns"]

    def test_obs_report_gains_forensics_section(self, tmp_path, capsys):
        assert main(["obs", "report", str(self.run_demo(tmp_path, capsys))]) == 0
        out = capsys.readouterr().out
        assert "latency forensics" in out
        assert "component attribution" in out

    def test_obs_report_renders_every_component(self, tmp_path, capsys):
        assert main(["obs", "report", str(self.run_demo(tmp_path, capsys))]) == 0
        out = capsys.readouterr().out
        assert "component attribution" in out
        for name in COMPONENTS:
            assert name in out
        assert "worst 5 packets" in out
        assert "audit events (" in out and "timeline" in out  # the journal beside it

    def test_batch_forensics_round_trip(self, tmp_path, capsys):
        record = tmp_path / "batch"
        assert main([
            "batch", "--flows", "300", "--packets-per-flow", "4",
            "--block", "64", "--compare", "--obs-out", str(record),
        ]) == 0
        # the watched lane leg and the unwatched oracle leg agree
        assert "identical results: yes" in capsys.readouterr().out
        loaded = load_record(record)
        assert loaded.manifest["command"] == "batch"
        assert {row["lane"] for row in loaded.forensics["worst"]} == {"vector"}
        assert main(["obs", "report", str(record)]) == 0
        assert "component attribution" in capsys.readouterr().out


class TestFailoverForensics:
    def run_failover(self, tmp_path, capsys):
        record = tmp_path / "record"
        assert main([
            "scale", "--replicas", "3", "--platforms", "bess",
            "--flows", "30", "--checkpoint-every", "16", "--kill-at", "150",
            "--obs-out", str(record),
        ]) == 0
        capsys.readouterr()
        return record

    def test_explain_names_stall_as_dominant_tail_component(
        self, tmp_path, capsys
    ):
        record = self.run_failover(tmp_path, capsys)
        data = load_record(record).forensics
        assert data["stalls"], "failover charged no stall records"
        components = data["summary"]["components"]
        assert components["stall"] == max(
            components[name] for name in COMPONENTS
        ), f"stall is not the dominant component: {components}"

        assert main(["obs", "report", str(record)]) == 0
        out = capsys.readouterr().out
        assert "stall charges" in out
        assert "stall-dominant" in out
        assert "cause failover" in out
        assert "latency_regime_shift" in out

    def test_regime_shift_precedes_failover_complete(self, tmp_path, capsys):
        events = load_record(self.run_failover(tmp_path, capsys)).audit
        completes = [e["seq"] for e in events
                     if e["kind"] == "ft_failover_complete"]
        shifts = [e["seq"] for e in events
                  if e["kind"] == "latency_regime_shift"
                  and e.get("component") == "stall"]
        assert completes and shifts
        for seq in completes:
            assert any(shift < seq for shift in shifts), (
                f"ft_failover_complete seq={seq} has no preceding "
                f"stall regime shift (shifts at {shifts})"
            )

    def test_the_report_tells_the_failure_story(self, tmp_path, capsys):
        assert main(["obs", "report", str(self.run_failover(tmp_path, capsys))]) == 0
        out = capsys.readouterr().out
        assert "timeline (" in out and "ft_failover_complete" in out
        assert "recoveries (" in out and "checkpoints (" in out

    def test_the_timeline_is_in_seq_order_and_ends_in_the_completion(self, tmp_path, capsys):
        """Paced arrivals put the stall charges at 201 000 - 601 000 ns and
        the journal's completion at seq 614: a timeline that sorted the two
        as one key ended in stall charges.  The journal's order ends in the
        completion, which follows every delivery it reports."""
        record = tmp_path / "record"
        assert main(["scale", "--replicas", "2", "--platforms", "bess", "--kill-at", "200",
                     "--gap-ns", "1000", "--obs-out", str(record)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(record)]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("timeline ("))
        end = lines.index("", start)
        seqs = [int(line.split()[0][1:]) for line in lines[start + 1:end]]
        assert seqs == sorted(seqs) and len(seqs) == int(lines[start].split("(")[1].split()[0])
        assert lines[end - 1].split()[1] == "ft_failover_complete"
        journal = load_record(record).audit
        assert seqs[-1] == max(event["seq"] for event in journal)

    def test_charged_stall_raises_reported_p99(self):
        """The same failover with and without charging: the charged
        deliveries re-enter the latency population carrying their stall,
        and lift the p99 above the uncharged run's."""
        packets = make_trace_packets(30, 1)

        def p99(charge_recovery):
            cluster = ScaleCluster(pooled_chain_factory("nat,monitor,firewall"),
                                   platform="bess", replicas=2)
            ft = FaultTolerance(cluster, checkpoint_interval=16,
                                injector=FaultInjector(kill_at=150),
                                charge_recovery=charge_recovery)
            result = cluster.run_load(clone_packets(packets))
            ft.recover_all()
            assert bool(ft.charged) == charge_recovery
            return LoadResult.merged([result.total, ft.charged_result()]).latency_percentile(0.99)

        assert p99(True) > p99(False)


class TestGracefulArtifactFailures:
    """One stderr line and exit 2; tests/unit/test_obs_record.py runs the
    whole damage x reader matrix, these are the CI smoke's cases."""

    READERS = (["obs", "report"],)

    @pytest.fixture
    def record(self, tmp_path, capsys):
        directory = tmp_path / "record"
        assert main(["scale", "--replicas", "2", "--platforms", "bess", "--flows", "12",
                     "--kill-at", "60", "--obs-out", str(directory)]) == 0
        capsys.readouterr()
        return directory

    def test_empty_artifact_exits_2_with_message(self, record, capsys):
        (record / "audit.jsonl").write_text("")
        for reader in self.READERS:
            assert main(reader + [str(record)]) == 2
            err = capsys.readouterr().err
            assert "audit.jsonl: empty" in err
            assert "Traceback" not in err

    def test_truncated_artifact_exits_2_with_line_number(self, record, capsys):
        (record / "audit.jsonl").write_text('{"kind": "ft_kill"}\n{"kind": "ft_re')
        for reader in self.READERS:
            assert main(reader + [str(record)]) == 2
            err = capsys.readouterr().err
            assert "audit.jsonl:2:" in err  # names the offending line
            assert "invalid JSON" in err

    def test_missing_artifact_exits_2(self, record, tmp_path, capsys):
        (record / "manifest.json").unlink()  # what an interrupted run leaves
        for reader in self.READERS:
            assert main(reader + [str(record)]) == 2
            assert "manifest.json: no manifest" in capsys.readouterr().err
            assert main(reader + [str(tmp_path / "nope")]) == 2
            assert "not a run record" in capsys.readouterr().err

    def test_report_rejects_truncated_forensics(self, record, capsys):
        (record / "forensics.jsonl").write_text('{"type": "summ')
        assert main(["obs", "report", str(record)]) == 2
        err = capsys.readouterr().err
        assert "forensics.jsonl:1: invalid JSONL" in err
