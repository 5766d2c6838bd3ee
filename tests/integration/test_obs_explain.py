"""CLI acceptance for tail-latency forensics (``repro obs explain``).

Round-trips real run records through the command line: a demo run
writes ``--obs-out``, ``obs explain`` and ``obs report`` render it; a
fig8-style cluster run with an injected failover must name the failover
stall as the dominant tail component; and a missing, empty or truncated
record must fail with one clear message and exit code 2 — not a
traceback — from every reader, ``ft report`` included.
"""

import pytest

from repro.cli import main
from repro.obs import load_record
from repro.obs.forensics import COMPONENTS


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

    def test_obs_explain_renders(self, tmp_path, capsys):
        assert main(["obs", "explain", str(self.run_demo(tmp_path, capsys))]) == 0
        out = capsys.readouterr().out
        assert "repro obs explain" in out
        assert "component attribution" in out
        for name in COMPONENTS:
            assert name in out
        assert "worst" in out
        assert "correlated cause" in out  # the record's audit journal was joined

    def test_obs_report_gains_forensics_section(self, tmp_path, capsys):
        assert main(["obs", "report", str(self.run_demo(tmp_path, capsys))]) == 0
        out = capsys.readouterr().out
        assert "latency forensics" in out
        assert "component attribution" in out

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
        assert {row["lane"] for row in loaded.forensics["windows"]} == {"batch"}
        assert main(["obs", "explain", str(record)]) == 0
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

        assert main(["obs", "explain", str(record)]) == 0
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

    def test_ft_report_reads_the_same_record(self, tmp_path, capsys):
        assert main(["ft", "report", str(self.run_failover(tmp_path, capsys))]) == 0
        out = capsys.readouterr().out
        assert "failure timeline" in out and "ft_failover_complete" in out

    def test_charged_stall_raises_reported_p99(self, capsys, tmp_path):
        args = ["scale", "--replicas", "2", "--platforms", "bess",
                "--flows", "30", "--checkpoint-every", "16", "--kill-at", "150"]
        assert main(args) == 0
        charged = capsys.readouterr().out
        assert main(args + ["--no-charge-recovery"]) == 0
        uncharged = capsys.readouterr().out

        def p99_of_two_replica_row(out):
            for line in out.splitlines():
                cells = line.split()
                if cells[:2] == ["bess", "2"]:
                    return float(cells[5])
            raise AssertionError(f"no 2-replica row in:\n{out}")

        # Charging maps the failover wall time (milliseconds) onto the
        # buffered packets' simulated latency; without it the p99 stays
        # at the microsecond queueing scale.
        assert p99_of_two_replica_row(charged) > p99_of_two_replica_row(uncharged)


class TestGracefulArtifactFailures:
    """One stderr line and exit 2; tests/unit/test_obs_record.py runs the
    whole damage x reader matrix, these are the CI smoke's cases."""

    READERS = (["obs", "report"], ["obs", "watch"], ["obs", "explain"], ["ft", "report"])

    @pytest.fixture
    def record(self, tmp_path, capsys):
        directory = tmp_path / "record"
        assert main(["scale", "--replicas", "2", "--platforms", "bess", "--flows", "12",
                     "--kill-at", "60", "--obs-out", str(directory)]) == 0
        capsys.readouterr()
        return directory

    def test_empty_artifact_exits_2_with_message(self, record, capsys):
        (record / "audit.jsonl").write_text("")
        for reader in self.READERS:  # ft report used to be a traceback here
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

    def test_explain_requires_forensics_artifact(self, capsys):
        assert main(["obs", "explain"]) == 2
        assert "pass a run record" in capsys.readouterr().err

    def test_explain_rejects_truncated_forensics(self, record, capsys):
        (record / "forensics.jsonl").write_text('{"type": "summ')
        assert main(["obs", "explain", str(record)]) == 2
        err = capsys.readouterr().err
        assert "forensics.jsonl:1: invalid JSONL" in err
