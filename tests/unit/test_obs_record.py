"""The run record (``repro.obs.record``): what ``--obs-out`` writes is
deterministic, reads back whole through ``load_record``, and every way
of damaging it is a ``ValueError`` that names the path."""

import json
import re

import pytest

import repro.cli as cli
from repro.obs import load_jsonl, load_metrics, load_record
from repro.obs.record import MANIFEST, NOT_FED, SCHEMA_VERSION, SURFACES

DEMO = ["demo", "--flows", "6", "--seed", "3", "--chain", "nat,maglev,monitor"]
LEVEL_SURFACES = {
    "run": ["audit", "spans", "timeseries", "forensics"],
    "full": ["audit", "spans", "timeseries", "forensics", "metrics", "trace"],
}


def record_demo(directory, level, capsys):
    assert cli.main(DEMO + ["--obs-out", str(directory), "--obs", level]) == 0
    capsys.readouterr()
    return directory


@pytest.mark.parametrize("level", sorted(LEVEL_SURFACES))
def test_two_runs_of_one_command_leave_byte_identical_directories(level, tmp_path, capsys):
    def snapshot(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    first = snapshot(record_demo(tmp_path / "r", level, capsys))
    assert sorted(first) == sorted(
        [MANIFEST] + [SURFACES[surface][0] for surface in LEVEL_SURFACES[level]]
    )
    assert snapshot(record_demo(tmp_path / "r", level, capsys)) == first
    # ... and somewhere else, only the manifest's argv says so
    elsewhere = snapshot(record_demo(tmp_path / "elsewhere", level, capsys))
    assert {name for name in first if elsewhere[name] != first[name]} == {MANIFEST}


#: Commands that run the whole-batch lane, the per-packet sweep and the
#: cluster router (also through a failover), recorded like ``DEMO``.
LANE_AND_CLUSTER = {
    "batch": ["batch", "--flows", "200", "--packets-per-flow", "5"],
    "sweep": ["sweep", "--max-length", "3"],
    "scale": ["scale", "--replicas", "2", "--platforms", "bess"],
    "scale-failover": ["scale", "--replicas", "2", "--platforms", "bess", "--kill-at", "200",
                       "--recover-after", "20", "--gap-ns", "1000"],
}


@pytest.mark.parametrize("level", sorted(LEVEL_SURFACES))
@pytest.mark.parametrize("command", sorted(LANE_AND_CLUSTER))
def test_two_runs_of_the_lane_and_cluster_commands_leave_identical_directories(
    command, level, tmp_path, capsys
):
    def record(directory):
        argv = LANE_AND_CLUSTER[command] + ["--obs-out", str(directory), "--obs", level]
        assert cli.main(argv) == 0
        capsys.readouterr()
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    first = record(tmp_path / "r")
    assert MANIFEST in first and len(first) > 2
    assert record(tmp_path / "r") == first
    elsewhere = record(tmp_path / "elsewhere")
    assert sorted(elsewhere) == sorted(first)
    assert {name for name in first if elsewhere[name] != first[name]} == {MANIFEST}


@pytest.mark.parametrize("level", sorted(LEVEL_SURFACES))
def test_record_round_trips_with_the_manifests_counts(level, tmp_path, capsys):
    record = load_record(record_demo(tmp_path / "r", level, capsys))
    manifest = record.manifest
    assert manifest["schema"] == SCHEMA_VERSION
    assert manifest["level"] == level
    assert (manifest["command"], manifest["chain"], manifest["platform"], manifest["seed"]) == (
        "demo", "nat,maglev,monitor", "bess", 3,
    )
    assert manifest["argv"] == DEMO + ["--obs-out", str(record.path), "--obs", level]
    assert list(manifest["surfaces"]) == sorted(LEVEL_SURFACES[level])
    loaded = {
        "audit": record.audit,
        "spans": record.spans,
        "timeseries": record.timeseries,
        "metrics": record.metrics,
    }
    for surface, entry in manifest["surfaces"].items():
        if surface == "forensics":
            rows = load_jsonl(record.path / entry["file"])
            assert record.forensics["summary"] == rows[0]
        elif surface == "trace":  # Perfetto's, not a reader's: present, not parsed
            rows = json.loads((record.path / entry["file"]).read_text())["traceEvents"]
        else:
            rows = loaded[surface]
        assert len(rows) == entry["records"]
    for surface in set(loaded) - set(manifest["surfaces"]):
        assert loaded[surface] is None


def test_rewriting_a_directory_leaves_no_stale_file(tmp_path, capsys):
    record_demo(tmp_path / "r", "full", capsys)
    record = load_record(record_demo(tmp_path / "r", "run", capsys))
    assert record.metrics is None and not (record.path / "metrics.prom").exists()


def test_metrics_file_reads_back_as_the_live_snapshot(tmp_path, capsys, monkeypatch):
    """Key for key, value for value: histogram buckets used to come back
    as ``le=16000.0`` and with ``le`` sorted among the other labels."""
    bundles = []
    make = cli.make_observability
    monkeypatch.setattr(
        cli, "make_observability", lambda args: bundles.append(make(args)) or bundles[-1]
    )
    directory = record_demo(tmp_path / "r", "full", capsys)
    live = bundles[0].metrics.snapshot()
    assert any("_bucket{" in key and not key.endswith("le=+Inf}") for key in live)
    assert load_metrics(directory / "metrics.prom") == live


# -- degraded records -----------------------------------------------------------


def no_manifest(directory):
    (directory / MANIFEST).unlink()
    return MANIFEST


def unknown_schema(directory):
    manifest = json.loads((directory / MANIFEST).read_text())
    manifest["schema"] = SCHEMA_VERSION + 1
    (directory / MANIFEST).write_text(json.dumps(manifest))
    return MANIFEST


def unknown_surface(directory):
    (directory / MANIFEST).write_text(json.dumps({"schema": SCHEMA_VERSION, "surfaces": {"x": {}}}))
    return MANIFEST


def truncated_mid_line(directory):
    path = directory / "audit.jsonl"
    path.write_text(path.read_text()[:-20])
    return f"audit.jsonl:{len(path.read_text().splitlines())}:"


def truncated_at_a_line_end(directory):
    path = directory / "spans.jsonl"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-3]))
    return "spans.jsonl"


def emptied(directory):
    (directory / "forensics.jsonl").write_text("")
    return "forensics.jsonl"


def file_gone(directory):
    (directory / "timeseries.jsonl").unlink()
    return "timeseries.jsonl"


DAMAGE = [no_manifest, unknown_schema, unknown_surface, truncated_mid_line, truncated_at_a_line_end,
          emptied, file_gone]
READERS = (["obs", "report"],)


@pytest.mark.parametrize("damage", DAMAGE, ids=lambda fn: fn.__name__)
def test_a_damaged_record_is_a_value_error_naming_the_path(damage, tmp_path, capsys):
    directory = record_demo(tmp_path / "r", "run", capsys)
    where = damage(directory)
    with pytest.raises(ValueError) as failure:
        load_record(directory)
    assert str(directory / where) in str(failure.value)
    for reader in READERS:
        assert cli.main(reader + [str(directory)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert str(directory / where) in captured.err


def test_not_a_directory_and_no_argument(tmp_path, capsys):
    for reader in READERS:
        assert cli.main(reader + [str(tmp_path / "nope")]) == 2
        assert "not a run record" in capsys.readouterr().err
        assert cli.main(reader) == 2
        assert "--obs-out" in capsys.readouterr().err


def test_a_surface_the_run_never_fed_is_one_line_of_the_report(tmp_path, capsys):
    """A sweep feeds no windows: the record loads, and the report says so
    in one line instead of exiting 2."""
    directory = tmp_path / "r"
    assert cli.main(["sweep", "--max-length", "2", "--flows", "3",
                     "--obs-out", str(directory)]) == 0
    capsys.readouterr()
    record = load_record(directory)
    assert record.manifest["surfaces"]["timeseries"] == NOT_FED
    assert record.timeseries is None and record.metrics is None
    assert cli.main(["obs", "report", str(directory)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "telemetry windows (not fed)" in out and "metrics (not fed)" in out


@pytest.mark.parametrize("argv", [["obs", "watch"], ["obs", "explain"], ["ft", "report"]],
                         ids=" ".join)
def test_the_retired_readers_are_usage_errors(argv, tmp_path, capsys):
    directory = record_demo(tmp_path / "r", "run", capsys)
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + [str(directory)])
    assert exit_.value.code == 2
    assert "invalid choice" in capsys.readouterr().err

@pytest.mark.parametrize("argv", [
    ["demo"], ["sweep", "--max-length", "3"], ["scale", "--replicas", "2", "--platforms", "bess"],
], ids=" ".join)
def test_no_two_spans_overlap_on_a_core_track(argv, tmp_path, capsys):
    """Every platform that shares a tracer lays its unloaded packets out at
    the tracer's one cursor: a cluster's replicas, a sweep's chains and a
    demo's second pass (after ``Platform.reset``) used to restart at 0."""
    directory = tmp_path / "r"
    assert cli.main(argv + ["--obs", "full", "--obs-out", str(directory)]) == 0
    capsys.readouterr()
    events = json.loads((directory / "trace.json").read_text())["traceEvents"]
    tracks = {event["tid"]: event["args"]["name"] for event in events if event["ph"] == "M"}
    spans = {}
    for event in events:
        track = tracks[event["tid"]]
        if event["ph"] == "X" and re.search(r":(main|worker\d+)$", track):
            spans.setdefault(track, []).append((event["ts"], event["dur"]))
    assert any(track.endswith(":main") for track in spans)
    for track, intervals in spans.items():
        intervals.sort()
        overlaps = sum(
            1 for (start, dur), (after, __) in zip(intervals, intervals[1:])
            if after < start + dur - 1e-6  # µs: ns rounding of a shared edge
        )
        assert overlaps == 0, f"{track}: {overlaps} of {len(intervals)} spans overlap"
