"""BENCH_*.json differ: declared kinds and directions, thresholds, the CI gate."""

import json
from pathlib import Path

import pytest

import benchmarks.harness as harness
from benchmarks.harness import count, sim, wall
from benchmarks.benchdiff import (
    DIRECTIONS,
    KINDS,
    collect_benches,
    diff_benches,
    diff_metrics,
    regressions,
    render_diff,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def write_bench(path, experiment, metrics):
    """``metrics``: key -> Metric, written the way ``save_result`` does."""
    payload = {
        "experiment": experiment,
        "metrics": {key: metric.value for key, metric in metrics.items()},
        "schema": {
            key: {"kind": metric.kind, "direction": metric.direction}
            for key, metric in metrics.items()
        },
    }
    path.write_text(json.dumps(payload))


def statuses(baseline, current, **kwargs):
    return {e.key: e.status for e in diff_metrics("x", baseline, current, **kwargs)}


class TestDirections:
    """A key is what its artifact declares it to be; its name says nothing."""

    def test_latency_like_keys_gate_lower(self):
        # Fig. 4's cycles-per-packet keys: no name pattern ever matched
        # them, so before declarations they could not gate at all
        key = "speedybox_sub_cycles_per_packet_n3"
        assert statuses({key: sim(750.0, "lower")}, {key: sim(825.0, "lower")}) == {
            key: "regression"
        }
        assert statuses({key: sim(750.0, "lower")}, {key: sim(600.0, "lower")}) == {
            key: "improvement"
        }

    def test_throughput_like_keys_gate_higher(self):
        assert statuses({"anything": sim(2.0, "higher")}, {"anything": sim(1.8, "higher")}) == {
            "anything": "regression"
        }
        # the same name and the same move, declared the other way
        assert statuses({"anything": sim(2.0, "lower")}, {"anything": sim(1.8, "lower")}) == {
            "anything": "improvement"
        }

    def test_fast_lane_churn_counts_gate_lower(self):
        # BENCH_ft_recovery.json: a checkpoint that recompiles the lanes
        # it snapshots shows up here, not on a host clock — and a count
        # off by one gates whatever the threshold
        base = {"interval_8_lane_compiles": count(96, "lower")}
        worse = {"interval_8_lane_compiles": count(97, "lower")}
        better = {"interval_8_lane_compiles": count(95, "lower")}
        assert statuses(base, worse, threshold=0.5) == {"interval_8_lane_compiles": "regression"}
        assert statuses(base, better, threshold=0.5) == {"interval_8_lane_compiles": "improvement"}

    def test_call_counts_gate_lower(self):
        # BENCH_obs_overhead.json: a steady packet that leaves the
        # loaded loop's cached branch shows up as a _stage_plan call,
        # which repeats exactly where the stopwatch cells do not
        (entry,) = diff_metrics(
            "obs_overhead",
            {"off_stage_plan_calls": count(512.0, "lower")},
            {"off_stage_plan_calls": count(513.0, "lower")},
        )
        assert (entry.kind, entry.direction, entry.status) == ("count", "lower", "regression")
        # an identity flag is a count whose good direction is up
        assert statuses(
            {"bess_n9_identical": count(1.0, "higher")}, {"bess_n9_identical": count(0.0, "higher")}
        ) == {"bess_n9_identical": "regression"}

    def test_everything_else_is_neutral(self):
        # no direction: a workload parameter or a finding only ever changes
        assert statuses({"flows": count(64)}, {"flows": count(128)}) == {"flows": "changed"}
        assert statuses(
            {"service_share_pct": sim(94.87, "none")}, {"service_share_pct": sim(50.0, "none")}
        ) == {"service_share_pct": "changed"}

    def test_host_clock_keys_never_gate(self):
        """The failure measured on the unchanged parent tree: a fresh
        ``test_ft_recovery`` run against the committed baseline read
        ``interval_16_recovery_ms`` x3.5 and the stall charge -17 %, and
        the name-matching differ gated both as simulated time."""
        base = {
            "interval_16_recovery_ms": wall(14.906),
            "interval_16_stall_charged_ms": wall(809.717),
        }
        cur = {
            "interval_16_recovery_ms": wall(51.56),
            "interval_16_stall_charged_ms": wall(672.1),
        }
        entries = diff_metrics("ft_recovery", base, cur)
        assert {e.status for e in entries} == {"ignored"}
        assert regressions(entries) == []


class TestDiff:
    def test_regressions_respect_direction(self):
        assert statuses(
            {"p99_us": sim(100.0, "lower"), "rate_mpps": sim(2.0, "higher")},
            {"p99_us": sim(120.0, "lower"), "rate_mpps": sim(1.8, "higher")},
        ) == {
            "p99_us": "regression",     # lower-better went up 20%
            "rate_mpps": "regression",  # higher-better went down 10%
        }

    def test_improvements_and_ok(self):
        got = statuses(
            {"p99_us": sim(100.0, "lower"), "rate_mpps": sim(2.0, "higher"), "flows": count(64)},
            {"p99_us": sim(80.0, "lower"), "rate_mpps": sim(2.01, "higher"), "flows": count(64)},
        )
        assert got["p99_us"] == "improvement"
        assert got["rate_mpps"] == "ok"  # +0.5% under threshold
        assert got["flows"] == "ok"

    def test_neutral_keys_only_change(self):
        assert statuses({"flows": count(64.0)}, {"flows": count(128.0)}) == {"flows": "changed"}

    def test_wallclock_keys_are_ignored_not_gated(self):
        entries = diff_metrics("x", {"off_s": wall(1.0)}, {"off_s": wall(3.0)})
        assert entries[0].status == "ignored"
        assert regressions(entries) == []

    def test_added_and_removed_keys(self):
        assert statuses({"old": count(1.0)}, {"new": sim(2.0, "lower")}) == {
            "old": "removed", "new": "added"
        }

    def test_zero_baseline_regresses_infinitely(self):
        assert statuses({"dropped": count(0.0, "lower")}, {"dropped": count(5.0, "lower")}) == {
            "dropped": "regression"
        }

    def test_the_current_declaration_classifies(self):
        # a key re-declared by the tree under test is what that tree says
        assert statuses({"recovery_ms": sim(10.0, "lower")}, {"recovery_ms": wall(30.0)}) == {
            "recovery_ms": "ignored"
        }


class TestCollectAndRender:
    def test_collect_file_and_directory(self, tmp_path):
        write_bench(tmp_path / "BENCH_a.json", "a", {"p99_us": sim(1.0, "lower")})
        write_bench(tmp_path / "BENCH_b.json", "b", {"p99_us": sim(2.0, "lower")})
        by_dir = collect_benches(tmp_path)
        assert set(by_dir) == {"a", "b"}
        by_file = collect_benches(tmp_path / "BENCH_a.json")
        assert by_file == {"a": {"p99_us": sim(1.0, "lower")}}

    @pytest.mark.parametrize(
        "payload",
        [
            {"metrics": {"a": 1.0}},                                          # no schema
            {"metrics": {"a": 1.0}, "schema": {}},                            # undeclared key
            {"metrics": {}, "schema": {"a": {"kind": "sim", "direction": "lower"}}},  # extra
            {"metrics": {"a": 1.0}, "schema": {"a": {"kind": "fast", "direction": "lower"}}},
            {"metrics": {"a": 1.0}, "schema": {"a": {"kind": "sim", "direction": "up"}}},
            {"metrics": {"a": "1.0"}, "schema": {"a": {"kind": "sim", "direction": "lower"}}},
        ],
    )
    def test_an_artifact_must_declare_exactly_what_it_holds(self, tmp_path, payload):
        path = tmp_path / "BENCH_a.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="BENCH_a.json"):
            collect_benches(path)

    def test_diff_benches_flags_missing_experiments(self, tmp_path):
        entries = diff_benches(
            {"a": {"p99_us": sim(1.0, "lower")}, "gone": {"x": count(1.0)}},
            {"a": {"p99_us": sim(2.0, "lower")}, "fresh": {"y": count(1.0)}},
        )
        got = {(e.experiment, e.key): e.status for e in entries}
        assert got[("a", "p99_us")] == "regression"
        assert got[("gone", "x")] == "removed"
        assert got[("fresh", "y")] == "added"

    def test_render_sorts_regressions_first(self):
        entries = diff_metrics(
            "x",
            {"p99_us": sim(100.0, "lower"), "rate_mpps": sim(2.0, "higher")},
            {"p99_us": sim(120.0, "lower"), "rate_mpps": sim(2.5, "higher")},
        )
        text = render_diff(entries)
        assert text.index("regression") < text.index("improvement")

    def test_render_show_ok_includes_unchanged(self):
        entries = diff_metrics("x", {"flows": count(1.0)}, {"flows": count(1.0)})
        assert "(no changes)" in render_diff(entries)
        assert "flows" in render_diff(entries, show_ok=True)


class TestCommittedArtifacts:
    """The ledger at the repo root: every value says what it is."""

    def test_every_committed_artifact_declares_every_key(self):
        paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert len(paths) >= 18
        for path in paths:
            payload = json.loads(path.read_text())
            assert set(payload) == {"experiment", "metrics", "schema"}, path.name
            assert set(payload["schema"]) == set(payload["metrics"]), path.name
            for key, declared in payload["schema"].items():
                assert set(declared) == {"kind", "direction"}, (path.name, key)
                assert declared["kind"] in KINDS, (path.name, key)
                assert declared["direction"] in DIRECTIONS, (path.name, key)
                if declared["kind"] == "count":
                    assert payload["metrics"][key] == int(payload["metrics"][key]), (path.name, key)
        # and the differ reads all of them
        assert len(collect_benches(REPO_ROOT)) == len(paths)


class TestSaveResult:
    @pytest.fixture
    def scratch(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path / "results")
        monkeypatch.setattr(harness, "REPO_ROOT", tmp_path)
        return tmp_path

    def test_declared_values_round_trip_through_the_differ(self, scratch):
        metrics = {
            "p99_us": sim(1.5, "lower"),
            "packets": count(64),
            "identical": count(1.0, "higher"),
            "elapsed_s": wall(0.25),
        }
        harness.save_result("demo", "a table", metrics=metrics)
        assert (scratch / "results" / "demo.txt").read_text() == "a table\n"
        assert collect_benches(scratch / "BENCH_demo.json") == {"demo": metrics}

    @pytest.mark.parametrize(
        "metrics, error",
        [
            ({"p99_us": 1.5}, TypeError),                         # a bare value
            ({"ok": wall(1.0), "raw": 3}, TypeError),
            ({"p99_us": sim(1.5, "down")}, ValueError),   # no such direction
            ({"packets": count(1.5)}, ValueError),        # not an integer
        ],
    )
    def test_an_undeclared_value_is_an_error_before_anything_is_written(
        self, scratch, metrics, error
    ):
        with pytest.raises(error):
            harness.save_result("demo", "a table", metrics=metrics)
        assert not list(scratch.iterdir())


class TestCheckerScript:
    def test_exit_codes(self, tmp_path, capsys):
        import benchmarks.check_bench_diff as checker

        base = tmp_path / "base"
        cur = tmp_path / "cur"
        base.mkdir()
        cur.mkdir()
        metrics = {"rate_mpps": sim(2.0, "higher"), "packets": count(64, "higher")}
        write_bench(base / "BENCH_a.json", "a", metrics)
        write_bench(cur / "BENCH_a.json", "a", metrics)
        assert checker.main([str(base), str(cur)]) == 0
        write_bench(cur / "BENCH_a.json", "a", {**metrics, "rate_mpps": sim(1.0, "higher")})
        capsys.readouterr()
        assert checker.main([str(base), str(cur)]) == 1
        assert "regressed: a:rate_mpps" in capsys.readouterr().out
        # loosening the threshold can un-gate the same change
        assert checker.main([str(base), str(cur), "--threshold", "0.6"]) == 0
        # ... but not a count that moved against its direction
        write_bench(cur / "BENCH_a.json", "a", {**metrics, "packets": count(63, "higher")})
        assert checker.main([str(base), str(cur), "--threshold", "0.6"]) == 1

    def test_an_artifact_without_declarations_is_exit_2(self, tmp_path, capsys):
        import benchmarks.check_bench_diff as checker

        declared = tmp_path / "BENCH_a.json"
        write_bench(declared, "a", {"rate_mpps": sim(2.0, "higher")})
        bare = tmp_path / "bare" / "BENCH_a.json"
        bare.parent.mkdir()
        bare.write_text(json.dumps({"experiment": "a", "metrics": {"rate_mpps": 1.0}}))
        capsys.readouterr()
        assert checker.main([str(declared), str(bare)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "no schema block" in captured.err
        assert checker.main([str(tmp_path / "missing.json"), str(declared)]) == 2
