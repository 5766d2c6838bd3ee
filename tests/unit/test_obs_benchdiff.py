"""BENCH_*.json differ: directions, thresholds, ignore list, CLI gate."""

import json

from repro.obs.benchdiff import (
    collect_benches,
    diff_benches,
    diff_metrics,
    direction_of,
    regressions,
    render_diff,
)


def write_bench(path, experiment, metrics):
    path.write_text(json.dumps({"experiment": experiment, "metrics": metrics}))


class TestDirections:
    def test_latency_like_keys_gate_lower(self):
        for key in ("p99_us", "latency_ns", "dropped", "recovery_windows"):
            assert direction_of(key) == "lower"

    def test_fast_lane_churn_counts_gate_lower(self):
        # BENCH_ft_recovery.json: a checkpoint that recompiles the lanes
        # it snapshots shows up here, not on a host clock
        for key in ("interval_8_lane_compiles", "interval_32_lane_invalidations"):
            assert direction_of(key) == "lower"

    def test_call_counts_gate_lower(self):
        # BENCH_obs_overhead.json: a steady packet that leaves the
        # loaded loop's cached branch shows up as a _stage_plan call,
        # which repeats exactly where the stopwatch cells do not
        for key in ("off_stage_plan_calls", "sampled_stage_plan_calls"):
            assert direction_of(key) == "lower"
        (entry,) = diff_metrics("obs_overhead", {"off_stage_plan_calls": 512.0},
                                {"off_stage_plan_calls": 51200.0})
        assert entry.status == "regression"

    def test_throughput_like_keys_gate_higher(self):
        for key in ("rate_mpps", "throughput", "fast_hit_ratio", "delivered"):
            assert direction_of(key) == "higher"

    def test_everything_else_is_neutral(self):
        assert direction_of("flows") == "neutral"
        assert direction_of("packets") == "neutral"


class TestDiff:
    def test_regressions_respect_direction(self):
        entries = diff_metrics(
            "x",
            {"p99_us": 100.0, "rate_mpps": 2.0},
            {"p99_us": 120.0, "rate_mpps": 1.8},
            ignore=None,
        )
        assert {e.key: e.status for e in entries} == {
            "p99_us": "regression",     # lower-better went up 20%
            "rate_mpps": "regression",  # higher-better went down 10%
        }

    def test_improvements_and_ok(self):
        entries = diff_metrics(
            "x",
            {"p99_us": 100.0, "rate_mpps": 2.0, "flows": 64.0},
            {"p99_us": 80.0, "rate_mpps": 2.01, "flows": 64.0},
            ignore=None,
        )
        statuses = {e.key: e.status for e in entries}
        assert statuses["p99_us"] == "improvement"
        assert statuses["rate_mpps"] == "ok"  # +0.5% under threshold
        assert statuses["flows"] == "ok"

    def test_neutral_keys_only_change(self):
        entries = diff_metrics("x", {"flows": 64.0}, {"flows": 128.0}, ignore=None)
        assert entries[0].status == "changed"

    def test_wallclock_keys_are_ignored_not_gated(self):
        entries = diff_metrics("x", {"off_s": 1.0}, {"off_s": 3.0})
        assert entries[0].status == "ignored"
        assert regressions(entries) == []

    def test_added_and_removed_keys(self):
        entries = diff_metrics("x", {"old": 1.0}, {"new": 2.0}, ignore=None)
        statuses = {e.key: e.status for e in entries}
        assert statuses == {"old": "removed", "new": "added"}

    def test_zero_baseline_regresses_infinitely(self):
        entries = diff_metrics("x", {"dropped": 0.0}, {"dropped": 5.0}, ignore=None)
        assert entries[0].status == "regression"


class TestCollectAndRender:
    def test_collect_file_and_directory(self, tmp_path):
        write_bench(tmp_path / "BENCH_a.json", "a", {"p99_us": 1.0})
        write_bench(tmp_path / "BENCH_b.json", "b", {"p99_us": 2.0})
        by_dir = collect_benches(tmp_path)
        assert set(by_dir) == {"a", "b"}
        by_file = collect_benches(tmp_path / "BENCH_a.json")
        assert set(by_file) == {"a"}

    def test_diff_benches_flags_missing_experiments(self, tmp_path):
        entries = diff_benches(
            {"a": {"p99_us": 1.0}, "gone": {"x": 1.0}},
            {"a": {"p99_us": 2.0}, "fresh": {"y": 1.0}},
            ignore=None,
        )
        statuses = {(e.experiment, e.key): e.status for e in entries}
        assert statuses[("a", "p99_us")] == "regression"
        assert statuses[("gone", "x")] == "removed"
        assert statuses[("fresh", "y")] == "added"

    def test_render_sorts_regressions_first(self):
        entries = diff_metrics(
            "x",
            {"p99_us": 100.0, "rate_mpps": 2.0},
            {"p99_us": 120.0, "rate_mpps": 2.5},
            ignore=None,
        )
        text = render_diff(entries)
        assert text.index("regression") < text.index("improvement")

    def test_render_show_ok_includes_unchanged(self):
        entries = diff_metrics("x", {"flows": 1.0}, {"flows": 1.0}, ignore=None)
        assert "(no changes)" in render_diff(entries)
        assert "flows" in render_diff(entries, show_ok=True)


class TestCheckerScript:
    def test_exit_codes(self, tmp_path):
        import benchmarks.check_bench_diff as checker

        base = tmp_path / "base"
        cur = tmp_path / "cur"
        base.mkdir()
        cur.mkdir()
        write_bench(base / "BENCH_a.json", "a", {"rate_mpps": 2.0})
        write_bench(cur / "BENCH_a.json", "a", {"rate_mpps": 2.0})
        assert checker.main([str(base), str(cur)]) == 0
        write_bench(cur / "BENCH_a.json", "a", {"rate_mpps": 1.0})
        assert checker.main([str(base), str(cur)]) == 1
        # loosening the threshold can un-gate the same change
        assert checker.main([str(base), str(cur), "--threshold", "0.6"]) == 0
