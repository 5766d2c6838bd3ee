"""CI perf gate: span sampling must stay cheap on the fast path.

Usage::

    python benchmarks/check_obs_overhead.py BENCH_obs_overhead.json \
        [--threshold 0.05]

The observability contract is that the production span config
(1-in-64 flow sampling, default per-flow cap) rides on the compiled
fast path for free: unsampled flows pay one dict probe per packet.
``benchmarks/test_obs_overhead.py`` measures the uninstrumented and
sampled runs back to back on the same machine, so the recorded
``sampled_overhead`` ratio is machine-independent and can be checked
directly — no baseline normalisation needed.  The same bound applies
to the windowed-telemetry cells (``timeseries_overhead`` on the
compiled per-packet path, ``lane_timeseries_overhead`` on the batch
lane) and to the tail-latency forensics cells
(``forensics_overhead`` for the production 1-in-16 decomposition
stride, ``forensics_off_overhead`` for a constructed-but-disabled
engine, which must be effectively free).  A run fails when any
instrumented cell exceeds the threshold (default 5%), when sampling
degenerated (no flows sampled, full-capture recorded no more spans
than sampled, or forensics sampled no packets), or when required
metrics are missing.  Exit code 1 on any failure.

One gate reads no stopwatch: ``*_stage_plan_calls`` counts the packets
a cell's run could not serve from the loaded loop's cached branch.
Forensics, a disabled forensics engine and windowed telemetry must
leave that count where the uninstrumented run has it, and 1-in-64
sampling may add at most ``sampled flows x span cap`` — the reason the
stopwatch cells are expected to read ~0 %, checked exactly.
"""

from __future__ import annotations

import argparse
import json


REQUIRED = (
    "off_s",
    "sampled_s",
    "sampled_overhead",
    "sampled_flows_sampled",
    "sampled_spans",
    "full_spans",
    "timeseries_s",
    "timeseries_overhead",
    "forensics_s",
    "forensics_overhead",
    "forensics_off_s",
    "forensics_off_overhead",
    "forensics_sampled",
    "lane_off_s",
    "lane_timeseries_s",
    "lane_timeseries_overhead",
    "off_stage_plan_calls",
    "sampled_stage_plan_calls",
    "sampled_span_cap",
    "forensics_stage_plan_calls",
    "forensics_off_stage_plan_calls",
    "timeseries_stage_plan_calls",
)


def load_metrics(path: str) -> dict:
    with open(path) as handle:
        payload = json.load(handle)
    return payload["metrics"]


def check(metrics: dict, threshold: float) -> int:
    failures = 0
    missing = [key for key in REQUIRED if key not in metrics]
    if missing:
        print(f"FAIL missing metrics: {', '.join(missing)}")
        return 1
    overhead = metrics["sampled_overhead"]
    status = "ok" if overhead <= threshold else "FAIL"
    print(
        f"{status:4s} sampled overhead: {100 * overhead:+.1f}% "
        f"(off {metrics['off_s']:.3f}s, sampled {metrics['sampled_s']:.3f}s, "
        f"budget {100 * threshold:.0f}%)"
    )
    if overhead > threshold:
        failures += 1
    if metrics["sampled_flows_sampled"] < 1:
        print("FAIL sampling degenerated: no flows were sampled")
        failures += 1
    else:
        print(
            f"ok   sampling live: {metrics['sampled_flows_sampled']:.0f} flows, "
            f"{metrics['sampled_spans']:.0f} spans recorded"
        )
    if metrics["full_spans"] <= metrics["sampled_spans"]:
        print(
            "FAIL full capture recorded no more spans than sampled "
            f"({metrics['full_spans']:.0f} vs {metrics['sampled_spans']:.0f})"
        )
        failures += 1
    ts_overhead = metrics["timeseries_overhead"]
    status = "ok" if ts_overhead <= threshold else "FAIL"
    print(
        f"{status:4s} telemetry overhead (per-packet): {100 * ts_overhead:+.1f}% "
        f"(off {metrics['off_s']:.3f}s, timeseries {metrics['timeseries_s']:.3f}s, "
        f"budget {100 * threshold:.0f}%)"
    )
    if ts_overhead > threshold:
        failures += 1
    fx_overhead = metrics["forensics_overhead"]
    status = "ok" if fx_overhead <= threshold else "FAIL"
    print(
        f"{status:4s} forensics overhead (1-in-16): {100 * fx_overhead:+.1f}% "
        f"(off {metrics['off_s']:.3f}s, forensics {metrics['forensics_s']:.3f}s, "
        f"budget {100 * threshold:.0f}%)"
    )
    if fx_overhead > threshold:
        failures += 1
    if metrics["forensics_sampled"] < 1:
        print("FAIL forensics degenerated: no packets were sampled")
        failures += 1
    fx_off = metrics["forensics_off_overhead"]
    status = "ok" if fx_off <= threshold else "FAIL"
    print(
        f"{status:4s} forensics overhead (disabled engine): "
        f"{100 * fx_off:+.1f}% "
        f"(off {metrics['off_s']:.3f}s, "
        f"disabled {metrics['forensics_off_s']:.3f}s — must be ~free)"
    )
    if fx_off > threshold:
        failures += 1
    lane_overhead = metrics["lane_timeseries_overhead"]
    status = "ok" if lane_overhead <= threshold else "FAIL"
    print(
        f"{status:4s} telemetry overhead (batch lane): "
        f"{100 * lane_overhead:+.1f}% "
        f"(off {metrics['lane_off_s']:.3f}s, "
        f"timeseries {metrics['lane_timeseries_s']:.3f}s, "
        f"budget {100 * threshold:.0f}%)"
    )
    if lane_overhead > threshold:
        failures += 1
    return failures + check_plan_calls(metrics)


def check_plan_calls(metrics: dict) -> int:
    """The steady majority never leaves the cached branch, whatever is
    attached: ``_stage_plan`` call counts, no stopwatch involved."""
    failures = 0
    off = metrics["off_stage_plan_calls"]
    for cell in ("forensics", "forensics_off", "timeseries"):
        calls = metrics[f"{cell}_stage_plan_calls"]
        status = "ok" if calls == off else "FAIL"
        print(f"{status:4s} {cell} plans built: {calls:.0f} (uninstrumented {off:.0f}, must match)")
        if calls != off:
            failures += 1
    sampled = metrics["sampled_stage_plan_calls"]
    allowed = off + metrics["sampled_flows_sampled"] * metrics["sampled_span_cap"]
    status = "ok" if sampled <= allowed else "FAIL"
    print(
        f"{status:4s} sampled plans built: {sampled:.0f} "
        f"(uninstrumented {off:.0f} + {metrics['sampled_flows_sampled']:.0f} flows "
        f"x cap {metrics['sampled_span_cap']:.0f} = {allowed:.0f} allowed)"
    )
    if sampled > allowed:
        failures += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly measured BENCH_obs_overhead.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="allowed fractional overhead for 1-in-64 sampling (default 0.05)",
    )
    args = parser.parse_args(argv)
    failures = check(load_metrics(args.current), args.threshold)
    if failures:
        print(f"{failures} check(s) failed the obs overhead gate")
        return 1
    print("obs overhead gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
