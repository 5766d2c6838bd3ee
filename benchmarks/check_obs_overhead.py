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
