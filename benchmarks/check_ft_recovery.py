"""CI gate: failover recovery must stay loss-free and log-bounded.

Usage::

    python benchmarks/check_ft_recovery.py BENCH_ft_recovery.json \
        [--budget-ms 500]

``benchmarks/test_ft_recovery.py`` kills 1 of 4 replicas mid-run under
churn and recovers, once per checkpoint interval, with the equivalence
oracle watching.  This gate re-asserts the recorded guarantees:

- every interval's run was equivalent (loss-free, duplicate-free,
  state-identical — zero divergences);
- buffered in-flight packets were all delivered;
- the replayed-log depth respects the checkpoint bound: the per-replica
  log is trimmed at every checkpoint, so replay work cannot exceed
  (checkpoint interval + in-flight buffer), the knob the sweep turns;
- recovery time stays under a generous wall-clock budget (default
  500 ms — simulation-scale recoveries run in single-digit ms, the
  budget only catches pathological blowups);
- recovery cost was charged onto the packets that paid it: under the
  default ``charge_recovery`` policy every buffered delivery carries
  the failover stall on its simulated latency, so ``charged_packets``
  must equal ``delivered`` and the charged stall must be non-zero
  whenever anything was buffered;
- checkpointing left the fast lanes alone: a flow compiles its lane
  when it consolidates, when it migrates in and when it is restored,
  so the journal's ``fastpath_compile`` count must stay within
  ``flows + churn + restored`` at every interval.  A count — no host
  clock — so a return of per-packet recompilation under checkpointing
  fails here on any runner.

Exit code 1 on any failure.
"""

from __future__ import annotations

import argparse
import json

INTERVALS = (8, 16, 32)
PER_INTERVAL = (
    "recovery_ms",
    "buffered",
    "delivered",
    "replayed",
    "restored",
    "rebuilt",
    "equivalent",
    "divergences",
    "charged_packets",
    "stall_charged_ms",
    "lane_compiles",
    "lane_invalidations",
)


def load_metrics(path: str) -> dict:
    with open(path) as handle:
        payload = json.load(handle)
    return payload["metrics"]


def check(metrics: dict, budget_ms: float) -> int:
    failures = 0
    required = ["flows", "churn"] + [
        f"interval_{interval}_{key}"
        for interval in INTERVALS
        for key in PER_INTERVAL
    ]
    missing = [key for key in required if key not in metrics]
    if missing:
        print(f"FAIL missing metrics: {', '.join(missing)}")
        return 1

    for interval in INTERVALS:
        prefix = f"interval_{interval}"
        equivalent = metrics[f"{prefix}_equivalent"]
        divergences = metrics[f"{prefix}_divergences"]
        buffered = metrics[f"{prefix}_buffered"]
        delivered = metrics[f"{prefix}_delivered"]
        replayed = metrics[f"{prefix}_replayed"]
        recovery_ms = metrics[f"{prefix}_recovery_ms"]
        charged = metrics[f"{prefix}_charged_packets"]
        stall_ms = metrics[f"{prefix}_stall_charged_ms"]
        compiles = metrics[f"{prefix}_lane_compiles"]
        compile_bound = (
            metrics["flows"] + metrics["churn"] + metrics[f"{prefix}_restored"]
        )

        checks = [
            (equivalent == 1 and divergences == 0,
             f"equivalent (divergences={divergences})"),
            (buffered == delivered,
             f"buffered {buffered} == delivered {delivered}"),
            (replayed <= interval + buffered,
             f"replayed {replayed} <= interval {interval} + buffered {buffered}"),
            (recovery_ms <= budget_ms,
             f"recovery {recovery_ms:.2f} ms <= budget {budget_ms:.0f} ms"),
            (charged == delivered,
             f"charged {charged} == delivered {delivered} (stall on packets)"),
            (stall_ms > 0 if delivered > 0 else stall_ms == 0,
             f"stall charged {stall_ms:.2f} ms onto buffered deliveries"),
            (compiles <= compile_bound,
             f"lane compiles {compiles} <= flows + churn + restored {compile_bound}"),
        ]
        for ok, description in checks:
            status = "ok" if ok else "FAIL"
            print(f"{status:4s} interval {interval:3d}: {description}")
            failures += 0 if ok else 1
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json", help="path to BENCH_ft_recovery.json")
    parser.add_argument(
        "--budget-ms",
        type=float,
        default=500.0,
        help="max acceptable recovery wall-clock per failover (ms)",
    )
    args = parser.parse_args()
    return check(load_metrics(args.bench_json), args.budget_ms)


if __name__ == "__main__":
    raise SystemExit(main())
