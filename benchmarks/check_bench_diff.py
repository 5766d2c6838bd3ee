"""CI perf gate: diff fresh BENCH_*.json artifacts against baselines.

Usage::

    PYTHONPATH=src python benchmarks/check_bench_diff.py BASELINE CURRENT \
        [--threshold 0.05] [--show-ok]

``BASELINE`` and ``CURRENT`` are each a ``BENCH_*.json`` file or a
directory of them (the repo root holds the committed baselines; a CI
run stashes them, re-runs the benchmark suite, and diffs).  Every key
is what its artifact's ``schema`` block declares it to be
(:mod:`benchmarks.benchdiff`) — ``sim`` keys gate at the threshold in
their direction, ``count`` keys on any change, ``wall`` keys are
reported and never gate.  Exit code 1 when a gated key regressed, 2
(one line on stderr) when an artifact cannot be read or declares
nothing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if not __package__:  # run as a script: the repo root holds the package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.benchdiff import collect_benches, diff_benches, regressions, render_diff  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH_*.json file or directory")
    parser.add_argument("current", help="current BENCH_*.json file or directory")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="fractional change of a sim key that counts as a regression (default 0.05)",
    )
    parser.add_argument("--show-ok", action="store_true", help="also list unchanged metrics")
    args = parser.parse_args(argv)
    try:
        entries = diff_benches(
            collect_benches(args.baseline),
            collect_benches(args.current),
            threshold=args.threshold,
        )
    except (OSError, ValueError) as exc:
        print(f"check_bench_diff: {exc}", file=sys.stderr)
        return 2
    print(render_diff(entries, show_ok=args.show_ok))
    bad = regressions(entries)
    for entry in bad:
        print(f"regressed: {entry.describe()}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
