"""CI perf gate: diff fresh BENCH_*.json artifacts against baselines.

Usage::

    PYTHONPATH=src python benchmarks/check_bench_diff.py BASELINE CURRENT \
        [--threshold 0.05] [--show-ok]

``BASELINE`` and ``CURRENT`` are each a ``BENCH_*.json`` file or a
directory of them (the repo root holds the committed baselines; a CI
run stashes them, re-runs the benchmark suite, and diffs).  This is
``repro obs diff`` with positional arguments: every key is what its
artifact's ``schema`` block declares it to be — ``sim`` keys gate at
the threshold in their direction, ``count`` keys on any change, ``wall``
keys are reported and never gate.  Exit code 1 when a gated key
regressed, 2 (one line on stderr) when an artifact cannot be read or
declares nothing.
"""

from __future__ import annotations

import argparse

from repro.cli import main as repro_main


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
    command = ["obs", "diff", "--baseline", args.baseline, "--current", args.current]
    command += ["--threshold", str(args.threshold)] + ["--show-ok"] * args.show_ok
    return repro_main(command)


if __name__ == "__main__":
    raise SystemExit(main())
