"""Compare two ledgers: ``python -m bench.compare A.json B.json``.

A and B are ``--out`` files of ``bench.run`` for the same seed; B is
judged against A.  Per workload and end-to-end metric it prints both
values, the relative difference (positive = B worse), the bound from
``BENCHMARK.json`` and a verdict:

- ``same`` / ``better`` / ``worse`` — within, beyond in B's favour, or
  beyond against B, the metric's bound;
- ``unresolved`` — a ledger's own repeats spread (IQR / median) wider
  than the bound, so the difference says nothing either way;
- ``mismatch`` — a simulated metric differs at all.  Simulated results
  are an exact function of (workload, cost model, seed): they are held
  to 1e-9 relative, not to the bound, and ``sim_digest`` to equality.

Exit status is 1 on any ``worse`` or ``mismatch`` and on a higher
``failed_share``; otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIM_TOLERANCE = 1e-9


def verdict(metric: dict, a: float, b: float, spread: float) -> tuple:
    """(relative difference with positive = B worse, verdict)."""
    worse_by = (b - a) / abs(a) if a else 0.0
    if metric["better"] == "higher":
        worse_by = -worse_by
    if metric["name"].startswith("sim_"):
        return worse_by, "same" if abs(worse_by) <= SIM_TOLERANCE else "mismatch"
    if spread > metric["bound"]:
        return worse_by, "unresolved"
    if worse_by > metric["bound"]:
        return worse_by, "worse"
    if worse_by < -metric["bound"]:
        return worse_by, "better"
    return worse_by, "same"


def compare(a: dict, b: dict, spec: dict) -> List[str]:
    """Print the table; return the reasons B does not hold up against A."""
    problems = []
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        problems.append(
            f"different inputs: seed {a['seed']} scale {a['scale']} "
            f"vs seed {b['seed']} scale {b['scale']}"
        )
    print(f"{'workload':<13} {'metric':<22} {'A':>13} {'B':>13} {'B worse by':>11} "
          f"{'bound':>7}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            problems.append(f"{name}: missing from B")
            continue
        one, other = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            first, second = one["end_to_end"][key]["value"], other["end_to_end"][key]["value"]
            spread = max(one["spreads"].get(key, 0.0), other["spreads"].get(key, 0.0))
            worse_by, word = verdict(metric, first, second, spread)
            print(f"{name:<13} {key:<22} {first:>13.6g} {second:>13.6g} {worse_by:>+11.2%} "
                  f"{metric['bound']:>7.0%}  {word}")
            if word in ("worse", "mismatch"):
                problems.append(f"{name}: {key} {word} ({first!r} -> {second!r})")
        same_digest = one["sim_digest"] == other["sim_digest"]
        print(f"{name:<13} {'sim_digest':<22} {one['sim_digest'][:13]:>13} "
              f"{other['sim_digest'][:13]:>13} {'':>11} {'':>7}  "
              f"{'same' if same_digest else 'mismatch'}")
        if not same_digest:
            problems.append(f"{name}: sim_digest mismatch")
        shares = [entry["failed"] / entry["attempted"] for entry in (one, other)]
        print(f"{name:<13} {'failed_share':<22} {shares[0]:>13.6g} {shares[1]:>13.6g} "
              f"{'':>11} {0:>7.0%}  {'worse' if shares[1] > shares[0] else 'same'}")
        if shares[1] > shares[0]:
            problems.append(f"{name}: failed_share rose from {shares[0]} to {shares[1]}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    problems = compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()), spec)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
