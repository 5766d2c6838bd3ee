"""BENCH_*.json regression differ (obs gen-3 tooling).

Every benchmark writes a flat ``BENCH_<experiment>.json`` artifact at
the repo root; those files are the perf trajectory of the project.
This module diffs two such artifacts (or two directories of them) and
classifies every metric change:

- each key gets a **direction** from its name — timing/latency/loss
  keys are lower-is-better, throughput/speedup/hit keys are
  higher-is-better, everything else is direction-neutral;
- a change beyond ``threshold`` against the key's good direction is a
  **regression**; beyond it in the good direction, an **improvement**;
  neutral keys only ever *change*;
- wall-clock keys (matched by ``ignore``) are reported but never gate —
  CI runners differ too much for absolute seconds to be comparable.

``repro obs diff`` renders the result for humans;
``benchmarks/check_bench_diff.py`` turns regressions into a CI exit
code against the committed baselines.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: lower-is-better key patterns (timing, latency, loss, memory)
_LOWER_BETTER = re.compile(
    r"(_ns$|_ns_per_packet$|_us$|_ms$|latency|p50|p99|p999|dropped|drops|"
    r"loss|overhead|_rss|aborts|replay_depth|recovery|lane_compiles|lane_invalidations|"
    r"_calls$)"
)
#: higher-is-better key patterns (rates, ratios, speedups)
_HIGHER_BETTER = re.compile(r"(mpps|throughput|speedup|_hit|delivered|compliance|survived)")
#: wall-clock-derived keys: reported, never gated (runner-dependent —
#: absolute seconds, overhead ratios, speedups and RSS all move with
#: the machine, while sim-time metrics are deterministic)
DEFAULT_IGNORE = r"(_s$|_secs$|wallclock|_seconds$|overhead|_rss|speedup|ns_per_packet)"


@dataclass(frozen=True)
class DiffEntry:
    """One metric's change between baseline and current."""

    experiment: str
    key: str
    baseline: Optional[float]
    current: Optional[float]
    delta_fraction: Optional[float]  # (current - baseline) / |baseline|
    direction: str                   # "lower", "higher", "neutral"
    status: str                      # "ok", "regression", "improvement",
                                     # "changed", "added", "removed", "ignored"

    def describe(self) -> str:
        base = "-" if self.baseline is None else f"{self.baseline:g}"
        cur = "-" if self.current is None else f"{self.current:g}"
        delta = (
            "-" if self.delta_fraction is None else f"{self.delta_fraction:+.1%}"
        )
        return f"{self.experiment}:{self.key} {base} -> {cur} ({delta}) [{self.status}]"


def direction_of(key: str) -> str:
    lowered = key.lower()
    if _LOWER_BETTER.search(lowered):
        return "lower"
    if _HIGHER_BETTER.search(lowered):
        return "higher"
    return "neutral"


def load_bench(path) -> Tuple[str, Dict[str, float]]:
    """Read one BENCH_*.json; returns (experiment, metrics)."""
    payload = json.loads(Path(path).read_text())
    experiment = payload.get("experiment") or Path(path).stem.replace("BENCH_", "")
    metrics = payload.get("metrics", {})
    return experiment, {k: v for k, v in metrics.items() if isinstance(v, (int, float))}


def collect_benches(path) -> Dict[str, Dict[str, float]]:
    """Map experiment -> metrics for a file or a directory of files."""
    p = Path(path)
    if p.is_dir():
        out: Dict[str, Dict[str, float]] = {}
        for child in sorted(p.glob("BENCH_*.json")):
            experiment, metrics = load_bench(child)
            out[experiment] = metrics
        return out
    experiment, metrics = load_bench(p)
    return {experiment: metrics}


def diff_metrics(
    experiment: str,
    baseline: Dict[str, float],
    current: Dict[str, float],
    threshold: float = 0.05,
    ignore: Optional[str] = DEFAULT_IGNORE,
) -> List[DiffEntry]:
    """Classify every key of one experiment pair."""
    ignore_re = re.compile(ignore) if ignore else None
    entries: List[DiffEntry] = []
    for key in sorted(set(baseline) | set(current)):
        base = baseline.get(key)
        cur = current.get(key)
        direction = direction_of(key)
        if base is None:
            entries.append(DiffEntry(experiment, key, None, cur, None, direction, "added"))
            continue
        if cur is None:
            entries.append(DiffEntry(experiment, key, base, None, None, direction, "removed"))
            continue
        if base == cur:
            delta = 0.0
        elif base == 0 or not math.isfinite(base):
            delta = math.inf if cur > base else -math.inf
        else:
            delta = (cur - base) / abs(base)
        if ignore_re is not None and ignore_re.search(key.lower()):
            status = "ignored" if delta else "ok"
        elif abs(delta) <= threshold:
            status = "ok"
        elif direction == "lower":
            status = "regression" if delta > 0 else "improvement"
        elif direction == "higher":
            status = "regression" if delta < 0 else "improvement"
        else:
            status = "changed"
        entries.append(DiffEntry(experiment, key, base, cur, delta, direction, status))
    return entries


def diff_benches(
    baseline: Dict[str, Dict[str, float]],
    current: Dict[str, Dict[str, float]],
    threshold: float = 0.05,
    ignore: Optional[str] = DEFAULT_IGNORE,
) -> List[DiffEntry]:
    """Diff two experiment->metrics maps (only experiments in both gate)."""
    entries: List[DiffEntry] = []
    for experiment in sorted(set(baseline) | set(current)):
        base = baseline.get(experiment)
        cur = current.get(experiment)
        if base is None or cur is None:
            side = "added" if base is None else "removed"
            for key in sorted((cur or base) or {}):
                value = (cur or base)[key]
                entries.append(
                    DiffEntry(
                        experiment,
                        key,
                        None if base is None else value,
                        None if cur is None else value,
                        None,
                        direction_of(key),
                        side,
                    )
                )
            continue
        entries.extend(diff_metrics(experiment, base, cur, threshold, ignore))
    return entries


def regressions(entries: List[DiffEntry]) -> List[DiffEntry]:
    return [entry for entry in entries if entry.status == "regression"]


def render_diff(
    entries: List[DiffEntry],
    title: str = "bench diff",
    show_ok: bool = False,
) -> str:
    """Aligned table of the diff, regressions first."""
    from repro.stats.tables import format_table

    order = {"regression": 0, "changed": 1, "improvement": 2, "added": 3,
             "removed": 4, "ignored": 5, "ok": 6}
    visible = [e for e in entries if show_ok or e.status != "ok"]
    visible.sort(key=lambda e: (order.get(e.status, 9), e.experiment, e.key))
    rows = []
    for entry in visible:
        rows.append(
            [
                entry.experiment,
                entry.key,
                "-" if entry.baseline is None else f"{entry.baseline:g}",
                "-" if entry.current is None else f"{entry.current:g}",
                "-" if entry.delta_fraction is None else f"{entry.delta_fraction:+.1%}",
                entry.direction,
                entry.status,
            ]
        )
    if not rows:
        rows.append(["-", "(no changes)", "-", "-", "-", "-", "ok"])
    return format_table(
        ["experiment", "metric", "baseline", "current", "delta", "dir", "status"],
        rows,
        title=title,
    )
