"""BENCH_*.json regression differ.

Every benchmark writes a flat ``BENCH_<experiment>.json`` artifact at
the repo root; those files are the perf trajectory of the project.
Each value in one carries its declaration — the artifact's ``schema``
block, written by ``benchmarks/harness.py::save_result`` next to
``metrics`` — and this module reads what a key is from there and from
nowhere else; a key's name means nothing to it.  A declaration is a
*kind* and a *direction* (``lower`` / ``higher`` is better, or ``none``):

- ``sim`` — a deterministic simulated quantity.  A change beyond
  ``threshold`` against its direction is a **regression**, beyond it
  in the good direction an **improvement**; with no direction it only
  ever *changes*;
- ``count`` — an exact integer.  Any change at all classifies the same
  way, whatever the threshold;
- ``wall`` — host time, RSS and ratios of host times.  Reported, never
  gated: runners differ too much for them to be comparable, and host
  time has its own calibrated, paired instrument under ``bench/``.

``benchmarks/check_bench_diff.py`` renders the result and turns
regressions into an exit code — the CI gate, against the committed
baselines; ``benchmarks/harness.py`` writes the declarations it reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

KINDS = ("sim", "count", "wall")
DIRECTIONS = ("lower", "higher", "none")


class Metric(NamedTuple):
    """One benchmark value with its declaration."""

    value: float
    kind: str       # one of KINDS
    direction: str  # one of DIRECTIONS


@dataclass(frozen=True)
class DiffEntry:
    """One metric's change between baseline and current."""

    experiment: str
    key: str
    baseline: Optional[float]
    current: Optional[float]
    delta_fraction: Optional[float]  # (current - baseline) / |baseline|
    kind: str
    direction: str
    status: str                      # "ok", "regression", "improvement",
                                     # "changed", "added", "removed", "ignored"

    def describe(self) -> str:
        base = "-" if self.baseline is None else f"{self.baseline:g}"
        cur = "-" if self.current is None else f"{self.current:g}"
        delta = (
            "-" if self.delta_fraction is None else f"{self.delta_fraction:+.1%}"
        )
        return f"{self.experiment}:{self.key} {base} -> {cur} ({delta}) [{self.status}]"


def load_bench(path) -> Tuple[str, Dict[str, Metric]]:
    """Read one BENCH_*.json; returns ``(experiment, {key: Metric})``.

    ``ValueError`` for an artifact that does not declare exactly the
    keys it holds, each with a known kind and direction.
    """
    payload = json.loads(Path(path).read_text())
    experiment = payload.get("experiment") or Path(path).stem.replace("BENCH_", "")
    metrics = payload.get("metrics", {})
    schema = payload.get("schema")
    if schema is None:
        raise ValueError(f"{path} has no schema block: regenerate it with its benchmark")
    if set(schema) != set(metrics):
        odd = sorted(set(schema) ^ set(metrics))
        raise ValueError(f"{path}: metrics and schema disagree on {', '.join(odd)}")
    out = {}
    for key, value in metrics.items():
        declared = schema[key]
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not isinstance(declared, dict)
            or declared.get("kind") not in KINDS
            or declared.get("direction") not in DIRECTIONS
        ):
            raise ValueError(f"{path}: bad value or declaration for {key}: {value!r}, {declared!r}")
        out[key] = Metric(value, declared["kind"], declared["direction"])
    return experiment, out


def collect_benches(path) -> Dict[str, Dict[str, Metric]]:
    """Map experiment -> declared metrics for a file or a directory of files."""
    p = Path(path)
    files = sorted(p.glob("BENCH_*.json")) if p.is_dir() else [p]
    return dict(load_bench(child) for child in files)


def diff_metrics(
    experiment: str,
    baseline: Dict[str, Metric],
    current: Dict[str, Metric],
    threshold: float = 0.05,
) -> List[DiffEntry]:
    """Classify every key of one experiment pair (a key present on both
    sides is what the current artifact declares it to be)."""
    entries: List[DiffEntry] = []
    for key in sorted(set(baseline) | set(current)):
        base = baseline.get(key)
        cur = current.get(key)
        __, kind, direction = cur or base
        if base is None or cur is None:
            entries.append(
                DiffEntry(
                    experiment,
                    key,
                    None if base is None else base.value,
                    None if cur is None else cur.value,
                    None,
                    kind,
                    direction,
                    "added" if base is None else "removed",
                )
            )
            continue
        base, cur = base.value, cur.value
        if base == cur:
            delta = 0.0
        elif base == 0 or not math.isfinite(base):
            delta = math.inf if cur > base else -math.inf
        else:
            delta = (cur - base) / abs(base)
        if kind == "wall":
            status = "ignored" if delta else "ok"
        elif delta == 0 or (kind == "sim" and abs(delta) <= threshold):
            status = "ok"
        elif direction == "none":
            status = "changed"
        elif (delta > 0) == (direction == "lower"):
            status = "regression"
        else:
            status = "improvement"
        entries.append(DiffEntry(experiment, key, base, cur, delta, kind, direction, status))
    return entries


def diff_benches(
    baseline: Dict[str, Dict[str, Metric]],
    current: Dict[str, Dict[str, Metric]],
    threshold: float = 0.05,
) -> List[DiffEntry]:
    """Diff two experiment->metrics maps; an experiment only one side
    has is all added / removed keys, which never gate."""
    entries: List[DiffEntry] = []
    for experiment in sorted(set(baseline) | set(current)):
        entries.extend(
            diff_metrics(
                experiment, baseline.get(experiment, {}), current.get(experiment, {}), threshold
            )
        )
    return entries


def regressions(entries: List[DiffEntry]) -> List[DiffEntry]:
    return [entry for entry in entries if entry.status == "regression"]


def render_diff(
    entries: List[DiffEntry],
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
                entry.kind,
                entry.direction,
                entry.status,
            ]
        )
    if not rows:
        rows.append(["-", "(no changes)", "-", "-", "-", "-", "-", "ok"])
    return format_table(
        ["experiment", "metric", "baseline", "current", "delta", "kind", "dir", "status"],
        rows,
        title="bench diff",
    )
