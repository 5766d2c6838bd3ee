"""Rendering metrics snapshots as text tables.

:meth:`repro.obs.MetricsRegistry.snapshot` produces a flat
``name{label=value} -> value`` dict; these helpers turn one into the
same aligned, diff-friendly text the benchmark tables use, sorted by
metric family.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.stats.tables import format_table


def _family(key: str) -> str:
    return key.split("{", 1)[0]


def snapshot_rows(snapshot: Dict[str, float]) -> List[Tuple[str, float]]:
    """Snapshot entries sorted by family then full series name."""
    return sorted(snapshot.items(), key=lambda item: (_family(item[0]), item[0]))


def render_metrics(snapshot: Dict[str, float], title: str = "metrics") -> str:
    """A metrics snapshot as an aligned two-column text table."""
    if not snapshot:
        return f"{title}\n(no metrics recorded)"
    return format_table(["metric", "value"], snapshot_rows(snapshot), title=title)
