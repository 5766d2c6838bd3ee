"""The ``repro ft report`` page: a recovery run's record → one view.

Folds the audit journal (and, from a record written at ``--obs full``,
the metrics) of a fault-tolerant run into an operator's recovery
post-mortem:

- **failure timeline** — every kill / buffer / restore / replay /
  failover-complete event in order, with its headline fields;
- **recovery table** — one row per failover: flows restored vs rebuilt,
  log packets replayed, buffered packets delivered, wall-clock cost;
- **checkpoint cadence** — rounds taken per cause (interval, pressure,
  post-recovery, migration) and flows captured;
- the standard audit + metrics summaries from ``repro obs report``.

Pure functions over loaded dicts, same contract as
:mod:`repro.obs.report` — :func:`repro.obs.record.load_record` does the
file I/O.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.report import (
    render_audit_summary,
    render_metrics_summary,
    render_recovery_table,
)
from repro.stats.tables import format_table

#: the event kinds that tell the failure story, in the timeline section
TIMELINE_KINDS = (
    "ft_kill",
    "ft_freeze_absorbed",
    "ft_restore",
    "ft_replay",
    "ft_failover_complete",
)


def render_failure_timeline(events: Sequence[Dict[str, Any]]) -> str:
    """The ordered story of every failure in the run (its first 30 events)."""
    limit = 30
    story = [event for event in events if event.get("kind") in TIMELINE_KINDS]
    if not story:
        return "failure timeline\n(no fault-tolerance events recorded)"
    lines = [f"failure timeline ({len(story)} events)"]
    shown = story if len(story) <= limit else story[:limit]
    for event in shown:
        fields = {
            key: value
            for key, value in event.items()
            if key not in ("seq", "kind")
        }
        rendered = " ".join(f"{key}={value}" for key, value in sorted(fields.items()))
        lines.append(f"  #{event.get('seq', '?')} {event['kind']} {rendered}".rstrip())
    if len(story) > limit:
        lines.append(f"  ... and {len(story) - limit} more")
    return "\n".join(lines)


def render_checkpoint_cadence(events: Sequence[Dict[str, Any]]) -> str:
    """Checkpoint rounds and captured flows, grouped by cause."""
    by_cause: Dict[str, List[int]] = {}
    for event in events:
        if event.get("kind") != "ft_checkpoint":
            continue
        by_cause.setdefault(str(event.get("cause", "?")), []).append(
            int(event.get("flows", 0))
        )
    if not by_cause:
        return "checkpoints\n(no checkpoints recorded)"
    rows = [
        [cause, len(flows), sum(flows)] for cause, flows in sorted(by_cause.items())
    ]
    total = sum(len(flows) for flows in by_cause.values())
    return format_table(
        ["cause", "rounds", "flows captured"],
        rows,
        title=f"checkpoints ({total} rounds)",
    )


def render_ft_report(
    audit: Sequence[Dict[str, Any]],
    metrics: Optional[Dict[str, float]] = None,
) -> str:
    """The full recovery post-mortem page."""
    blocks: List[str] = ["repro ft report\n==============="]
    blocks.append(render_failure_timeline(audit))
    blocks.append(render_recovery_table(audit))
    blocks.append(render_checkpoint_cadence(audit))
    blocks.append(render_audit_summary(audit))
    if metrics is not None:
        blocks.append(render_metrics_summary(metrics))
    return "\n\n".join(blocks)
