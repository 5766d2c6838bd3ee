"""The ``repro obs report`` dashboard: a run record → one text page.

A run leaves one record (:mod:`repro.obs.record`); this module folds
what :func:`~repro.obs.record.load_record` read back into the
operator's one-page view, one section per surface the record holds:

- **top flows by latency** — sampled root spans grouped per flow,
  ranked by worst simulated latency (falling back to modelled pipeline
  time for unloaded runs);
- **SLO attainment** — the latency distribution's target percentile
  against ``--slo-us``, with a PASS/FAIL verdict and the attainment
  fraction (share of packets inside the objective);
- **cycle attribution** — the per-stage/per-NF budget recovered from
  the spans' depth-1 children (the stage taxonomy of
  :func:`repro.obs.span.stage_of`);
- **audit summary** — per-kind decision counts plus the most recent
  event of each kind;
- **FT recovery** — one row per ``ft_failover_complete`` trail
  (restored/rebuilt/replayed/delivered and duration), with the
  kill/buffer/restore/replay event counts beside it, so an FT run is
  readable from the report alone;
- **health & SLO** — replica state transitions and burn-rate alerts
  (gen-3 windows), when a run emitted them;
- **telemetry windows** — the per-window table, when the run fed the
  windowed telemetry;
- **latency forensics** — component attribution and the worst-K tail
  table (see :mod:`repro.obs.forensics`);
- **metrics summary** — the registry, family-grouped (records written
  at ``--obs full``).

Everything here is pure functions over loaded dicts so the unit suite
drives it without a CLI round-trip; :func:`render_report` is what the
CLI subcommand prints.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.audit import summarize_events
from repro.stats.summary import percentile_sorted
from repro.stats.tables import format_table


def _flow_latencies(roots: Sequence[Dict[str, Any]]) -> Dict[int, Dict[str, float]]:
    """Per-flow packet counts and worst/total latency from root spans."""
    flows: Dict[int, Dict[str, float]] = {}
    for record in roots:
        args = record.get("args", {})
        fid = args.get("fid")
        if fid is None:
            continue
        latency = args.get("sim_latency_ns")
        if latency is None:
            latency = record.get("dur_ns", 0.0)
        entry = flows.get(fid)
        if entry is None:
            entry = flows[fid] = {"packets": 0, "worst_ns": 0.0, "total_ns": 0.0}
        entry["packets"] += 1
        entry["total_ns"] += latency
        if latency > entry["worst_ns"]:
            entry["worst_ns"] = latency
    return flows


def _span_roots(spans: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [record for record in spans if record.get("depth") == 0]


def render_top_flows(spans: Sequence[Dict[str, Any]], top: int = 5) -> str:
    """Top flows by worst observed latency, from sampled root spans."""
    flows = _flow_latencies(_span_roots(spans))
    if not flows:
        return "top flows\n(no spans recorded)"
    ranked = sorted(flows.items(), key=lambda item: -item[1]["worst_ns"])[:top]
    rows = [
        [
            f"flow:{fid}",
            int(entry["packets"]),
            f"{entry['worst_ns'] / 1000.0:.2f}",
            f"{entry['total_ns'] / entry['packets'] / 1000.0:.2f}",
        ]
        for fid, entry in ranked
    ]
    return format_table(
        ["flow", "packets", "worst us", "mean us"],
        rows,
        title=f"top {len(rows)} flows by latency",
    )


def render_slo(
    spans: Sequence[Dict[str, Any]],
    slo_us: Optional[float],
    percentile: float = 0.99,
) -> str:
    """SLO attainment for the sampled latency distribution."""
    latencies = []
    for record in _span_roots(spans):
        args = record.get("args", {})
        latency = args.get("sim_latency_ns")
        if latency is None:
            latency = record.get("dur_ns", 0.0)
        latencies.append(latency)
    if not latencies:
        return "SLO attainment\n(no spans recorded)"
    latencies.sort()
    target = percentile_sorted(latencies, percentile)
    lines = [
        "SLO attainment",
        f"  packets sampled : {len(latencies)}",
        f"  p{percentile * 100:g} latency    : {target / 1000.0:.2f} us",
    ]
    if slo_us is not None:
        slo_ns = slo_us * 1000.0
        inside = sum(1 for latency in latencies if latency <= slo_ns)
        attainment = inside / len(latencies)
        verdict = "PASS" if target <= slo_ns else "FAIL"
        lines.append(f"  objective       : {slo_us:.2f} us at p{percentile * 100:g}")
        lines.append(f"  attainment      : {100.0 * attainment:.2f}% of packets inside")
        lines.append(f"  verdict         : {verdict}")
    else:
        lines.append("  objective       : (none given — pass --slo-us to gate)")
    return "\n".join(lines)


def render_attribution_from_spans(spans: Sequence[Dict[str, Any]]) -> str:
    """Per-stage cycle budget recovered from depth-1 child spans."""
    stage_cycles: Dict[str, float] = {}
    order: List[str] = []
    packets = 0
    for record in spans:
        if record.get("depth") == 0:
            packets += 1
            continue
        if record.get("depth") != 1:
            continue
        args = record.get("args", {})
        stage = args.get("stage", "other")
        name = record.get("name", stage)
        key = name if stage in ("nf", "sf") else stage
        if key not in stage_cycles:
            stage_cycles[key] = 0.0
            order.append(key)
        stage_cycles[key] += args.get("cycles", 0.0)
    if not stage_cycles:
        return "cycle attribution\n(no spans recorded)"
    total = sum(stage_cycles.values())
    rows = [
        [
            key,
            f"{stage_cycles[key]:.0f}",
            f"{stage_cycles[key] / packets:.1f}" if packets else "-",
            f"{100.0 * stage_cycles[key] / total:.1f}%" if total else "-",
        ]
        for key in order
    ]
    rows.append(["total", f"{total:.0f}", f"{total / packets:.1f}" if packets else "-", "100.0%"])
    return format_table(
        ["stage", "cycles", "cycles/pkt", "share"],
        rows,
        title=f"cycle attribution ({packets} sampled packets)",
    )


def render_audit_summary(events: Sequence[Dict[str, Any]]) -> str:
    """Per-kind decision counts plus the log's last three events."""
    if not events:
        return "audit events\n(no events recorded)"
    counts = summarize_events(events)
    rows = [[kind, counts[kind]] for kind in sorted(counts)]
    table = format_table(
        ["event kind", "count"], rows, title=f"audit events ({len(events)} total)"
    )
    tail_lines = ["", "last events:"]
    for event in list(events)[-3:]:
        fields = {
            key: value
            for key, value in event.items()
            if key not in ("seq", "kind")
        }
        rendered = " ".join(f"{key}={value}" for key, value in sorted(fields.items()))
        tail_lines.append(f"  #{event.get('seq', '?')} {event.get('kind', '?')} {rendered}".rstrip())
    return table + "\n".join(tail_lines)


#: the per-failure FT audit trail, in choreography order
FT_TRAIL_KINDS = (
    "ft_checkpoint",
    "ft_kill",
    "ft_buffer",
    "ft_freeze_absorbed",
    "ft_restore",
    "ft_replay",
    "ft_failover_complete",
)
HEALTH_KINDS = ("health_degraded", "health_critical", "health_recovered")
SLO_KINDS = ("slo_burn_alert",)


def render_recovery_table(events: Sequence[Dict[str, Any]]) -> str:
    """One row per completed failover (``ft_failover_complete``): flows
    restored vs rebuilt, log packets replayed, buffered packets
    delivered, wall-clock cost — the table ``repro obs report`` and
    ``repro ft report`` both print."""
    rows = [
        [
            event.get("replica", "?"),
            event.get("flows_restored", 0),
            event.get("flows_rebuilt", 0),
            event.get("replayed", 0),
            event.get("delivered", 0),
            f"{event.get('duration_ms', 0.0):.2f}",
        ]
        for event in events
        if event.get("kind") == "ft_failover_complete"
    ]
    if not rows:
        return "recoveries\n(no failover completed in this run)"
    return format_table(
        ["replica", "restored", "rebuilt", "replayed", "delivered", "ms"],
        rows,
        title=f"recoveries ({len(rows)})",
    )


def render_ft_recovery(events: Sequence[Dict[str, Any]]) -> str:
    """FT event counts from ``ft_*`` audit kinds, and the recovery table
    when a failover completed."""
    ft_events = [e for e in events if str(e.get("kind", "")).startswith("ft_")]
    if not ft_events:
        return "fault tolerance\n(no ft_* events recorded)"
    counts: Dict[str, int] = {}
    for event in ft_events:
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1
    count_rows = [[kind, counts[kind]] for kind in FT_TRAIL_KINDS if kind in counts]
    for kind in sorted(counts):
        if kind not in FT_TRAIL_KINDS:
            count_rows.append([kind, counts[kind]])
    blocks = [
        format_table(
            ["ft event", "count"],
            count_rows,
            title=f"fault tolerance ({len(ft_events)} events)",
        )
    ]
    if "ft_failover_complete" in counts:
        blocks.append(render_recovery_table(ft_events))
    return "\n\n".join(blocks)


def render_health_slo(events: Sequence[Dict[str, Any]]) -> str:
    """Gen-3 health transitions and SLO burn alerts from the audit log."""
    health = [e for e in events if e.get("kind") in HEALTH_KINDS]
    alerts = [e for e in events if e.get("kind") in SLO_KINDS]
    if not health and not alerts:
        return "health & SLO\n(no health_*/slo_* events recorded)"
    lines = [f"health & SLO ({len(health)} transitions, {len(alerts)} alerts)"]
    for event in health:
        lines.append(
            f"  #{event.get('seq', '?')} {event.get('kind')} replica={event.get('replica')}"
            f" window={event.get('window')} score={event.get('score')}"
            f" reasons={event.get('reasons', '')}"
        )
    for event in alerts:
        lines.append(
            f"  #{event.get('seq', '?')} slo_burn_alert objective={event.get('objective')}"
            f" window={event.get('window')} burn={event.get('burn')}"
            f" bad={event.get('bad')}/{event.get('events')}"
        )
    return "\n".join(lines)


def render_metrics_summary(snapshot: Dict[str, float]) -> str:
    from repro.stats.metrics_view import render_metrics

    return render_metrics(snapshot, title=f"metrics ({len(snapshot)} series)")


def render_report(
    metrics: Optional[Dict[str, float]] = None,
    spans: Optional[Sequence[Dict[str, Any]]] = None,
    audit: Optional[Sequence[Dict[str, Any]]] = None,
    slo_us: Optional[float] = None,
    percentile: float = 0.99,
    top: int = 5,
    windows: Optional[Sequence[Dict[str, Any]]] = None,
    forensics: Optional[Dict[str, Any]] = None,
) -> str:
    """The full dashboard; sections appear for the artifacts provided."""
    blocks: List[str] = ["repro obs report\n================"]
    if spans is not None:
        blocks.append(render_top_flows(spans, top=top))
        blocks.append(render_slo(spans, slo_us, percentile=percentile))
        blocks.append(render_attribution_from_spans(spans))
    if audit is not None:
        blocks.append(render_audit_summary(audit))
        kinds = {event.get("kind") for event in audit}
        if any(str(kind).startswith("ft_") for kind in kinds):
            blocks.append(render_ft_recovery(audit))
        if kinds & (set(HEALTH_KINDS) | set(SLO_KINDS)):
            blocks.append(render_health_slo(audit))
    if windows is not None:
        from repro.obs.timeseries import render_windows

        blocks.append(render_windows(windows, title=f"telemetry windows ({len(windows)})"))
    if forensics is not None:
        from repro.obs.forensics import render_forensics

        blocks.append(render_forensics(forensics, top=top))
    if metrics is not None:
        blocks.append(render_metrics_summary(metrics))
    if len(blocks) == 1:
        blocks.append("(the record holds no surface this report renders)")
    return "\n\n".join(blocks)
