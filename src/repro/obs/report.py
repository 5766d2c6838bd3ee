"""``repro obs report``: a run record → one text page.

A run leaves one record (:mod:`repro.obs.record`); this module lays out
everything :func:`~repro.obs.record.load_record` read back on one page,
one section per question, in this order:

1. **spans** — top flows by latency (sampled root spans grouped per
   flow, ranked by worst simulated latency, falling back to modelled
   pipeline time for unloaded runs); SLO attainment (the target
   percentile against ``--slo-us``, a PASS/FAIL verdict and the share of
   packets inside the objective); cycle attribution (the per-stage/per-NF
   budget recovered from the spans' depth-1 children, in the stage
   taxonomy of :func:`repro.obs.span.stage_of`);
2. **audit summary** — per-kind decision counts and the journal's last
   three events;
3. **timeline** — the journal's story (failures, health transitions, SLO
   burn alerts, latency regime shifts) in ascending ``seq``, the one
   causal order a record has; a long story keeps its first and last
   events and says how many it leaves out;
4. **fault tolerance** — one row per completed failover, and the
   checkpoint rounds per cause;
5. **telemetry windows** — the per-window table;
6. **latency forensics** — component attribution, the worst-K tail table
   and the stall charges (see :mod:`repro.obs.forensics`);
7. **metrics** — the registry, family-grouped (records written at
   ``--obs full``).

A surface the record does not hold renders as one ``(not fed)`` line.
Everything here is pure functions over loaded rows, so the unit suite
drives it without a CLI round-trip; :func:`render_report` is the page.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.audit import summarize_events
from repro.obs.forensics import COMPONENTS
from repro.obs.record import RunRecord
from repro.stats.summary import percentile_sorted
from repro.stats.tables import format_table

#: the journal's story: what the timeline lists
STORY_KINDS = frozenset({
    "ft_kill",
    "ft_freeze_absorbed",
    "ft_restore",
    "ft_replay",
    "ft_failover_complete",
    "ft_log_overflow",
    "health_degraded",
    "health_critical",
    "health_recovered",
    "slo_burn_alert",
    "latency_regime_shift",
})
#: a longer story shows its first ``TIMELINE_HEAD`` and last ``TIMELINE_TAIL`` events
TIMELINE_HEAD, TIMELINE_TAIL = 20, 10


def _not_fed(title: str) -> str:
    return f"{title} (not fed)"


def _us(value: Optional[float]) -> str:
    return "-" if value is None else f"{value / 1000.0:.2f}"


def _event_line(event: Dict[str, Any]) -> str:
    fields = " ".join(
        f"{key}={value}" for key, value in sorted(event.items()) if key not in ("seq", "kind")
    )
    return f"  #{event.get('seq', '?')} {event.get('kind', '?')} {fields}".rstrip()


# -- spans -----------------------------------------------------------------------


def _root_latencies(spans: Sequence[Dict[str, Any]]):
    """``(fid, latency ns)`` per sampled root span."""
    for record in spans:
        if record.get("depth") != 0:
            continue
        args = record.get("args", {})
        latency = args.get("sim_latency_ns")
        yield args.get("fid"), record.get("dur_ns", 0.0) if latency is None else latency


def render_top_flows(spans: Sequence[Dict[str, Any]], top: int) -> str:
    """Top flows by worst observed latency, from sampled root spans."""
    flows: Dict[int, Dict[str, float]] = {}
    for fid, latency in _root_latencies(spans):
        if fid is None:
            continue
        entry = flows.setdefault(fid, {"packets": 0, "worst_ns": 0.0, "total_ns": 0.0})
        entry["packets"] += 1
        entry["total_ns"] += latency
        entry["worst_ns"] = max(entry["worst_ns"], latency)
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
    spans: Sequence[Dict[str, Any]], slo_us: Optional[float], percentile: float
) -> str:
    """SLO attainment for the sampled latency distribution."""
    latencies = sorted(latency for __, latency in _root_latencies(spans))
    if not latencies:
        return "SLO attainment\n(no spans recorded)"
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
    packets = 0
    for record in spans:
        if record.get("depth") == 0:
            packets += 1
            continue
        if record.get("depth") != 1:
            continue
        args = record.get("args", {})
        stage = args.get("stage", "other")
        key = record.get("name", stage) if stage in ("nf", "sf") else stage
        stage_cycles[key] = stage_cycles.get(key, 0.0) + args.get("cycles", 0.0)
    if not stage_cycles:
        return "cycle attribution\n(no spans recorded)"
    total = sum(stage_cycles.values())
    rows = [
        [
            key,
            f"{cycles:.0f}",
            f"{cycles / packets:.1f}" if packets else "-",
            f"{100.0 * cycles / total:.1f}%" if total else "-",
        ]
        for key, cycles in stage_cycles.items()
    ]
    rows.append(["total", f"{total:.0f}", f"{total / packets:.1f}" if packets else "-", "100.0%"])
    return format_table(
        ["stage", "cycles", "cycles/pkt", "share"],
        rows,
        title=f"cycle attribution ({packets} sampled packets)",
    )


# -- the audit journal -----------------------------------------------------------


def render_audit_summary(events: Sequence[Dict[str, Any]]) -> str:
    """Per-kind decision counts plus the log's last three events."""
    counts = summarize_events(events)
    rows = [[kind, counts[kind]] for kind in sorted(counts)]
    table = format_table(
        ["event kind", "count"], rows, title=f"audit events ({len(events)} total)"
    )
    tail = [_event_line(event) for event in list(events)[-3:]]
    return table + "\n".join(["", "last events:", *tail])


def render_timeline(events: Sequence[Dict[str, Any]]) -> str:
    """The journal's story events in ascending ``seq``, bounded."""
    story = sorted(
        (event for event in events if event.get("kind") in STORY_KINDS),
        key=lambda event: event.get("seq", 0),
    )
    if not story:
        return "timeline\n(no failure, health, SLO or regime-shift event in the journal)"
    lines = [f"timeline ({len(story)} events)"]
    if len(story) <= TIMELINE_HEAD + TIMELINE_TAIL:
        lines.extend(_event_line(event) for event in story)
        return "\n".join(lines)
    left_out = story[TIMELINE_HEAD:-TIMELINE_TAIL]
    lines.extend(_event_line(event) for event in story[:TIMELINE_HEAD])
    lines.append(
        f"  ... {len(left_out)} events left out "
        f"(#{left_out[0].get('seq', '?')} to #{left_out[-1].get('seq', '?')})"
    )
    lines.extend(_event_line(event) for event in story[-TIMELINE_TAIL:])
    return "\n".join(lines)


def render_recovery_table(events: Sequence[Dict[str, Any]]) -> str:
    """One row per completed failover (``ft_failover_complete``): flows
    restored vs rebuilt, log packets replayed, buffered packets
    delivered, simulated recovery time."""
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


def render_checkpoint_cadence(events: Sequence[Dict[str, Any]]) -> str:
    """Checkpoint rounds and captured flows, grouped by cause."""
    by_cause: Dict[str, List[int]] = {}
    for event in events:
        if event.get("kind") == "ft_checkpoint":
            by_cause.setdefault(str(event.get("cause", "?")), []).append(
                int(event.get("flows", 0))
            )
    if not by_cause:
        return "checkpoints\n(no checkpoints recorded)"
    rows = [[cause, len(flows), sum(flows)] for cause, flows in sorted(by_cause.items())]
    total = sum(len(flows) for flows in by_cause.values())
    return format_table(
        ["cause", "rounds", "flows captured"],
        rows,
        title=f"checkpoints ({total} rounds)",
    )


# -- windows, forensics, metrics -------------------------------------------------


def render_windows(rows: Sequence[Dict[str, Any]]) -> str:
    """The telemetry windows as an aligned table."""
    table_rows = [
        [
            row.get("index"),
            "-" if row.get("start_ns") is None else f"{row['start_ns']:.0f}",
            row.get("packets", 0),
            row.get("drops", 0),
            row.get("buffered", 0),
            _us(row.get("p50_ns")),
            _us(row.get("p99_ns")),
            "-" if row.get("rate_pps") is None else f"{row['rate_pps'] / 1e6:.3f}",
        ]
        for row in rows
    ]
    return format_table(
        ["win", "start_ns", "pkts", "drop", "buf", "p50_us", "p99_us", "Mpps"],
        table_rows,
        title=f"telemetry windows ({len(rows)})",
    )


def render_forensics(data: Dict[str, Any], top: int) -> str:
    """Component attribution, the worst-K packets and the stall charges."""
    summary = data.get("summary", {})
    components = summary.get("components", {})
    total = sum(components.get(name, 0.0) for name in COMPONENTS)
    blocks = [
        f"latency forensics ({summary.get('packets', 0)} packets, "
        f"{summary.get('sampled', 0)} decomposed, "
        f"{summary.get('stall_records', 0)} stall charges, "
        f"{summary.get('regime_shifts', 0)} regime shifts)"
    ]
    if components:
        rows = [
            [
                name,
                f"{components.get(name, 0.0) / 1e6:.3f}",
                f"{100.0 * components.get(name, 0.0) / total:.1f}%" if total else "-",
            ]
            for name in COMPONENTS
        ]
        blocks.append(
            format_table(["component", "total ms", "share"], rows,
                         title="component attribution (sampled)")
        )
    worst = sorted(data.get("worst", []), key=lambda r: -(r.get("latency_ns") or 0.0))[:top]
    if worst:
        rows = [
            [
                record.get("index"),
                "-" if record.get("fid") is None else record.get("fid"),
                "-" if record.get("replica") is None else str(record.get("replica")),
                _us(record.get("latency_ns")),
                _us(record.get("queue_ns")),
                _us(record.get("service_ns")),
                _us(record.get("transfer_ns")),
                _us(record.get("stall_ns")),
                record.get("dominant", "-"),
            ]
            for record in worst
        ]
        blocks.append(
            format_table(
                ["pkt", "flow", "replica", "lat us", "queue", "service",
                 "transfer", "stall", "dominant"],
                rows,
                title=f"worst {len(rows)} packets",
            )
        )
    stalls = data.get("stalls", [])
    if stalls:
        dominant = sum(1 for stall in stalls if stall.get("dominant") == "stall")
        worst_stall = max(stalls, key=lambda stall: stall.get("stall_ns") or 0.0)
        blocks.append("\n".join([
            f"stall charges ({len(stalls)} packets)",
            f"  stall-dominant  : {dominant}/{len(stalls)} packets",
            f"  worst stall     : {_us(worst_stall.get('stall_ns'))} us "
            f"(flow {worst_stall.get('flow')}, cause {worst_stall.get('cause')})",
        ]))
    return "\n\n".join(blocks)


def render_metrics_summary(snapshot: Dict[str, float]) -> str:
    from repro.stats.metrics_view import render_metrics

    return render_metrics(snapshot, title=f"metrics ({len(snapshot)} series)")


def render_report(
    record: RunRecord, *, slo_us: Optional[float], percentile: float, top: int
) -> str:
    """The whole page for a loaded record."""
    blocks: List[str] = ["repro obs report\n================"]
    if record.spans is None:
        blocks.append(_not_fed("spans"))
    else:
        blocks.append(render_top_flows(record.spans, top))
        blocks.append(render_slo(record.spans, slo_us, percentile))
        blocks.append(render_attribution_from_spans(record.spans))
    audit = record.audit
    if audit is None:
        blocks.append(_not_fed("audit events"))
    else:
        blocks.append(render_audit_summary(audit))
        blocks.append(render_timeline(audit))
        if any(event.get("kind") in ("ft_failover_complete", "ft_checkpoint") for event in audit):
            blocks.append(render_recovery_table(audit))
            blocks.append(render_checkpoint_cadence(audit))
        else:
            blocks.append("fault tolerance\n(no failover or checkpoint in the journal)")
    if record.timeseries is None:
        blocks.append(_not_fed("telemetry windows"))
    else:
        blocks.append(render_windows(record.timeseries))
    if record.forensics is None:
        blocks.append(_not_fed("latency forensics"))
    else:
        blocks.append(render_forensics(record.forensics, top))
    if record.metrics is None:
        blocks.append(_not_fed("metrics"))
    else:
        blocks.append(render_metrics_summary(record.metrics))
    return "\n\n".join(blocks)
