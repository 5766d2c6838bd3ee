"""Human-readable dumps of SpeedyBox's runtime state.

The operational equivalent of ``ovs-dpctl dump-flows``: render the Global
MAT's consolidated rules, each flow's action summary, state-function
schedule and event status — the view an operator (or a debugging test)
wants when asking "what will the fast path do to this flow?".
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.consolidation import ConsolidatedAction
from repro.core.framework import SpeedyBox
from repro.core.global_mat import GlobalRule
from repro.net.addresses import ip_to_str


def describe_action(action: ConsolidatedAction) -> str:
    """One-line rendering of a consolidated header action."""
    if action.drop:
        return "drop"
    parts: List[str] = []
    if action.leading_decaps:
        parts.append(f"decap x{len(action.leading_decaps)}")
    for field, op in sorted(action.field_ops.items(), key=lambda kv: kv[0].value):
        if op.set_value is not None:
            if field.value in ("src_ip", "dst_ip"):
                rendered = ip_to_str(op.set_value + op.delta)
            else:
                rendered = str(op.apply(0))
            parts.append(f"set {field.value}={rendered}")
        else:
            parts.append(f"adjust {field.value}{op.delta:+d}")
    for encap in action.net_encaps:
        parts.append(f"encap {type(encap.template).__name__}")
    return ", ".join(parts) if parts else "forward"


def describe_schedule(rule: GlobalRule) -> str:
    """The SF schedule as wave groups: [a+b] -> [c]."""
    waves = []
    for wave in rule.schedule.waves:
        members = "+".join(f"{batch.nf_name}.{batch.functions[0].name}" if len(batch) == 1
                           else f"{batch.nf_name}(x{len(batch)})" for batch in wave)
        waves.append(f"[{members}]")
    return " -> ".join(waves) if waves else "(no state functions)"


def describe_rule(speedybox: SpeedyBox, fid: int) -> str:
    """Multi-line description of one flow's fast-path rule."""
    rule = speedybox.global_mat.peek(fid)
    if rule is None:
        return f"fid={fid}: no consolidated rule (slow path)"
    lines = [f"fid={fid} v{rule.version} hits={rule.hits}"]
    entry = speedybox.classifier.flow(fid)
    if entry is not None:
        lines.append(f"  flow    : {entry.five_tuple} ({entry.packets} pkts)")
    lines.append(f"  action  : {describe_action(rule.consolidated)}")
    lines.append(f"  schedule: {describe_schedule(rule)}")
    events = speedybox.event_table.events_for(fid)
    if events:
        for event in events:
            state = "armed" if event.active else f"fired x{event.trigger_count}"
            lines.append(f"  event   : {event.nf_name}/{event.condition_method} ({state})")
    return "\n".join(lines)


def dump_global_mat(speedybox: SpeedyBox, limit: Optional[int] = None) -> str:
    """Dump every consolidated rule (most recently used last)."""
    fids = list(speedybox.global_mat.flows())
    if limit is not None:
        fids = fids[-limit:]
    if not fids:
        return "(global MAT empty)"
    blocks = [describe_rule(speedybox, fid) for fid in fids]
    stats = speedybox.stats()
    footer = (
        f"-- {len(fids)} rules shown / {stats['active_rules']:.0f} active; "
        f"fast-path rate {100 * stats['fast_path_rate']:.1f}%; "
        f"{stats['events_triggered']:.0f} events fired"
    )
    return "\n".join(blocks + [footer])
