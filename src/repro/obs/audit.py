"""The decision audit log: every control-plane verdict as a JSON line.

The data plane has metrics (how many) and traces (when); what neither
answers is *why the runtime is shaped the way it is* — why this flow's
fast lane was recompiled, why that Global MAT rule disappeared, why a
flow's packets were buffered and replayed.  :class:`AuditLog` records
those control-plane decisions as structured, sequence-numbered events
with causal flow identifiers:

- fast-path lifecycle — ``fastpath_compile`` / ``fastpath_invalidate``
  (from :meth:`repro.core.framework.SpeedyBox._maybe_compile` and the
  invalidation hooks, with the reason: rule evicted, flow deleted,
  migration export/import, uncompilable);
- Global MAT — ``global_mat_insert`` / ``global_mat_rebuild`` (event-
  driven reconsolidation) / ``global_mat_evict`` (LRU at capacity);
- migration protocol — ``migration_freeze`` / ``migration_buffer`` /
  ``migration_transfer`` / ``migration_replay``, one event per phase of
  the freeze-buffer-replay choreography;
- elasticity — ``scale_out`` (an empty replica joined the cluster);
- fault tolerance — ``ft_checkpoint`` (snapshot round, with cause) /
  ``ft_kill`` / ``ft_buffer`` (in-flight packet held for a dead
  replica) / ``ft_freeze_absorbed`` (crash-during-migration guard) /
  ``ft_restore`` / ``ft_replay`` / ``ft_failover_complete``, one trail
  per failure from injection to recovered;
- cluster health — ``health_degraded`` / ``health_critical`` /
  ``health_recovered``, one event per replica *state transition* from
  :class:`repro.obs.health.HealthModel` (with the window index, score
  and triggering reasons);
- SLOs — ``slo_burn_alert`` from :class:`repro.obs.slo.SLOEngine`, one
  event per window whose burn rate crossed the alerting threshold
  (objective name, burn rate, bad/total events);
- latency forensics — ``latency_regime_shift`` from
  :class:`repro.obs.forensics.RegimeShiftDetector` (a window's p50/p99
  jumped past the trailing baseline, or its buffered fraction crossed
  the stall threshold) and from the FT coordinator when a recovery
  charges stall onto buffered deliveries — always emitted *before*
  that recovery's ``ft_failover_complete``; names the decomposition
  component that moved (``component=`` queue / service / transfer /
  stall) with the baseline and current values.

Events are dicts with a monotonically increasing ``seq`` (the order of
emission — the only clock the log adds, so two runs of one workload
export byte-identical journals unless an emitter puts a host-time
reading in a field of its own), the ``kind`` and the emitter's keyword
fields.  Export is JSON lines, one event per line,
greppable and loadable with pandas.

Deliberately *not* a metrics surface: none of these events increment
registry counters, so enabling the audit log cannot perturb the
metric-parity contract between the interpreted and compiled fast paths
(``tests/unit/test_fastpath_metric_parity.py``).

Like the registry and the tracer, the audit log has a null mode:
:data:`NULL_AUDIT` accepts every ``emit`` and records nothing, so
instrumented code never branches on "is auditing on" beyond the single
early return inside :meth:`AuditLog.emit`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.obs.record import dump_jsonl


class AuditLog:
    """Append-only structured event log for control-plane decisions."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._events: List[Dict[str, Any]] = []
        self._seq = 0

    # -- recording ---------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """Record one event; returns the event dict (None when disabled)."""
        if not self.enabled:
            return None
        self._seq += 1
        event: Dict[str, Any] = {"seq": self._seq, "kind": kind}
        event.update(fields)
        self._events.append(event)
        return event

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def events(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """All events, or only those of one kind, in emission order."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event["kind"] == kind]

    def counts(self) -> Dict[str, int]:
        """Event count per kind (the audit-event summary of a run)."""
        out: Dict[str, int] = {}
        for event in self._events:
            out[event["kind"]] = out.get(event["kind"], 0) + 1
        return out

    def last(self, kind: Optional[str] = None) -> Optional[Dict[str, Any]]:
        matching = self.events(kind)
        return matching[-1] if matching else None

    def reset(self) -> None:
        self._events.clear()
        self._seq = 0

    # -- export ------------------------------------------------------------

    def write_jsonl(self, path) -> int:
        """Write one JSON object per line; returns the event count."""
        return dump_jsonl(path, self._events)

    def __repr__(self) -> str:
        kinds = len({event["kind"] for event in self._events})
        return f"<AuditLog {len(self._events)} events, {kinds} kinds>"


def summarize_events(events: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    """Per-kind counts over already-loaded event dicts."""
    out: Dict[str, int] = {}
    for event in events:
        kind = event.get("kind", "?")
        out[kind] = out.get(kind, 0) + 1
    return out


#: The shared disabled audit log — the default everywhere.
NULL_AUDIT = AuditLog(enabled=False)
