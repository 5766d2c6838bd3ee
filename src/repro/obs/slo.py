"""Declarative SLOs, error budgets and burn-rate alerts (obs gen-3).

An operator states objectives the way SRE practice writes them —
"99.9 % of packets under 250 µs", "loss under 0.1 %" — and the engine
does the bookkeeping against the telemetry windows a
:class:`~repro.obs.timeseries.TimeSeries` closes:

- an :class:`SLObjective` parses from compact spec strings
  (``"p99<250us"``, ``"p50<40us@0.99"``, ``"loss<0.001"``);
- every window, the engine counts *bad events* (latency samples over
  the threshold; drops + buffered packets for loss objectives), charges
  them to the objective's **error budget** (``1 - target`` of all
  events over the engine's lifetime) and computes the window **burn
  rate** — bad fraction over allowed fraction, the standard
  multi-window burn-rate alerting quantity;
- a window whose burn rate reaches ``alert_burn_rate`` emits one
  ``slo_burn_alert`` audit event, so alerts are ordered against every
  other decision in the run (the FT integration test asserts the alert
  lands *before* recovery completes).

The engine is deliberately small: objectives are windows-in, audit-out,
with :meth:`summary`/:meth:`render` for the CLI (``repro obs watch``)
and the report.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.obs.timeseries import TimeSeries, Window

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
_LATENCY_RE = re.compile(
    r"^p(?P<pct>\d+(?:\.\d+)?)\s*<\s*(?P<value>\d+(?:\.\d+)?)\s*"
    r"(?P<unit>ns|us|ms|s)(?:@(?P<target>0?\.\d+))?$"
)
_LOSS_RE = re.compile(r"^loss\s*<\s*(?P<value>0?\.\d+|\d+(?:\.\d+)?%)(?:@(?P<target>0?\.\d+))?$")


@dataclass(frozen=True)
class SLObjective:
    """One declarative objective.

    ``kind`` is ``"latency"`` (a percentile of per-packet latency must
    stay under ``threshold_ns``; every sample over the threshold is a
    bad event) or ``"loss"`` (dropped/buffered packets are bad events;
    ``threshold_ns`` unused).  ``target`` is the compliance target the
    error budget derives from: a budget of ``1 - target`` bad events
    per event.
    """

    name: str
    kind: str
    threshold_ns: float = 0.0
    fraction: float = 0.99
    target: float = 0.999
    #: loss objectives: allowed loss fraction (doubles as 1 - target)
    loss_budget: float = 0.001

    @classmethod
    def parse(cls, spec: str) -> "SLObjective":
        text = spec.strip().lower().replace(" ", "")
        match = _LATENCY_RE.match(text)
        if match:
            fraction = float(match.group("pct")) / 100.0
            if not 0.0 < fraction <= 1.0:
                raise ValueError(f"bad percentile in SLO spec {spec!r}")
            threshold = float(match.group("value")) * _UNIT_NS[match.group("unit")]
            target = float(match.group("target")) if match.group("target") else 0.999
            return cls(
                name=text,
                kind="latency",
                threshold_ns=threshold,
                fraction=fraction,
                target=target,
            )
        match = _LOSS_RE.match(text)
        if match:
            raw = match.group("value")
            budget = float(raw[:-1]) / 100.0 if raw.endswith("%") else float(raw)
            if not 0.0 < budget < 1.0:
                raise ValueError(f"bad loss budget in SLO spec {spec!r}")
            target = float(match.group("target")) if match.group("target") else 1.0 - budget
            return cls(name=text, kind="loss", target=target, loss_budget=budget)
        raise ValueError(
            f"unparseable SLO spec {spec!r} (expected e.g. 'p99<250us' or 'loss<0.001')"
        )

    @property
    def error_budget_fraction(self) -> float:
        """Allowed bad-event fraction (the burn-rate denominator)."""
        allowed = 1.0 - self.target
        return allowed if allowed > 0 else 1e-9


@dataclass
class _ObjectiveState:
    objective: SLObjective
    events: int = 0
    bad: int = 0
    windows: int = 0
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    worst_burn: float = 0.0
    last_burn: float = 0.0

    @property
    def compliance(self) -> float:
        return 1.0 - (self.bad / self.events) if self.events else 1.0

    def budget_total(self) -> float:
        return self.objective.error_budget_fraction * self.events

    def budget_remaining(self) -> float:
        return self.budget_total() - self.bad


class SLOEngine:
    """Charge telemetry windows against declared objectives."""

    def __init__(
        self,
        objectives: Sequence[SLObjective],
        timeseries: Optional[TimeSeries] = None,
        audit: AuditLog = NULL_AUDIT,
        alert_burn_rate: float = 2.0,
    ):
        if not objectives:
            raise ValueError("SLOEngine needs at least one objective")
        self.audit = audit
        self.alert_burn_rate = alert_burn_rate
        self._states = {obj.name: _ObjectiveState(obj) for obj in objectives}
        self.windows_observed = 0
        if timeseries is not None:
            timeseries.on_close(self.observe_window)

    @classmethod
    def from_specs(
        cls,
        specs: Sequence[str],
        timeseries: Optional[TimeSeries] = None,
        audit: AuditLog = NULL_AUDIT,
        alert_burn_rate: float = 2.0,
    ) -> "SLOEngine":
        return cls(
            [SLObjective.parse(spec) for spec in specs],
            timeseries=timeseries,
            audit=audit,
            alert_burn_rate=alert_burn_rate,
        )

    @property
    def objectives(self) -> List[SLObjective]:
        return [state.objective for state in self._states.values()]

    # -- windows in ---------------------------------------------------------

    def observe_window(self, window: Window) -> None:
        self.windows_observed += 1
        for state in self._states.values():
            objective = state.objective
            if objective.kind == "latency":
                ordered = window.sorted_latencies()
                events = len(ordered)
                bad = events - bisect_right(ordered, objective.threshold_ns)
            else:
                events = window.packets
                bad = window.drops + window.buffered
            if events <= 0:
                continue
            state.events += events
            state.bad += bad
            state.windows += 1
            bad_fraction = bad / events
            burn = bad_fraction / objective.error_budget_fraction
            state.last_burn = burn
            state.worst_burn = max(state.worst_burn, burn)
            if burn >= self.alert_burn_rate and bad > 0:
                alert = {
                    "objective": objective.name,
                    "window": window.index,
                    "burn_rate": burn,
                    "bad": bad,
                    "events": events,
                    "budget_remaining": state.budget_remaining(),
                }
                state.alerts.append(alert)
                self.audit.emit(
                    "slo_burn_alert",
                    objective=objective.name,
                    window=window.index,
                    burn=round(burn, 3),
                    bad=bad,
                    events=events,
                )

    # -- reads --------------------------------------------------------------

    def alerts(self, objective: Optional[str] = None) -> List[Dict[str, Any]]:
        if objective is not None:
            return list(self._states[objective].alerts)
        out: List[Dict[str, Any]] = []
        for state in self._states.values():
            out.extend(state.alerts)
        return out

    def compliance(self, objective: str) -> float:
        return self._states[objective].compliance

    def budget_remaining(self, objective: str) -> float:
        return self._states[objective].budget_remaining()

    def summary(self) -> Dict[str, Mapping[str, Any]]:
        return {
            name: {
                "kind": state.objective.kind,
                "target": state.objective.target,
                "events": state.events,
                "bad": state.bad,
                "compliance": state.compliance,
                "budget_total": state.budget_total(),
                "budget_remaining": state.budget_remaining(),
                "worst_burn": state.worst_burn,
                "last_burn": state.last_burn,
                "alerts": len(state.alerts),
            }
            for name, state in self._states.items()
        }

    def render(self, title: str = "SLOs") -> str:
        from repro.stats.tables import format_table

        rows = []
        for name, info in self.summary().items():
            rows.append(
                [
                    name,
                    f"{info['target']:.4f}",
                    info["events"],
                    info["bad"],
                    # no window reached the engine: that is not compliance
                    f"{info['compliance']:.5f}" if info["events"] else "no data",
                    f"{info['budget_remaining']:.1f}",
                    f"{info['worst_burn']:.2f}",
                    info["alerts"],
                ]
            )
        return format_table(
            ["objective", "target", "events", "bad", "compliance", "budget_left", "burn_max", "alerts"],
            rows,
            title=title,
        )

    def __repr__(self) -> str:
        return (
            f"<SLOEngine {len(self._states)} objective(s), "
            f"{self.windows_observed} windows, {len(self.alerts())} alerts>"
        )
