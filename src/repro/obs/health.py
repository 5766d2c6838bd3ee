"""Cluster health scoring over telemetry windows (obs gen-3).

The FT coordinator only learns about a replica when the fault injector
declares it dead, so it never sees the *degraded-before-dead* shape
real failures have: p99 creeping up window over window, a drop burst,
the fast-path hit ratio collapsing.
:class:`HealthModel` watches
the per-replica sub-windows a :class:`~repro.obs.timeseries.TimeSeries`
closes and scores each replica each window:

- **healthy** — nothing notable;
- **degraded** — drop rate or latency trend above the degraded
  thresholds, or fast-path hit ratio collapsed: the replica still
  serves, but something is wrong;
- **critical** — packets are being *buffered* to it (the FT layer
  believes it dead), or drop rate / latency passed the critical
  thresholds.

State transitions emit ``health_degraded`` / ``health_critical`` /
``health_recovered`` audit events and fan out to listeners — the FT
coordinator subscribes to checkpoint a degrading replica proactively
(:meth:`repro.ft.failover.FaultTolerance.on_health`).

Latency trend uses a per-replica EWMA baseline of window p99 that only
learns from *healthy* windows, so a replica sliding into trouble is
judged against how it behaved when it was well — not against its own
decline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.obs.timeseries import TimeSeries, Window

HEALTHY = "healthy"
DEGRADED = "degraded"
CRITICAL = "critical"
#: worst-first severity order
STATES = (CRITICAL, DEGRADED, HEALTHY)
_RANK = {state: rank for rank, state in enumerate(STATES)}
#: scored windows kept per replica (what "ever fast" looks back over)
HISTORY = 64


@dataclass(frozen=True)
class HealthThresholds:
    """The per-window scoring rules' boundaries."""

    #: window drop rate (drops / packets) boundaries
    drop_rate_degraded: float = 0.01
    drop_rate_critical: float = 0.10
    #: any buffered packet means the FT layer is holding traffic for a
    #: dead replica — that replica is critical by definition
    buffered_critical: int = 1
    #: window p99 over the healthy-baseline EWMA
    latency_factor_degraded: float = 2.0
    latency_factor_critical: float = 4.0
    #: fast-path hit ratio below this (once warm) is degraded
    fast_hit_degraded: float = 0.25
    #: windows with fewer packets than this are not scored for ratio
    #: rules (tiny denominators make every ratio a cliff)
    min_packets: int = 8
    #: EWMA weight of the newest healthy p99
    baseline_alpha: float = 0.3


@dataclass(frozen=True)
class ReplicaHealth:
    """One replica's score for one window."""

    replica: Any
    state: str
    score: float
    reasons: Tuple[str, ...]
    window_index: int
    packets: int = 0
    drop_rate: float = 0.0
    buffered: int = 0
    p99_ns: Optional[float] = None
    baseline_p99_ns: Optional[float] = None
    fast_hit_ratio: Optional[float] = None

    def describe(self) -> str:
        why = ", ".join(self.reasons) if self.reasons else "ok"
        return f"replica {self.replica}: {self.state} (score {self.score:.2f}; {why})"


@dataclass
class _ReplicaTrack:
    state: str = HEALTHY
    baseline_p99: Optional[float] = None
    windows_seen: int = 0
    last: Optional[ReplicaHealth] = None
    history: List[ReplicaHealth] = field(default_factory=list)


class HealthModel:
    """Score replicas from closed telemetry windows."""

    def __init__(
        self,
        timeseries: Optional[TimeSeries] = None,
        audit: AuditLog = NULL_AUDIT,
    ):
        self.thresholds = HealthThresholds()
        self.audit = audit
        self._tracks: Dict[Any, _ReplicaTrack] = {}
        self._listeners: List[Callable[[ReplicaHealth], None]] = []
        self.windows_scored = 0
        if timeseries is not None:
            timeseries.on_close(self.observe_window)

    # -- wiring -------------------------------------------------------------

    def add_listener(self, listener: Callable[[ReplicaHealth], None]) -> None:
        """Call ``listener(report)`` on every replica *state change*."""
        self._listeners.append(listener)

    # -- scoring ------------------------------------------------------------

    def observe_window(self, window: Window) -> List[ReplicaHealth]:
        """Score every replica present in a closed window."""
        self.windows_scored += 1
        return [self._score(window, window.replicas[replica])
                for replica in sorted(window.replicas, key=str)]

    def _score(self, window: Window, rw) -> ReplicaHealth:
        t = self.thresholds
        reasons: List[str] = []
        score = 1.0
        state = HEALTHY

        def flag(new_state: str, reason: str, penalty: float) -> None:
            nonlocal state, score
            reasons.append(reason)
            score = max(0.0, score - penalty)
            if _RANK[new_state] < _RANK[state]:
                state = new_state

        served = rw.packets - rw.buffered
        drop_rate = rw.drops / served if served > 0 else 0.0
        if rw.buffered >= t.buffered_critical:
            flag(CRITICAL, f"buffered={rw.buffered}", 0.6)
        if served >= t.min_packets:
            if drop_rate >= t.drop_rate_critical:
                flag(CRITICAL, f"drop_rate={drop_rate:.3f}", 0.5)
            elif drop_rate >= t.drop_rate_degraded:
                flag(DEGRADED, f"drop_rate={drop_rate:.3f}", 0.25)

        track = self._tracks.get(rw.replica)
        if track is None:
            track = self._tracks[rw.replica] = _ReplicaTrack()
        p99 = rw.percentile(0.99)
        baseline = track.baseline_p99
        if p99 is not None and baseline is not None and baseline > 0:
            factor = p99 / baseline
            if factor >= t.latency_factor_critical:
                flag(CRITICAL, f"p99_x{factor:.1f}", 0.5)
            elif factor >= t.latency_factor_degraded:
                flag(DEGRADED, f"p99_x{factor:.1f}", 0.25)

        fast_ratio: Optional[float] = None
        if served >= t.min_packets:
            fast_ratio = rw.fast_hits / served
            # only meaningful once the replica has warmed a fast path at
            # least once — a replica that never compiled is not "sick"
            if track.windows_seen > 0 and track.baseline_p99 is not None:
                if 0 < fast_ratio < t.fast_hit_degraded or (
                    fast_ratio == 0 and rw.fast_hits == 0 and self._ever_fast(track)
                ):
                    flag(DEGRADED, f"fast_hit={fast_ratio:.2f}", 0.15)

        report = ReplicaHealth(
            replica=rw.replica,
            state=state,
            score=score,
            reasons=tuple(reasons),
            window_index=window.index,
            packets=rw.packets,
            drop_rate=drop_rate,
            buffered=rw.buffered,
            p99_ns=p99,
            baseline_p99_ns=baseline,
            fast_hit_ratio=fast_ratio,
        )
        self._finish(track, report)
        return report

    def _ever_fast(self, track: _ReplicaTrack) -> bool:
        return any(
            h.fast_hit_ratio is not None and h.fast_hit_ratio > 0
            for h in track.history
        )

    def _finish(self, track: _ReplicaTrack, report: ReplicaHealth) -> None:
        t = self.thresholds
        track.windows_seen += 1
        track.last = report
        track.history.append(report)
        if len(track.history) > HISTORY:
            del track.history[: len(track.history) - HISTORY]
        if report.state == HEALTHY and report.p99_ns is not None:
            if track.baseline_p99 is None:
                track.baseline_p99 = report.p99_ns
            else:
                alpha = t.baseline_alpha
                track.baseline_p99 = (
                    alpha * report.p99_ns + (1.0 - alpha) * track.baseline_p99
                )
        if report.state != track.state:
            previous, track.state = track.state, report.state
            kind = {
                DEGRADED: "health_degraded",
                CRITICAL: "health_critical",
                HEALTHY: "health_recovered",
            }[report.state]
            self.audit.emit(
                kind,
                replica=report.replica,
                window=report.window_index,
                score=round(report.score, 3),
                was=previous,
                reasons=",".join(report.reasons),
            )
            for listener in self._listeners:
                listener(report)

    # -- reads --------------------------------------------------------------

    def worst_state(self) -> str:
        worst = HEALTHY
        for track in self._tracks.values():
            if _RANK[track.state] < _RANK[worst]:
                worst = track.state
        return worst

    def snapshot(self) -> Dict[str, Any]:
        return {
            str(rid): {
                "state": track.state,
                "baseline_p99_ns": track.baseline_p99,
                "windows": track.windows_seen,
                "score": track.last.score if track.last else 1.0,
            }
            for rid, track in sorted(self._tracks.items(), key=lambda kv: str(kv[0]))
        }

    def __repr__(self) -> str:
        states = ", ".join(
            f"{rid}:{track.state}" for rid, track in self._tracks.items()
        )
        return f"<HealthModel {self.windows_scored} windows; {states or 'no replicas'}>"
