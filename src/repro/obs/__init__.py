"""Observability: metrics registry, packet-path tracing, engine hooks.

The paper's evaluation (§VII) is an observability exercise — per-packet
CPU cycles, fast/slow-path hit rates, ring occupancy, event-table
firings.  This package makes those signals first-class instead of ad-hoc
benchmark arithmetic:

- :mod:`repro.obs.registry` — ``Counter``/``Gauge``/``Histogram`` with
  labels behind a :class:`MetricsRegistry`; the classifier, Global MAT,
  Event Table, framework and platforms all publish into one.
- :mod:`repro.obs.trace` — the :class:`PacketTracer` records per-packet
  spans and exports JSON-lines or Chrome trace-event JSON (opens in
  ``chrome://tracing`` / Perfetto); its :class:`TracingObserver` streams
  the discrete-event engine's store put/get/blocked into it.
- :mod:`repro.obs.timeline` — builds unloaded-mode span timelines from
  :class:`~repro.core.framework.ProcessReport` objects.
- :mod:`repro.obs.timeseries` — gen-3 windowed telemetry: a bounded
  ring of per-window latency percentiles, drop/buffered counts and
  registry metric deltas on a sim-time or packet-count clock.
- :mod:`repro.obs.health` — per-replica health scoring (degraded /
  critical before dead) over the telemetry windows, consumed by the FT
  coordinator.
- :mod:`repro.obs.slo` — declarative latency/loss objectives with
  error-budget accounting and burn-rate alerts.
- :mod:`repro.obs.record` — the run record: the directory ``--obs-out``
  writes (fixed file names plus a ``manifest.json``) and the one loader
  that reads it back.
- :mod:`repro.obs.forensics` — tail-latency forensics: exact per-packet
  latency decomposition (queue / service / transfer / stall), a worst-K
  flight recorder, and a regime-shift detector emitting
  ``latency_regime_shift`` audit events.
- :mod:`repro.obs.report` — the read side: ``repro obs report`` lays
  out every surface a loaded record holds on one page, the journal's
  story as one timeline in ``seq`` order.

Everything defaults to *off* via shared null objects
(:data:`NULL_REGISTRY`, :data:`NULL_TRACER`); with observability
disabled, instrumented code paths cost one no-op method call and the
simulated cycle outputs are bit-identical to an uninstrumented build.
"""

from repro.obs.audit import AuditLog, NULL_AUDIT, summarize_events
from repro.obs.forensics import (
    FlightRecorder,
    ForensicsEngine,
    RegimeShiftDetector,
    StallCharge,
    TailRecord,
    components_sum,
    decompose,
    exact_residual,
    split_plan_total,
)
from repro.obs.health import (
    HealthModel,
    ReplicaHealth,
)
from repro.obs.promexport import parse_prometheus, render_prometheus, write_prometheus
from repro.obs.registry import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.obs.record import RunRecord, load_jsonl, load_metrics, load_record, write_record
from repro.obs.report import render_report
from repro.obs.slo import SLObjective, SLOEngine
from repro.obs.span import STAGE_ORDER, FlowSpanRecorder, stage_of
from repro.obs.timeline import trace_unloaded
from repro.obs.timeseries import (
    TimeSeries,
    Window,
    percentile_from_deltas,
)
from repro.obs.trace import NULL_TRACER, PacketTracer, Span, TracingObserver

__all__ = [
    "AuditLog",
    "Counter",
    "DEFAULT_BUCKETS",
    "FlightRecorder",
    "FlowSpanRecorder",
    "ForensicsEngine",
    "Gauge",
    "HealthModel",
    "Histogram",
    "MetricsRegistry",
    "NULL_AUDIT",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "PacketTracer",
    "RegimeShiftDetector",
    "ReplicaHealth",
    "RunRecord",
    "SLOEngine",
    "SLObjective",
    "STAGE_ORDER",
    "Span",
    "StallCharge",
    "TailRecord",
    "TimeSeries",
    "TracingObserver",
    "Window",
    "components_sum",
    "decompose",
    "exact_residual",
    "load_jsonl",
    "load_metrics",
    "load_record",
    "parse_prometheus",
    "percentile_from_deltas",
    "render_prometheus",
    "render_report",
    "split_plan_total",
    "stage_of",
    "summarize_events",
    "trace_unloaded",
    "write_prometheus",
    "write_record",
]
