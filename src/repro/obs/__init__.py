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
  ``chrome://tracing`` / Perfetto).
- :mod:`repro.obs.hooks` — observers for the discrete-event engine
  (process lifecycle, store put/get/blocked).
- :mod:`repro.obs.timeline` — builds unloaded-mode span timelines from
  :class:`~repro.core.framework.ProcessReport` objects.
- :mod:`repro.obs.timeseries` — gen-3 windowed telemetry: a bounded
  ring of per-window latency percentiles, drop/buffered counts and
  registry metric deltas on a sim-time or packet-count clock.
- :mod:`repro.obs.health` — per-replica health scoring (degraded /
  critical before dead) over the telemetry windows, consumed by the
  autoscaler and the FT coordinator.
- :mod:`repro.obs.slo` — declarative latency/loss objectives with
  error-budget accounting and burn-rate alerts.
- :mod:`repro.obs.benchdiff` — BENCH_*.json regression differ behind
  ``repro obs diff`` and the CI bench-diff gate.
- :mod:`repro.obs.record` — the run record: the directory ``--obs-out``
  writes (fixed file names plus a ``manifest.json``) and the one loader
  ``repro obs report|watch|explain`` and ``repro ft report`` read it
  back through.
- :mod:`repro.obs.forensics` — tail-latency forensics: exact per-packet
  latency decomposition (queue / service / transfer / stall), a worst-K
  flight recorder, a regime-shift detector emitting
  ``latency_regime_shift`` audit events, and the unified causal
  timeline behind ``repro obs explain``.

Everything defaults to *off* via shared null objects
(:data:`NULL_REGISTRY`, :data:`NULL_TRACER`); with observability
disabled, instrumented code paths cost one no-op method call and the
simulated cycle outputs are bit-identical to an uninstrumented build.
"""

from repro.obs.audit import AuditLog, NULL_AUDIT, summarize_events
from repro.obs.benchdiff import (
    DiffEntry,
    collect_benches,
    diff_benches,
    diff_metrics,
    render_diff,
)
from repro.obs.forensics import (
    FlightRecorder,
    ForensicsEngine,
    RegimeShiftDetector,
    StallCharge,
    TailRecord,
    build_timeline,
    components_sum,
    decompose,
    exact_residual,
    load_forensics_jsonl,
    render_explain,
    render_forensics,
    split_plan_total,
)
from repro.obs.health import (
    HealthModel,
    HealthThresholds,
    ReplicaHealth,
)
from repro.obs.hooks import (
    CountingObserver,
    EngineObserver,
    FanoutObserver,
    TracingObserver,
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
    load_timeseries_jsonl,
    percentile_from_deltas,
    render_windows,
)
from repro.obs.trace import NULL_TRACER, PacketTracer, Span

__all__ = [
    "AuditLog",
    "Counter",
    "CountingObserver",
    "DEFAULT_BUCKETS",
    "DiffEntry",
    "EngineObserver",
    "FanoutObserver",
    "FlightRecorder",
    "FlowSpanRecorder",
    "ForensicsEngine",
    "Gauge",
    "HealthModel",
    "HealthThresholds",
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
    "build_timeline",
    "collect_benches",
    "components_sum",
    "decompose",
    "diff_benches",
    "diff_metrics",
    "exact_residual",
    "load_forensics_jsonl",
    "load_jsonl",
    "load_metrics",
    "load_record",
    "load_timeseries_jsonl",
    "parse_prometheus",
    "percentile_from_deltas",
    "render_diff",
    "render_explain",
    "render_forensics",
    "render_prometheus",
    "render_report",
    "render_windows",
    "split_plan_total",
    "stage_of",
    "summarize_events",
    "trace_unloaded",
    "write_prometheus",
    "write_record",
]
