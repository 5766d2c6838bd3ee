"""One repeat of a workload, and what is read from it afterwards.

A repeat is timed as a whole (``wall_ns``); with a tracer it is also cut
into spans, from which :func:`layer_metrics` derives the per-layer
numbers.  Counters come from the program's own monitoring surface
(``runtime.stats()``, ``platform.last_lane_stats``, ``RecoveryReport``,
the recorders' ``summary()``), so they need no tracing and repeat exactly.
"""

from __future__ import annotations

import ctypes
import gc
import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

from bench.checks import sim_digest
from bench.trace import Tracer
from bench.workloads import NF_NAMES

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)
#: what calibrate() reads on the development box when it is quiet; host
#: times are scaled to the machine speed at which it would read this
CALIBRATION_REFERENCE_NS = 26_000_000


def keep_freed_memory() -> bool:
    """Tell glibc's malloc to keep what the program frees instead of
    unmapping it (``M_MMAP_MAX`` 0, ``M_TRIM_THRESHOLD`` at its limit).

    Every repeat frees its arrays, lists and tables, and by default the
    next one maps them afresh.  On the development VM a first touch of
    fresh pages costs anything from 3 to 100 us, in storms: one
    ``steady_batch`` repeat in three took two to three times as long as
    its neighbours (IQR / median 0.95 over 21 repeats; 0.05 with this
    setting, and 12 % faster).  With it the warm-up repeat pays the
    first touch (``run.warmup_s``) and the timed ones measure the
    program.  Returns False where there is no glibc to tell.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_max = -1, -4  # <malloc.h>
    return bool(mallopt(m_mmap_max, 0)) and bool(mallopt(m_trim_threshold, 2**31 - 1))


def rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * PAGE_MB


def null_span(name: str):
    return nullcontext()


def calibrate() -> int:
    """Nanoseconds this machine takes, right now, for a fixed
    interpreter-bound kernel (about 26 ms on the development box).

    The box the benchmark was built on is a shared VM whose speed drifts
    by tens of percent over minutes: the same repeat, raw, ranged over
    58 % in eight minutes.  The kernel slows down with it, so host times
    are reported *at reference speed* — multiplied by
    ``CALIBRATION_REFERENCE_NS / calibrate()`` taken just before and
    after — which cut that range to 18 %.
    """
    started = time.perf_counter_ns()
    total, table = 0, {}
    for index in range(300_000):
        total += index * index
        table[index & 1023] = total
    return time.perf_counter_ns() - started


def at_reference_speed(calibration_ns: float) -> float:
    """Factor that takes a host time measured while calibrate() read
    ``calibration_ns`` to reference machine speed."""
    return CALIBRATION_REFERENCE_NS / calibration_ns


def iqr_ratio(values: List[float]) -> float:
    """Interquartile range over the median (0 below two samples)."""
    if len(values) < 2:
        return 0.0
    low, __, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


# -- one repeat ----------------------------------------------------------------


@dataclass
class Repeat:
    """What one repeat leaves behind once its objects are released."""

    wall_ns: int
    offer_ns: int
    packets: int
    delivered: int
    dropped: int
    #: buffered against the dead replica and delivered by recovery
    recovered: int
    sim: Dict[str, float]
    digest: str
    counts: Dict[str, float]
    rss_after: Dict[str, float]
    tracer: Optional[object] = None
    #: calibrate() around this repeat (mean of before and after)
    calibration_ns: float = CALIBRATION_REFERENCE_NS

    @property
    def raw_ns_per_packet(self) -> float:
        return self.wall_ns / self.packets

    @property
    def ns_per_packet(self) -> float:
        """Wall time per packet at reference machine speed."""
        return self.raw_ns_per_packet * at_reference_speed(self.calibration_ns)


def run_repeat(workload, tracer=None) -> Repeat:
    span = tracer.span if tracer is not None else null_span
    rss_after = {}
    started = time.perf_counter_ns()
    with span("run:repeat"):
        with span("traffic:synthesize"):
            load = workload.synthesize()
        rss_after["traffic"] = rss_mb()
        with span("run:build"):
            system = workload.build()
            if tracer is not None:
                workload.instrument(tracer, system)
        offer_started = time.perf_counter_ns()
        try:
            result = workload.offer(system, load)
        finally:
            if tracer is not None:
                tracer.unpatch_all()
        offer_ns = time.perf_counter_ns() - offer_started
        rss_after["platform"] = rss_mb()
        with span("stats:summary"):
            sim = {
                "sim_throughput_mpps": result.throughput_mpps,
                "sim_latency_p50_us": result.latency_percentile(0.50) / 1000.0,
                "sim_latency_p99_us": result.latency_percentile(0.99) / 1000.0,
            }
        rss_after["stats"] = rss_mb()
        artifact_bytes = workload.export(system, span)
        rss_after["obs"] = rss_mb()
    wall_ns = time.perf_counter_ns() - started
    counts = read_counts(workload, system, len(load))
    counts["obs.artifact_bytes"] = artifact_bytes
    recovered = sum(r.packets_delivered for r in system.ft.recoveries) if system.ft else 0
    return Repeat(
        wall_ns=wall_ns,
        offer_ns=offer_ns,
        packets=len(load),
        delivered=result.delivered,
        dropped=result.dropped,
        recovered=recovered,
        sim=sim,
        digest=sim_digest(result),
        counts=counts,
        rss_after=rss_after,
        tracer=tracer,
    )


def read_counts(workload, system, packets: int) -> Dict[str, float]:
    """The program's own counters after a run (no tracing needed)."""
    stats = [runtime.stats() for runtime in system.runtimes]

    def total(key: str) -> float:
        return sum(entry[key] for entry in stats)

    lane = system.platforms[0].last_lane_stats or {}
    counts = {
        "traffic.packets": packets,
        "traffic.flows": workload.flows,
        "core.fast_path_share": total("fast_packets") / max(total("packets"), 1),
        "core.slow_packets": total("slow_packets"),
        "core.consolidations": total("consolidations"),
        "core.reconsolidations": total("reconsolidations"),
        "core.rule_evictions": total("evictions"),
        "core.classifier_evictions": total("classifier_evictions"),
        "core.events_registered": total("events_registered"),
        "core.events_triggered": total("events_triggered"),
        "core.lane_span_share": lane["span_packets"] / lane["offered"] if lane else 0.0,
        "core.lane_admitted": lane.get("admitted", 0),
        "core.lane_plan_table_size": lane.get("plan_table_size", 0),
        "obs.spans_recorded": 0,
        "obs.audit_events": 0,
        "obs.windows": 0,
        "scale.replicas": 0,
        "scale.replica_imbalance": 0.0,
        "ft.checkpoints": 0,
        "ft.checkpoint_flows": 0,
        "ft.replayed_packets": 0,
        "ft.buffered_packets": 0,
        "ft.flows_restored": 0,
        "ft.flows_rebuilt": 0,
    }
    if system.obs is not None:
        counts["obs.spans_recorded"] = system.obs.spans.summary()["spans"]
        counts["obs.audit_events"] = len(system.obs.audit)
        counts["obs.windows"] = system.obs.timeseries.windows_closed
    if system.ft is not None:
        ft = system.ft
        offered = [result.offered for result in system.raw_result.per_replica.values()]
        counts["scale.replicas"] = len(offered)
        counts["scale.replica_imbalance"] = max(offered) / statistics.mean(offered)
        counts["ft.checkpoints"] = ft.checkpoints.checkpoints_taken
        counts["ft.checkpoint_flows"] = sum(
            event["flows"] for event in ft.audit.events("ft_checkpoint")
        )
        counts["ft.buffered_packets"] = ft.packets_buffered
        counts["ft.replayed_packets"] = sum(r.packets_replayed for r in ft.recoveries)
        counts["ft.flows_restored"] = sum(r.flows_restored for r in ft.recoveries)
        counts["ft.flows_rebuilt"] = sum(r.flows_rebuilt for r in ft.recoveries)
    return counts


# -- the per-layer numbers of one traced repeat --------------------------------


def layer_metrics(workload, repeat: Repeat) -> Dict[str, float]:
    tracer, packets = repeat.tracer, repeat.packets

    def per_packet(prefix: str) -> float:
        return tracer.self_ns(prefix) / packets

    nfs = [entry for name, entry in tracer.totals.items() if name.startswith("nf:")]
    nf_calls, nf_total = sum(entry[0] for entry in nfs), sum(entry[1] for entry in nfs)
    repeat_ns = tracer.total_ns("run:repeat")
    export_ns = tracer.self_ns("obs:export")
    metrics = dict(repeat.counts)
    metrics.update(
        {
            "traffic.synth_ns_per_packet": per_packet("traffic:"),
            "traffic.rss_mb_after": repeat.rss_after["traffic"],
            "core.func_ns_per_packet": per_packet("core:"),
            "nf.ns_per_slow_packet": nf_total / max(repeat.counts["core.slow_packets"], 1),
            "nf.calls": nf_calls,
            "platform.run_load_ns_per_packet": tracer.total_ns(workload.load_call) / packets,
            "platform.self_ns_per_packet": per_packet("platform:"),
            "platform.run_load_calls": tracer.calls(workload.load_call),
            "platform.rss_mb_after": repeat.rss_after["platform"],
            "sim.replay_ns_per_packet": per_packet("sim:"),
            "sim.vector_runs": tracer.calls("sim:analytic_replay_vector"),
            "sim.analytic_runs": tracer.calls("sim:analytic_replay"),
            "sim.des_runs": tracer.calls("sim:Engine.run"),
            "stats.summary_ns_per_packet": per_packet("stats:"),
            "stats.rss_mb_after": repeat.rss_after["stats"],
            "obs.record_ns_per_packet": (tracer.self_ns("obs:") - export_ns) / packets,
            "obs.export_s": export_ns / 1e9,
            "obs.rss_mb_after": repeat.rss_after["obs"],
            "scale.dispatch_ns_per_packet": per_packet("scale:"),
            "ft.checkpoint_ns_per_packet": per_packet("ft:FaultTolerance.checkpoint_replica"),
            "ft.recover_ms": tracer.total_ns("ft:FaultTolerance.recover") / 1e6,
            # everything under the root lies in some span, so what is
            # left is the root's own time: the part no layer accounts for
            "run.closure_error": tracer.self_ns("run:repeat") / repeat_ns,
        }
    )
    for name in NF_NAMES:
        calls = tracer.calls(f"nf:{name}")
        metrics[f"nf.ns_per_call.{name}"] = tracer.total_ns(f"nf:{name}") / calls if calls else 0.0
    for part in ("prom", "audit", "spans", "trace", "timeseries", "forensics"):
        metrics[f"obs.export_s.{part}"] = tracer.total_ns(f"obs:export.{part}") / 1e9
    return metrics


def run_repeats(workload, seconds: float, traced: bool):
    """Untraced repeats for ``seconds`` (at least three; one when
    ``seconds`` is 0), each followed by a traced one when ``traced``.
    Returns (untraced repeats, traced repeats)."""
    min_repeats = 3 if seconds > 0 else 1
    plain: List[Repeat] = []
    with_trace: List[Repeat] = []
    deadline = time.perf_counter() + seconds
    while len(plain) < min_repeats or time.perf_counter() < deadline:
        gc.collect()
        before = calibrate()
        plain.append(run_repeat(workload))
        plain[-1].calibration_ns = (before + calibrate()) / 2
        if traced:
            gc.collect()
            with_trace.append(run_repeat(workload, Tracer()))
    return plain, with_trace
