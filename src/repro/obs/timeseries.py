"""Windowed time-series telemetry (obs gen-3).

Everything the registry and the load results expose is cumulative: one
number per run, no notion of *when*.  That is enough for the paper's
end-of-run tables but useless for the questions the scale and FT layers
ask — "was this replica slowing down before it died?", "did the drop
burst start before or after the failover?".  This module adds
the missing axis: a :class:`TimeSeries` cuts a run into **windows** on a
sim-time (or packet-count) clock and summarizes each window as it
closes:

- per-window packet/drop/buffered counts and arrival rate;
- exact p50/p99 latency from every delivered packet's latency, so a
  run that fits in one window reproduces
  ``LoadResult.latency_percentile`` bit-for-bit — the oracle test in
  ``tests/unit/test_obs_timeseries.py``;
- **registry deltas**: every metric in an attached
  :class:`~repro.obs.registry.MetricsRegistry` is snapshotted at window
  close and differenced against the previous close, turning cumulative
  counters into per-window rates and cumulative histograms into
  per-window bucket deltas with interpolated p50/p99
  (:func:`percentile_from_deltas`);
- per-replica sub-windows (packets, drops, buffered, fast-path hits,
  latency percentiles) — the input of
  :class:`~repro.obs.health.HealthModel`.

Windows land in a bounded ring (``deque(maxlen=CAPACITY)``): old
windows are *evicted*, never merged, so eviction can never change any
retained window's totals (the Hypothesis property in
``tests/property/test_timeseries_properties.py``).

Two ingestion paths, chosen by who is running:

- **post-run** (:meth:`TimeSeries.ingest_result`): single-platform and
  batch-lane runs hand over the finished
  :class:`~repro.platform.base.LoadResult`; windowing is arithmetic on
  the arrival spacing, costs nothing per packet, and keeps the run
  eligible for the compiled/batch fast lanes — this is how the
  obs-overhead gate cells stay under 5 %;
- **per-dispatch** (:meth:`TimeSeries.record`): ``ScaleCluster`` calls
  it once per packet so windows close *mid-run* — the FT integration
  needs degraded/burn signals to fire before recovery completes.

``on_close`` callbacks receive each window as it closes; the health
model and the SLO engine subscribe there.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.record import dump_jsonl
from repro.obs.registry import Histogram, MetricsRegistry, NULL_REGISTRY
from repro.stats.summary import percentile_sorted

#: default sim-time window when neither clock is given: 1 ms
DEFAULT_WINDOW_NS = 1_000_000.0


def percentile_from_deltas(
    bounds: Sequence[float], deltas: Sequence[float], fraction: float
) -> Optional[float]:
    """Interpolated percentile from per-window histogram bucket deltas.

    ``bounds`` are the bucket upper bounds (ascending, the last may be
    ``+Inf``); ``deltas`` the per-bucket observation counts within the
    window.  Linear interpolation inside the winning bucket — the
    standard Prometheus ``histogram_quantile`` estimate.  Returns None
    for an empty window.
    """
    total = sum(deltas)
    if total <= 0:
        return None
    rank = fraction * total
    cumulative = 0.0
    lower = 0.0
    for bound, delta in zip(bounds, deltas):
        cumulative += delta
        if cumulative >= rank and delta > 0:
            if math.isinf(bound):
                return lower
            inside = (rank - (cumulative - delta)) / delta
            return lower + inside * (bound - lower)
        lower = bound if not math.isinf(bound) else lower
    return lower


class ReplicaWindow:
    """One replica's share of one window."""

    __slots__ = ("replica", "packets", "drops", "buffered", "fast_hits", "latencies")

    def __init__(self, replica: Any):
        self.replica = replica
        self.packets = 0
        self.drops = 0
        self.buffered = 0
        self.fast_hits = 0
        self.latencies: List[float] = []

    def percentile(self, fraction: float) -> Optional[float]:
        if not self.latencies:
            return None
        return percentile_sorted(sorted(self.latencies), fraction)

    def summary(self) -> Dict[str, Any]:
        ordered = sorted(self.latencies)
        return {
            "packets": self.packets,
            "drops": self.drops,
            "buffered": self.buffered,
            "fast_hits": self.fast_hits,
            "samples": len(ordered),
            "p50_ns": percentile_sorted(ordered, 0.50) if ordered else None,
            "p99_ns": percentile_sorted(ordered, 0.99) if ordered else None,
        }


class Window:
    """One closed (or in-progress) telemetry window."""

    __slots__ = (
        "index",
        "start_ns",
        "end_ns",
        "packets",
        "drops",
        "buffered",
        "latencies",
        "replicas",
        "metric_deltas",
        "hist_percentiles",
        "closed",
        "_sorted",
    )

    def __init__(self, index: int, start_ns: Optional[float], end_ns: Optional[float]):
        self.index = index
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.packets = 0
        self.drops = 0
        self.buffered = 0
        #: every delivered packet's latency
        self.latencies: List[float] = []
        self.replicas: Dict[Any, ReplicaWindow] = {}
        #: per-window change of every registry series (set at close)
        self.metric_deltas: Dict[str, float] = {}
        #: per-histogram interpolated {"p50": ..., "p99": ...} (at close)
        self.hist_percentiles: Dict[str, Dict[str, Optional[float]]] = {}
        self.closed = False
        self._sorted: Optional[List[float]] = None

    # -- reads --------------------------------------------------------------

    def sorted_latencies(self) -> List[float]:
        if self._sorted is None or len(self._sorted) != len(self.latencies):
            self._sorted = sorted(self.latencies)
        return self._sorted

    def percentile(self, fraction: float) -> Optional[float]:
        ordered = self.sorted_latencies()
        if not ordered:
            return None
        return percentile_sorted(ordered, fraction)

    @property
    def p50_ns(self) -> Optional[float]:
        return self.percentile(0.50)

    @property
    def p99_ns(self) -> Optional[float]:
        return self.percentile(0.99)

    @property
    def duration_ns(self) -> Optional[float]:
        if self.start_ns is None or self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    @property
    def rate_pps(self) -> Optional[float]:
        duration = self.duration_ns
        if not duration:
            return None
        return self.packets / (duration / 1e9)

    def replica_window(self, replica: Any) -> ReplicaWindow:
        window = self.replicas.get(replica)
        if window is None:
            window = self.replicas[replica] = ReplicaWindow(replica)
        return window

    def summary(self) -> Dict[str, Any]:
        """A JSON-friendly snapshot (the JSONL export row)."""
        return {
            "index": self.index,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "packets": self.packets,
            "drops": self.drops,
            "buffered": self.buffered,
            "samples": len(self.latencies),
            "p50_ns": self.p50_ns,
            "p99_ns": self.p99_ns,
            "rate_pps": self.rate_pps,
            "replicas": {str(rid): rw.summary() for rid, rw in sorted(
                self.replicas.items(), key=lambda item: str(item[0])
            )},
            "metric_deltas": dict(self.metric_deltas),
            "hist_percentiles": {
                name: dict(values) for name, values in self.hist_percentiles.items()
            },
        }


class TimeSeries:
    """Bounded ring of telemetry windows on a sim-time or packet clock.

    Exactly one clock drives window closes: ``window_ns`` closes a
    window when an arrival crosses its end (sim time), ``window_packets``
    after that many records.  ``CAPACITY`` bounds the ring.
    """

    CAPACITY = 256

    def __init__(
        self,
        window_ns: Optional[float] = None,
        window_packets: Optional[int] = None,
        registry: MetricsRegistry = NULL_REGISTRY,
    ):
        if window_ns is not None and window_packets is not None:
            raise ValueError("pass window_ns or window_packets, not both")
        if window_ns is None and window_packets is None:
            window_ns = DEFAULT_WINDOW_NS
        if window_ns is not None and window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns!r}")
        if window_packets is not None and window_packets < 1:
            raise ValueError(f"window_packets must be >= 1, got {window_packets!r}")
        self.window_ns = window_ns
        self.window_packets = window_packets
        self.registry = registry
        self.windows: "deque[Window]" = deque(maxlen=self.CAPACITY)
        self.evicted = 0
        self.windows_closed = 0
        #: run totals (never affected by ring eviction)
        self.total_packets = 0
        self.total_drops = 0
        self.total_buffered = 0
        self._current: Optional[Window] = None
        self._next_index = 0
        self._callbacks: List[Callable[[Window], None]] = []
        #: registry state at the previous window close (delta base)
        self._snap_prev: Dict[str, float] = {}
        self._hist_prev: Dict[str, Tuple[Tuple[float, ...], Tuple[float, ...]]] = {}

    # -- subscriptions ------------------------------------------------------

    def on_close(self, callback: Callable[[Window], None]) -> None:
        """Call ``callback(window)`` at every window close, in order."""
        self._callbacks.append(callback)

    # -- the window clock ---------------------------------------------------

    def _open(self, start_ns: Optional[float]) -> Window:
        if self.window_ns is not None:
            # Align the window to the clock grid so arrivals map to
            # window indices arithmetically.
            slot = math.floor(start_ns / self.window_ns)
            window = Window(
                self._next_index,
                slot * self.window_ns,
                (slot + 1) * self.window_ns,
            )
        else:
            window = Window(self._next_index, start_ns, None)
        self._next_index += 1
        self._current = window
        return window

    def _close(self, end_ns: Optional[float] = None) -> Optional[Window]:
        window = self._current
        if window is None:
            return None
        self._current = None
        if window.end_ns is None:
            window.end_ns = end_ns if end_ns is not None else window.start_ns
        window.closed = True
        self._snapshot_deltas(window)
        if len(self.windows) == self.windows.maxlen:
            self.evicted += 1
        self.windows.append(window)
        self.windows_closed += 1
        for callback in self._callbacks:
            callback(window)
        return window

    def advance(self, now_ns: float) -> None:
        """Close every sim-time window ending at or before ``now_ns``."""
        if self.window_ns is None:
            return
        while self._current is not None and now_ns >= self._current.end_ns:
            self._close()

    def finish(self) -> Optional[Window]:
        """Close the in-progress window (end of run)."""
        return self._close()

    # -- per-dispatch ingestion (cluster path) ------------------------------

    def record(
        self,
        arrival_ns: float,
        latency_ns: Optional[float] = None,
        replica: Any = 0,
        dropped: bool = False,
        buffered: bool = False,
        fast_hit: bool = False,
    ) -> None:
        """Fold one dispatch into the current window (opening/closing
        windows as the arrival clock dictates)."""
        if self.window_ns is not None:
            self.advance(arrival_ns)
        window = self._current
        if window is None:
            window = self._open(arrival_ns)
        window.packets += 1
        self.total_packets += 1
        rw = window.replica_window(replica)
        rw.packets += 1
        if buffered:
            window.buffered += 1
            rw.buffered += 1
            self.total_buffered += 1
        elif dropped:
            window.drops += 1
            rw.drops += 1
            self.total_drops += 1
        if fast_hit:
            rw.fast_hits += 1
        if latency_ns is not None:
            window.latencies.append(latency_ns)
            rw.latencies.append(latency_ns)
        if self.window_packets is not None and window.packets >= self.window_packets:
            self._close(arrival_ns)

    # -- post-run ingestion (platform / batch-lane path) --------------------

    def ingest_result(
        self,
        result,
        inter_arrival_ns: float = 0.0,
        replica: Any = 0,
        fast_hits: int = 0,
    ) -> List[Window]:
        """Window a finished :class:`~repro.platform.base.LoadResult`.

        Arrivals are reconstructed as ``i * inter_arrival_ns`` (the
        spacing ``run_load`` offered them at); windowing is slice
        arithmetic over the delivered-latency column — no per-packet
        Python loop, which is what keeps the fast lanes' obs overhead
        near zero.  Drops (arrival positions unknown post-run) are
        charged to the final window.  The result carries no arrival
        times, so a packet-clock window cut here has no simulated bounds:
        its ``start_ns``, ``end_ns`` and ``rate_pps`` stay ``None``.
        Every ingested window is closed before returning, so
        ``on_close`` subscribers fire here too.
        """
        latencies = result.latencies_ns
        n = len(latencies)
        delivered_fast = min(fast_hits, n)
        closed: List[Window] = []

        def fill(window: Window, chunk: List[float], fast: int) -> None:
            count = len(chunk)
            window.packets += count
            self.total_packets += count
            rw = window.replica_window(replica)
            rw.packets += count
            rw.fast_hits += fast
            window.latencies.extend(chunk)
            rw.latencies.extend(chunk)

        if self.window_ns is None:
            size = self.window_packets or n or 1
            lo = 0
            while lo < n:
                hi = min(lo + size, n)
                window = self._current or self._open(None)
                room = size - window.packets
                hi = min(lo + room, n)
                chunk = latencies[lo:hi].tolist()
                fast = max(0, min(len(chunk), delivered_fast - lo))
                fill(window, chunk, fast)
                if window.packets >= size:
                    closed.append(self._close())
                lo = hi
        elif inter_arrival_ns <= 0:
            # Saturation: every arrival at t=0, one window holds the run.
            window = self._current or self._open(0.0)
            fill(window, latencies.tolist(), delivered_fast)
            closed.append(self._close())
        else:
            lo = 0
            while lo < n:
                arrival = lo * inter_arrival_ns
                self.advance(arrival)
                window = self._current or self._open(arrival)
                # arrivals in [window.start, window.end) — slice bounds
                hi = min(n, int(math.ceil(window.end_ns / inter_arrival_ns)))
                hi = max(hi, lo + 1)
                chunk = latencies[lo:hi].tolist()
                fast = max(0, min(len(chunk), delivered_fast - lo))
                fill(window, chunk, fast)
                lo = hi

        window = self._current
        if result.dropped:
            if window is None:
                start = None
                if self.window_ns is not None:
                    start = max(0.0, (n - 1)) * max(inter_arrival_ns, 0.0)
                window = self._open(start)
            window.drops += result.dropped
            self.total_drops += result.dropped
            rw = window.replica_window(replica)
            rw.packets += result.dropped
            rw.drops += result.dropped
            window.packets += result.dropped
            self.total_packets += result.dropped
        if self._current is not None:
            closed.append(self.finish())
        return [w for w in closed if w is not None]

    # -- registry deltas ----------------------------------------------------

    def _snapshot_deltas(self, window: Window) -> None:
        registry = self.registry
        if not registry.enabled:
            return
        snap = registry.snapshot()
        prev = self._snap_prev
        deltas = {}
        for key, value in snap.items():
            delta = value - prev.get(key, 0.0)
            if delta:
                deltas[key] = delta
        for key in prev:
            if key not in snap:
                deltas[key] = -prev[key]
        window.metric_deltas = deltas
        self._snap_prev = snap

        hist_prev = self._hist_prev
        hist_now: Dict[str, Tuple[Tuple[float, ...], Tuple[float, ...]]] = {}
        for instrument in registry.instruments():
            if not isinstance(instrument, Histogram):
                continue
            bounds = instrument.buckets + (math.inf,)
            for labels, sample in instrument.samples():
                key = instrument.name + "".join(f"{{{k}={v}}}" for k, v in labels)
                cumulative = [c for __, c in sample["buckets"]] + [sample["count"]]
                hist_now[key] = (bounds, tuple(float(c) for c in cumulative))
        for key, (bounds, cumulative) in hist_now.items():
            prev_cumulative = hist_prev.get(key, (bounds, (0.0,) * len(cumulative)))[1]
            if len(prev_cumulative) != len(cumulative):
                prev_cumulative = (0.0,) * len(cumulative)
            cum_deltas = [c - p for c, p in zip(cumulative, prev_cumulative)]
            # de-cumulate: per-bucket deltas within the window
            per_bucket = [cum_deltas[0]] + [
                cum_deltas[i] - cum_deltas[i - 1] for i in range(1, len(cum_deltas))
            ]
            if sum(per_bucket) <= 0:
                continue
            window.hist_percentiles[key] = {
                "p50": percentile_from_deltas(bounds, per_bucket, 0.50),
                "p99": percentile_from_deltas(bounds, per_bucket, 0.99),
            }
        self._hist_prev = hist_now

    # -- introspection / export ---------------------------------------------

    def __len__(self) -> int:
        return len(self.windows)

    def last(self) -> Optional[Window]:
        return self.windows[-1] if self.windows else None

    def summary(self) -> Dict[str, Any]:
        return {
            "windows_closed": self.windows_closed,
            "windows_retained": len(self.windows),
            "windows_evicted": self.evicted,
            "total_packets": self.total_packets,
            "total_drops": self.total_drops,
            "total_buffered": self.total_buffered,
            "window_ns": self.window_ns,
            "window_packets": self.window_packets,
        }

    def write_jsonl(self, path) -> int:
        return dump_jsonl(path, (window.summary() for window in self.windows))

    def reset(self) -> None:
        self.windows.clear()
        self.evicted = 0
        self.windows_closed = 0
        self.total_packets = 0
        self.total_drops = 0
        self.total_buffered = 0
        self._current = None
        self._next_index = 0
        self._snap_prev = {}
        self._hist_prev = {}

    def __repr__(self) -> str:
        clock = (
            f"{self.window_ns:g}ns" if self.window_ns is not None
            else f"{self.window_packets}pkt"
        )
        return (
            f"<TimeSeries {clock} windows: {len(self.windows)} retained, "
            f"{self.evicted} evicted, {self.total_packets} packets>"
        )
