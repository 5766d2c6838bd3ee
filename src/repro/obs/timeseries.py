"""Windowed time-series telemetry (obs gen-3).

Everything the registry and the load results expose is cumulative: one
number per run, no notion of *when*.  That is enough for the paper's
end-of-run tables but useless for the questions the scale and FT layers
ask — "was this replica slowing down before it died?", "did the drop
burst start before or after the failover?".  This module adds
the missing axis: a :class:`TimeSeries` cuts a finished run into
**windows** on a sim-time (or packet-count) clock and summarizes each:

- per-window packet/drop/buffered counts and arrival rate, over real
  simulated bounds on every route;
- exact p50/p99 latency from every replayed packet's latency, so a
  run that fits in one window reproduces
  ``LoadResult.latency_percentile`` bit-for-bit — the oracle test in
  ``tests/unit/test_obs_timeseries.py``;
- **registry deltas**: every metric in an attached
  :class:`~repro.obs.registry.MetricsRegistry` is snapshotted at window
  close and differenced against the previous close.  Windows are cut
  after their run, so the first window of a run carries everything the
  registry moved since the previous run — counters as deltas, histograms
  as per-bucket deltas with interpolated p50/p99
  (:func:`percentile_from_deltas`) — and its later windows carry none:
  the deltas are per run;
- per-replica sub-windows (packets, drops, buffered, fast-path hits,
  latency percentiles) — the input of
  :class:`~repro.obs.health.HealthModel`.

Windows land in a bounded ring (``deque(maxlen=CAPACITY)``): old
windows are *evicted*, never merged, so eviction can never change any
retained window's totals (the Hypothesis property in
``tests/property/test_timeseries_properties.py``).

One ingestion path: :meth:`TimeSeries.ingest_result` takes one finished
run's per-packet columns — arrival, latency, replica, fast, dropped and
buffered — and makes one cut.  A platform's run tail hands over its
replay's columns (``Platform._finish_run``); a ``ScaleCluster`` hands
over its replicas' merged columns plus a row per packet it buffered.
Nothing is windowed while a run is in flight, so nothing a window shows
can reach back into the run: telemetry is a pure reader.

That cut is the run's one window sequence.  Given a
:class:`~repro.obs.forensics.ForensicsEngine` and each packet's
forensic label, the cut hands the engine its windows before it closes
them (worst-K, stride-sampled component sums), so ``on_close`` callbacks
receive each window finished, components included; the health model,
the SLO engine and the regime-shift detector subscribe there.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.record import dump_jsonl
from repro.obs.registry import Histogram, MetricsRegistry, NULL_REGISTRY
from repro.stats.summary import percentile_sorted
from repro.vector import np

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


def _tally(share, held, dropped, latency) -> np.ndarray:
    """Count one window's (or one replica's) rows into ``share``: packets,
    buffered, drops among the replayed, and the replayed rows' latencies.
    Returns the replayed-row mask."""
    replayed = ~held
    share.packets = len(held)
    share.buffered = len(held) - int(np.count_nonzero(replayed))
    share.drops = int(np.count_nonzero(dropped & replayed))
    share.latencies = latency[replayed].tolist()
    return replayed


class Window:
    """One telemetry window of a finished run."""

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
        "components",
        "_sorted",
    )

    def __init__(self, index: int, start_ns: float, end_ns: float):
        self.index = index
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.packets = 0
        self.drops = 0
        self.buffered = 0
        #: every replayed packet's latency (a dropped packet's included,
        #: as in ``LoadResult.latencies_ns``); buffered packets have none
        self.latencies: List[float] = []
        self.replicas: Dict[Any, ReplicaWindow] = {}
        #: change of every registry series since the previous close (at close)
        self.metric_deltas: Dict[str, float] = {}
        #: per-histogram interpolated {"p50": ..., "p99": ...} (at close)
        self.hist_percentiles: Dict[str, Dict[str, Optional[float]]] = {}
        #: the forensics engine's sampled component sums, when one reduced
        #: over this window (before it closed)
        self.components: Optional[Dict[str, float]] = None
        self._sorted: Optional[List[float]] = None

    # -- reads --------------------------------------------------------------

    def sorted_latencies(self) -> List[float]:
        if self._sorted is None:
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
    def rate_pps(self) -> Optional[float]:
        duration = self.end_ns - self.start_ns
        if not duration:
            return None
        return self.packets / (duration / 1e9)

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

    Exactly one clock cuts a run: ``window_ns`` puts each packet in the
    grid slot its arrival falls in (``[k * window_ns, (k + 1) *
    window_ns)``; a slot no packet arrived in is no window),
    ``window_packets`` cuts fixed slices of that many packets in offered
    order (bounded by their first and last arrival).  ``CAPACITY``
    bounds the ring.
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
        self._callbacks: List[Callable[[Window], None]] = []
        #: registry state at the previous window close (delta base)
        self._snap_prev: Dict[str, float] = {}
        self._hist_prev: Dict[str, Tuple[Tuple[float, ...], Tuple[float, ...]]] = {}

    # -- subscriptions ------------------------------------------------------

    def on_close(self, callback: Callable[[Window], None]) -> None:
        """Call ``callback(window)`` at every window close, in order."""
        self._callbacks.append(callback)

    def _close(self, window: Window) -> None:
        self._snapshot_deltas(window)
        if len(self.windows) == self.windows.maxlen:
            self.evicted += 1
        self.windows.append(window)
        self.windows_closed += 1
        for callback in self._callbacks:
            callback(window)

    def finish(self) -> None:
        """End of run: nothing to close, since every
        :meth:`ingest_result` closes the windows it cuts."""

    # -- the one ingestion path ---------------------------------------------

    def ingest_result(
        self,
        arrival,
        latency,
        replica: Any,
        fast,
        dropped,
        buffered=None,
        labels=None,
        forensics=None,
    ) -> List[Window]:
        """Cut one finished run into windows and close them, in order.

        The run is its per-packet columns, one row per offered packet in
        offered order: ``arrival`` (the replay's offered time, ns),
        ``latency`` (its replayed latency), ``fast`` and ``dropped``
        (what the report that made its plan says) and ``buffered`` (a
        cluster held the packet for a frozen or dead home: it was never
        replayed, and its latency and flags are ignored).  ``replica``
        is one label for every row or a column of them.  A window never
        spans two runs, so ``on_close`` subscribers see a run's windows
        all at once, after it.  ``forensics`` (with ``labels``, each
        packet's forensic label) reduces over the cut windows before
        any of them closes (:meth:`ForensicsEngine.observe_run
        <repro.obs.forensics.ForensicsEngine.observe_run>`).
        """
        arrival = np.asarray(arrival, dtype=np.float64)
        n = len(arrival)
        if n == 0:
            return []
        latency = np.asarray(latency, dtype=np.float64)
        fast = np.asarray(fast, dtype=bool)
        dropped = np.asarray(dropped, dtype=bool)
        held = np.zeros(n, dtype=bool) if buffered is None else np.asarray(buffered, dtype=bool)
        ids = np.asarray(replica) if isinstance(replica, (list, np.ndarray)) else None
        order = None
        if self.window_ns is not None:
            slot = np.floor(arrival / self.window_ns)
            if (slot[1:] < slot[:-1]).any():
                # arrivals out of order (one replica's backpressure against
                # another's): group by slot, keeping offered order inside
                order = np.argsort(slot, kind="stable")
                slot = slot[order]
            cuts = (np.flatnonzero(slot[1:] != slot[:-1]) + 1).tolist()
        else:
            cuts = list(range(self.window_packets, n, self.window_packets))

        cut: List[Tuple[Window, np.ndarray]] = []
        for lo, hi in zip([0] + cuts, cuts + [n]):
            rows = np.arange(lo, hi) if order is None else order[lo:hi]
            if self.window_ns is not None:
                start = float(slot[lo]) * self.window_ns
                end = (float(slot[lo]) + 1) * self.window_ns
            else:
                start = float(arrival[rows].min())
                end = float(arrival[rows].max())
            window = Window(self.windows_closed + len(cut), start, end)
            _tally(window, held[rows], dropped[rows], latency[rows])
            if ids is None:
                groups = [(replica, rows)]
            else:
                at = ids[rows]
                groups = [(label, rows[at == label]) for label in np.unique(at).tolist()]
            for label, share_rows in groups:
                share = window.replicas[label] = ReplicaWindow(label)
                replayed = _tally(share, held[share_rows], dropped[share_rows], latency[share_rows])
                share.fast_hits = int(np.count_nonzero(fast[share_rows] & replayed))
            cut.append((window, rows))
        if forensics is not None:
            forensics.observe_run(
                cut, latency, replica if ids is None else ids, fast, held, labels
            )
        for window, __ in cut:
            self.total_packets += window.packets
            self.total_drops += window.drops
            self.total_buffered += window.buffered
            self._close(window)
        return [window for window, __ in cut]

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
