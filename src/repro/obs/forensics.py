"""Tail-latency forensics: per-packet decomposition, flight recorder,
regime-shift detection and the unified causal timeline.

The rest of the observability stack can say *that* p99 regressed —
metrics give totals, spans give sampled flows, windows give trends.
What none of them answers is *why packet #8,431,207 took 40x the
median*.  This module closes that gap with four cooperating pieces:

- **per-packet latency decomposition** — every packet's sojourn is
  split into four components that sum *exactly* (IEEE float equality)
  to the reported latency::

      latency == ((service + transfer) + stall) + queue

  evaluated left-to-right in that canonical order.  ``service`` is the
  chain-processing share of the packet's stage plan, ``transfer`` the
  platform transport overhead inside it (NIC amortisation, ring
  enqueue/dequeue, cross-core sync — split out via
  ``Platform._plan_transfer_ns``), ``stall`` any charged recovery /
  freeze time (:class:`StallCharge`), and ``queue`` the exact residual:
  time spent waiting behind other packets in the replayed pipeline.
  Exactness is constructive, not assumed — :func:`exact_residual`
  walks the residual by ulps until the canonical sum reproduces the
  latency bit-for-bit (the naive IEEE difference does *not* guarantee
  this: ``(a - b) + b != a`` for e.g. ``a = 2**52 + 3, b = 0.5``).

- a **worst-K flight recorder** (:class:`FlightRecorder`) — a bounded
  ring of per-window entries, each holding the K worst packets of its
  window with full causal context: flow id, stage count, component
  breakdown, lane, replica.

- a **regime-shift detector** (:class:`RegimeShiftDetector`) — watches
  windowed p50/p99 against a trailing baseline and emits
  ``latency_regime_shift`` audit events naming the decomposition
  component that moved; a buffered-packet surge inside a window is an
  early stall-regime signal (those packets are accruing failover
  charge), so it fires the same event with ``component="stall"``
  *before* the recovery that will charge them completes.

- a **unified causal timeline** (:func:`build_timeline`) — joins audit
  events, flow spans, telemetry windows and forensic stall/worst
  records on (time, replica, flow) into one ordered event stream.

All observation is **post-run**: :class:`ForensicsEngine` consumes a
finished replay's plans and timeline, so a disabled (or absent) engine
costs nothing per packet and never disqualifies the analytic or batch
fast lanes.  Enabled, the engine decomposes a 1-in-``sample_every``
stride (plus every worst-K survivor), which is what keeps the
forensics cell inside the obs-overhead benchmark's 5% gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.obs.record import dump_jsonl, load_jsonl
from repro.stats.summary import percentile_sorted
from repro.vector import np

#: decomposition component names, canonical summation order
COMPONENTS = ("service", "transfer", "stall", "queue")


# -- exact float decomposition ------------------------------------------------


def exact_residual(total: float, partial: float, max_steps: int = 64) -> float:
    """A float ``q`` with ``partial + q == total`` exactly, when one exists.

    The naive IEEE difference does *not* qualify in general —
    ``(a - b) + b != a`` for ``a = 2**52 + 3, b = 0.5`` — so this walks
    ``q`` by ulps from the naive starting point until the rounded sum
    reproduces ``total`` (in practice within two steps).  An exact
    residual can fail to exist at round-half-even midpoints (the same
    ``2**52 + 3`` example: both neighbouring ``q`` values tie to an
    *even* sum while the target is odd); then the naive difference is
    returned and :func:`decompose` falls back to a queue-only split so
    the component-sum invariant still holds.
    """
    q = total - partial
    s = partial + q
    steps = 0
    while s != total and steps < max_steps:
        q = math.nextafter(q, math.inf if s < total else -math.inf)
        s = partial + q
        steps += 1
    if s != total:
        return total - partial
    return q


def split_plan_total(plan_total: float, transfer_estimate: float) -> Tuple[float, float]:
    """Split a stage plan's total service time into (service, transfer).

    ``transfer_estimate`` is clamped into ``[0, plan_total]``, then the
    service share is adjusted by ulps until ``service + transfer``
    reproduces ``plan_total`` exactly — the plan-level analogue of
    :func:`exact_residual`, so the decomposition invariant survives
    the split.  A degenerate estimate collapses to (plan_total, 0).
    """
    if not plan_total > 0.0:
        return plan_total, 0.0
    transfer = min(max(transfer_estimate, 0.0), plan_total)
    service = exact_residual(plan_total, transfer)
    if service + transfer != plan_total:
        # Midpoint case (see exact_residual): attribute everything to
        # service so the plan-level identity stays exact.
        return plan_total, 0.0
    return service, transfer


def decompose(
    latency_ns: float,
    service_ns: float,
    transfer_ns: float,
    stall_ns: float = 0.0,
) -> Tuple[float, float, float, float]:
    """(queue, service, transfer, stall) summing exactly to ``latency_ns``.

    The canonical order is ``((service + transfer) + stall) + queue``;
    the queue-wait is the exact residual against the known components.
    If no exact residual exists (only possible for wildly inconsistent
    inputs), everything collapses into the queue term so the invariant
    *always* holds.
    """
    known = (service_ns + transfer_ns) + stall_ns
    queue = exact_residual(latency_ns, known)
    if (known + queue) != latency_ns:
        # No exact residual exists (round-half-even midpoint): collapse
        # to a queue-only split rather than break the invariant.
        return latency_ns, 0.0, 0.0, 0.0
    return queue, service_ns, transfer_ns, stall_ns


def components_sum(
    queue_ns: float, service_ns: float, transfer_ns: float, stall_ns: float
) -> float:
    """The canonical left-to-right component sum (what tests compare)."""
    return ((service_ns + transfer_ns) + stall_ns) + queue_ns


# -- records ------------------------------------------------------------------


@dataclass
class StallCharge:
    """One packet's charged stall: recovery / freeze time on its clock.

    Produced by the FT coordinator when ``charge_recovery`` is on: a
    buffered packet delivered by failover is charged the wall time from
    failure detection to its delivery, mapped onto the simulated
    timeline.  ``latency_ns`` is built in the canonical component order
    so the decomposition invariant holds by construction.
    """

    replica: Any
    flow: str
    arrival_ns: float
    stall_ns: float
    service_ns: float
    cause: str = "failover"

    @property
    def latency_ns(self) -> float:
        return components_sum(0.0, self.service_ns, 0.0, self.stall_ns)

    def summary(self) -> Dict[str, Any]:
        return {
            "type": "stall",
            "replica": self.replica,
            "flow": self.flow,
            "arrival_ns": self.arrival_ns,
            "stall_ns": self.stall_ns,
            "service_ns": self.service_ns,
            "latency_ns": self.latency_ns,
            "cause": self.cause,
            "dominant": "stall" if self.stall_ns >= self.service_ns else "service",
        }


class TailRecord:
    """One decomposed packet (a worst-K survivor or a sampled stride)."""

    __slots__ = (
        "index",
        "fid",
        "replica",
        "lane",
        "latency_ns",
        "queue_ns",
        "service_ns",
        "transfer_ns",
        "stall_ns",
        "stages",
        "window",
        "fast",
    )

    def __init__(
        self,
        index: int,
        latency_ns: float,
        queue_ns: float,
        service_ns: float,
        transfer_ns: float,
        stall_ns: float,
        fid: Optional[int] = None,
        replica: Any = None,
        lane: str = "analytic",
        stages: int = 0,
        window: int = 0,
        fast: Optional[bool] = None,
    ):
        self.index = index
        self.fid = fid
        self.replica = replica
        self.lane = lane
        self.latency_ns = latency_ns
        self.queue_ns = queue_ns
        self.service_ns = service_ns
        self.transfer_ns = transfer_ns
        self.stall_ns = stall_ns
        self.stages = stages
        self.window = window
        self.fast = fast

    @property
    def dominant(self) -> str:
        shares = {
            "queue": self.queue_ns,
            "service": self.service_ns,
            "transfer": self.transfer_ns,
            "stall": self.stall_ns,
        }
        # Deterministic tie-break in canonical component order.
        best = max(COMPONENTS, key=lambda name: (shares[name], -COMPONENTS.index(name)))
        return best

    def summary(self) -> Dict[str, Any]:
        return {
            "type": "worst",
            "index": self.index,
            "fid": self.fid,
            "replica": self.replica,
            "lane": self.lane,
            "window": self.window,
            "latency_ns": self.latency_ns,
            "queue_ns": self.queue_ns,
            "service_ns": self.service_ns,
            "transfer_ns": self.transfer_ns,
            "stall_ns": self.stall_ns,
            "stages": self.stages,
            "fast": self.fast,
            "dominant": self.dominant,
        }


# -- the worst-K flight recorder ----------------------------------------------


class FlightRecorder:
    """Bounded ring of per-window worst-K packet records.

    Each closed window contributes one entry holding its K worst
    packets (by latency) with full causal context; the ring keeps the
    most recent ``capacity`` windows, so a long run's recorder stays
    bounded no matter how many windows it cuts.
    """

    def __init__(self, worst_k: int = 8, capacity: int = 256):
        if worst_k < 1:
            raise ValueError(f"worst_k must be >= 1, got {worst_k!r}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        from collections import deque

        self.worst_k = worst_k
        self.capacity = capacity
        self.entries: "Any" = deque(maxlen=capacity)
        self.windows_recorded = 0
        self.windows_evicted = 0

    def record_window(self, window_summary: Dict[str, Any], worst: List[TailRecord]) -> None:
        if len(self.entries) == self.entries.maxlen:
            self.windows_evicted += 1
        self.entries.append((window_summary, list(worst)))
        self.windows_recorded += 1

    def worst_overall(self, top: Optional[int] = None) -> List[TailRecord]:
        """The worst packets across every retained window, latency-desc."""
        records = [record for __, worst in self.entries for record in worst]
        records.sort(key=lambda r: (-r.latency_ns, r.index))
        return records if top is None else records[:top]


# -- the regime-shift detector ------------------------------------------------


class RegimeShiftDetector:
    """Windowed p50/p99 vs a trailing baseline; audits the shift.

    Consumes window *summaries* (dicts carrying ``p50_ns``/``p99_ns``/
    ``packets``/``buffered``), so the same detector watches live
    :class:`~repro.obs.timeseries.TimeSeries` windows (mid-run) and the
    forensics engine's own post-run windows.  Two rules fire a
    ``latency_regime_shift`` audit event:

    - a window's p50 or p99 exceeds ``factor`` times the trailing
      median of the last ``baseline`` windows (needs at least
      ``min_baseline`` of them), component attribution from the
      forensic component sums when the caller supplies them;
    - a window's buffered fraction crosses ``buffered_fraction`` —
      those packets are accruing failover stall charge, so the stall
      regime has *already* shifted even though their charged latencies
      only materialise at recovery (this is the event that precedes
      ``ft_failover_complete`` in the degraded-before-dead test).
    """

    def __init__(
        self,
        audit: AuditLog = NULL_AUDIT,
        factor: float = 2.0,
        baseline: int = 8,
        min_baseline: int = 2,
        buffered_fraction: float = 0.05,
    ):
        from collections import deque

        if factor <= 1.0:
            raise ValueError(f"factor must be > 1, got {factor!r}")
        self.audit = audit
        self.factor = factor
        self.min_baseline = min_baseline
        self.buffered_fraction = buffered_fraction
        self._p50s: "Any" = deque(maxlen=baseline)
        self._p99s: "Any" = deque(maxlen=baseline)
        self._buffered_regime = False
        self.shifts: List[Dict[str, Any]] = []

    def attach(self, timeseries) -> None:
        """Subscribe to a TimeSeries: every closing window is observed."""
        timeseries.on_close(lambda window: self.observe_summary(window.summary()))

    @staticmethod
    def _baseline(samples: Sequence[float]) -> Optional[float]:
        if not samples:
            return None
        ordered = sorted(samples)
        return ordered[len(ordered) // 2]

    def _emit(self, **fields: Any) -> None:
        event = dict(fields)
        self.shifts.append(event)
        self.audit.emit("latency_regime_shift", **fields)

    def observe_summary(
        self,
        summary: Dict[str, Any],
        components: Optional[Dict[str, float]] = None,
    ) -> None:
        """Fold one closed window in; maybe emit ``latency_regime_shift``."""
        window = summary.get("index", summary.get("window"))
        packets = summary.get("packets") or 0
        buffered = summary.get("buffered") or 0
        if packets and buffered / packets >= self.buffered_fraction:
            if not self._buffered_regime:
                self._buffered_regime = True
                self._emit(
                    window=window,
                    metric="buffered_fraction",
                    component="stall",
                    baseline=0.0,
                    current=round(buffered / packets, 4),
                    packets=packets,
                    buffered=buffered,
                )
        else:
            self._buffered_regime = False

        for metric, value, history in (
            ("p50", summary.get("p50_ns"), self._p50s),
            ("p99", summary.get("p99_ns"), self._p99s),
        ):
            if value is None:
                continue
            base = self._baseline(history)
            if (
                base is not None
                and len(history) >= self.min_baseline
                and base > 0
                and value > self.factor * base
            ):
                self._emit(
                    window=window,
                    metric=metric,
                    component=self._moved_component(components),
                    baseline=round(base, 3),
                    current=round(value, 3),
                    packets=packets,
                )
            history.append(value)

    @staticmethod
    def _moved_component(components: Optional[Dict[str, float]]) -> str:
        if not components:
            return "unknown"
        return max(COMPONENTS, key=lambda name: components.get(name, 0.0))


#: module-level helper so the FT coordinator can audit a stall regime
#: shift without constructing a detector (its audit log is enough)
def emit_recovery_regime_shift(
    audit: AuditLog,
    replica: Any,
    stalls: Sequence[float],
) -> None:
    if not stalls:
        return
    ordered = sorted(stalls)
    audit.emit(
        "latency_regime_shift",
        window=None,
        metric="stall_charge",
        component="stall",
        baseline=0.0,
        current=round(ordered[len(ordered) // 2], 3),
        stall_max_ns=round(ordered[-1], 3),
        packets=len(stalls),
        replica=replica,
    )


# -- the engine ---------------------------------------------------------------


class ForensicsEngine:
    """Post-run tail-latency forensics over every execution lane.

    Attach one to a :class:`~repro.platform.base.Platform` (or a
    :class:`~repro.scale.cluster.ScaleCluster`); after each loaded run
    the platform hands over the plans and the replay's timeline
    (:meth:`observe_run`), whichever replay produced it.  Unloaded
    sweeps can feed their outcomes through :meth:`observe_outcomes`.
    The engine cuts the run into ``window_packets`` windows (packet
    order, so a run's rows do not depend on its replay), accumulates
    component sums on a 1-in-``sample_every`` stride, keeps the K worst
    packets per window in the :class:`FlightRecorder`, and runs its
    :class:`RegimeShiftDetector` over the closing windows.

    ``enabled=False`` (or not attaching one at all) costs nothing: the
    platforms check the flag once per *run*, never per packet.
    """

    def __init__(
        self,
        worst_k: int = 8,
        window_packets: int = 4096,
        sample_every: int = 16,
        ring_capacity: int = 256,
        audit: AuditLog = NULL_AUDIT,
        detector: Optional[RegimeShiftDetector] = None,
        enabled: bool = True,
        record_all: bool = False,
    ):
        if window_packets < 1:
            raise ValueError(f"window_packets must be >= 1, got {window_packets!r}")
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every!r}")
        self.enabled = enabled
        self.worst_k = worst_k
        self.window_packets = window_packets
        self.sample_every = sample_every
        self.audit = audit
        self.recorder = FlightRecorder(worst_k=worst_k, capacity=ring_capacity)
        self.detector = detector or RegimeShiftDetector(audit=audit)
        #: keep a TailRecord for *every* packet (tests only — the
        #: exactness suites iterate them; unbounded, never the default)
        self.record_all = record_all
        self.records: List[TailRecord] = []
        self.windows: List[Dict[str, Any]] = []
        self.stall_records: List[StallCharge] = []
        self.runs = 0
        self.packets = 0
        self.sampled = 0
        self.totals = {name: 0.0 for name in COMPONENTS}

    # -- plan cost bookkeeping ----------------------------------------------

    @staticmethod
    def _plan_total(plan) -> float:
        total = 0.0
        for __, service_ns in plan:
            total += service_ns
        return total

    def _cost_fn(self, plans, transfers) -> Callable[[int], Tuple[float, float, int]]:
        """Per-index (service, transfer, stages) with per-plan caching.

        ``transfers`` maps ``id(plan)`` to the plan's transfer estimate
        (:meth:`Platform._plan_transfer_ns` of the report that made the
        plan, taken on its first sight by whoever ran it); the split is
        exact per plan.
        """
        cache: Dict[int, Tuple[float, float, int]] = {}

        def costs(index: int) -> Tuple[float, float, int]:
            plan = plans[index]
            key = id(plan)
            hit = cache.get(key)
            if hit is not None:
                return hit
            service, transfer = split_plan_total(self._plan_total(plan), transfers[key])
            entry = cache[key] = (service, transfer, len(plan))
            return entry

        return costs

    # -- observation ---------------------------------------------------------

    def observe_run(
        self,
        plans: Sequence,
        arrival,
        finish,
        transfers: Dict[int, float],
        replica: Any = None,
        lane: str = "analytic",
        fids: Optional[Sequence[int]] = None,
        fast_flags: Optional[Sequence[bool]] = None,
    ) -> None:
        """Decompose one run from its timeline, whichever replay made it.

        ``arrival`` and ``finish`` are the replay's two columns, indexed
        by packet like ``plans``; ``fids`` / ``fast_flags`` label packet
        ``i`` at ``[i]`` (a sequence that raises for an unknown packet
        leaves the label absent) and ``transfers`` is :meth:`_cost_fn`'s.

        This loop is the one window aggregator: a window is a contiguous
        slice of ``finish - arrival`` in packet order — the order no
        replay can change, so neither can it change which packets the
        1-in-``sample_every`` stride lands on.  Latency sums, maxima,
        worst-K and stride selection are whole-array operations (a
        Python iteration per packet would cost more than the forensics
        budget allows against the compiled fast path); only the stride
        is decomposed in Python, through :func:`decompose`, which is
        what keeps the split exact.  ``record_all`` decomposes every
        packet: stride 1.
        """
        if not self.enabled or not len(finish):
            return
        latencies = np.asarray(finish, dtype=np.float64) - np.asarray(
            arrival, dtype=np.float64
        )
        costs = self._cost_fn(plans, transfers)
        labels = (costs, fids, replica, lane, fast_flags)  # what _record takes
        window_packets = self.window_packets
        stride = 1 if self.record_all else self.sample_every
        self.runs += 1
        for start in range(0, len(latencies), window_packets):
            seg = latencies[start : start + window_packets]
            count = len(seg)
            samples = np.arange(stride - 1, count, stride)
            sampled = seg[samples].tolist()
            components = dict.fromkeys(("queue", "service", "transfer", "stall"), 0.0)
            for offset, latency in zip(samples.tolist(), sampled):
                service, transfer, __ = costs(start + offset)
                queue, service, transfer, stall = decompose(latency, service, transfer)
                components["queue"] += queue
                components["service"] += service
                components["transfer"] += transfer
                components["stall"] += stall
            if self.record_all:
                self.records.extend(
                    self._record(start + offset, latency, *labels)
                    for offset, latency in enumerate(sampled)
                )
            self.packets += count
            self.sampled += len(sampled)
            for name, total in components.items():
                self.totals[name] += total
            sampled.sort()
            summary = {
                "type": "window",
                "run": self.runs,
                "window": start // window_packets,
                "replica": replica,
                "lane": lane,
                "packets": count,
                "sampled": len(sampled),
                "latency_sum_ns": float(seg.sum()),
                "max_ns": float(seg.max()),
                **{f"{name}_ns": total for name, total in components.items()},
                "p50_ns": percentile_sorted(sampled, 0.50) if sampled else None,
                "p99_ns": percentile_sorted(sampled, 0.99) if sampled else None,
            }
            worst_k = min(self.worst_k, count)
            worst = [
                self._record(start + offset, float(seg[offset]), *labels)
                for offset in np.argpartition(seg, count - worst_k)[count - worst_k:].tolist()
            ]
            worst.sort(key=lambda record: (record.latency_ns, -record.index), reverse=True)
            self.windows.append(summary)
            self.recorder.record_window(summary, worst)
            self.detector.observe_summary(summary, components=components)

    def observe_outcomes(
        self, platform, outcomes: Sequence, replica: Any = None
    ) -> None:
        """Decompose unloaded outcomes (sweep mode: no queueing, queue~0)."""
        if not self.enabled or not outcomes:
            return
        reports = [outcome.report for outcome in outcomes]
        plans = [platform._stage_plan(report) for report in reports]
        self.observe_run(
            plans,
            np.zeros(len(outcomes)),
            [outcome.latency_ns for outcome in outcomes],
            {id(plan): platform._plan_transfer_ns(report) for plan, report in zip(plans, reports)},
            replica=replica,
            lane="unloaded",
            fids=[report.fid for report in reports],
            fast_flags=[report.is_fast for report in reports],
        )

    def note_stall(self, charge: StallCharge) -> None:
        """Record one charged stall delivery (from the FT coordinator)."""
        if not self.enabled:
            return
        self.stall_records.append(charge)
        self.totals["stall"] += charge.stall_ns
        self.totals["service"] += charge.service_ns

    # -- internals ------------------------------------------------------------

    def _record(
        self, index, latency, costs, fids, replica, lane, fast_flags
    ) -> TailRecord:
        service, transfer, stages = costs(index)
        queue, service, transfer, stall = decompose(latency, service, transfer)
        fid = None
        if fids is not None:
            try:
                fid = fids[index]
            except (IndexError, KeyError, TypeError):
                fid = None
        fast = None
        if fast_flags is not None:
            try:
                fast = bool(fast_flags[index])
            except (IndexError, KeyError, TypeError):
                fast = None
        return TailRecord(
            index=index,
            latency_ns=latency,
            queue_ns=queue,
            service_ns=service,
            transfer_ns=transfer,
            stall_ns=stall,
            fid=fid,
            replica=replica,
            lane=lane,
            stages=stages,
            window=index // self.window_packets,
            fast=fast,
        )

    # -- export ---------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        return {
            "type": "summary",
            "runs": self.runs,
            "packets": self.packets,
            "sampled": self.sampled,
            "worst_k": self.worst_k,
            "window_packets": self.window_packets,
            "sample_every": self.sample_every,
            "windows": len(self.windows),
            "stall_records": len(self.stall_records),
            "regime_shifts": len(self.detector.shifts),
            "components": {name: self.totals[name] for name in COMPONENTS},
        }

    def rows(self) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = [self.summary()]
        out.extend(self.windows)
        for __, worst in self.recorder.entries:
            out.extend(record.summary() for record in worst)
        out.extend(charge.summary() for charge in self.stall_records)
        for shift in self.detector.shifts:
            row = {"type": "regime_shift"}
            row.update(shift)
            out.append(row)
        return out

    def write_jsonl(self, path) -> int:
        return dump_jsonl(path, self.rows())

    def reset(self) -> None:
        self.recorder = FlightRecorder(
            worst_k=self.worst_k, capacity=self.recorder.capacity
        )
        self.records.clear()
        self.windows.clear()
        self.stall_records.clear()
        self.runs = 0
        self.packets = 0
        self.sampled = 0
        self.totals = {name: 0.0 for name in COMPONENTS}


# -- loading / timeline / rendering -------------------------------------------


def group_forensics_rows(rows: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Forensics rows (:meth:`ForensicsEngine.rows`) grouped by row type."""
    grouped: Dict[str, Any] = {
        "summary": {}, "windows": [], "worst": [], "stalls": [], "regime_shifts": [],
    }
    plural = {"window": "windows", "worst": "worst", "stall": "stalls",
              "regime_shift": "regime_shifts"}
    for row in rows:
        kind = row.get("type")
        if kind == "summary":
            grouped["summary"] = row
        elif kind in plural:
            grouped[plural[kind]].append(row)
    return grouped


def load_forensics_jsonl(path) -> Dict[str, Any]:
    """Read a record's ``forensics.jsonl`` back, grouped by row type."""
    return group_forensics_rows(load_jsonl(path))


def build_timeline(
    audit: Optional[Sequence[Dict[str, Any]]] = None,
    spans: Optional[Sequence[Dict[str, Any]]] = None,
    windows: Optional[Sequence[Dict[str, Any]]] = None,
    forensics: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Join the run's artifacts into one ordered causal event stream.

    Every event normalizes to ``{t, source, kind, replica, flow,
    detail}``.  Audit events order by their monotone ``seq`` (the
    control-plane causal order); spans and windows carry simulated-time
    stamps; forensic stall/worst records carry arrival stamps.  The
    stream sorts on ``(t, source-priority, seq)`` so equal-time events
    keep a deterministic, audit-causal order — queryable by replica,
    flow or time range with plain list comprehensions.
    """
    events: List[Dict[str, Any]] = []
    if audit:
        for event in audit:
            events.append(
                {
                    "t": float(event.get("seq", 0)),
                    "source": "audit",
                    "kind": event.get("kind", "?"),
                    "replica": event.get("replica"),
                    "flow": event.get("flow"),
                    "detail": {
                        k: v
                        for k, v in event.items()
                        if k not in ("kind", "replica", "flow")
                    },
                }
            )
    if spans:
        for record in spans:
            if record.get("depth") != 0:
                continue
            args = record.get("args", {})
            start = args.get("sim_arrival_ns", record.get("start_ns", 0.0))
            events.append(
                {
                    "t": float(start or 0.0),
                    "source": "span",
                    "kind": "flow_span",
                    "replica": None,
                    "flow": args.get("fid"),
                    "detail": {
                        "latency_ns": args.get("sim_latency_ns", record.get("dur_ns")),
                        "path": args.get("path"),
                    },
                }
            )
    if windows:
        for row in windows:
            events.append(
                {
                    "t": float(row.get("start_ns") or 0.0),
                    "source": "window",
                    "kind": "telemetry_window",
                    "replica": None,
                    "flow": None,
                    "detail": {
                        "index": row.get("index"),
                        "packets": row.get("packets"),
                        "buffered": row.get("buffered"),
                        "p99_ns": row.get("p99_ns"),
                    },
                }
            )
    if forensics:
        for row in forensics.get("stalls", []):
            events.append(
                {
                    "t": float(row.get("arrival_ns") or 0.0),
                    "source": "forensics",
                    "kind": "stall_charge",
                    "replica": row.get("replica"),
                    "flow": row.get("flow"),
                    "detail": {
                        "stall_ns": row.get("stall_ns"),
                        "cause": row.get("cause"),
                    },
                }
            )
        for row in forensics.get("worst", []):
            events.append(
                {
                    "t": float(row.get("index") or 0),
                    "source": "forensics",
                    "kind": "worst_packet",
                    "replica": row.get("replica"),
                    "flow": row.get("fid"),
                    "detail": {
                        "latency_ns": row.get("latency_ns"),
                        "dominant": row.get("dominant"),
                        "window": row.get("window"),
                    },
                }
            )
    priority = {"audit": 0, "window": 1, "span": 2, "forensics": 3}
    events.sort(key=lambda e: (e["t"], priority.get(e["source"], 9)))
    return events


def _us(value: Optional[float]) -> str:
    return "-" if value is None else f"{value / 1000.0:.2f}"


def render_forensics(data: Dict[str, Any], top: int = 5) -> str:
    """The ``repro obs report`` forensics section."""
    from repro.stats.tables import format_table

    summary = data.get("summary", {})
    components = summary.get("components", {})
    total = sum(components.get(name, 0.0) for name in COMPONENTS)
    lines = [
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
        lines.append(
            format_table(["component", "total ms", "share"], rows,
                         title="component attribution (sampled)")
        )
    worst = sorted(
        data.get("worst", []), key=lambda r: -(r.get("latency_ns") or 0.0)
    )[:top]
    if worst:
        rows = [
            [
                record.get("index"),
                record.get("fid") if record.get("fid") is not None else "-",
                str(record.get("replica") if record.get("replica") is not None else "-"),
                _us(record.get("latency_ns")),
                _us(record.get("queue_ns")),
                _us(record.get("service_ns")),
                _us(record.get("transfer_ns")),
                _us(record.get("stall_ns")),
                record.get("dominant", "-"),
            ]
            for record in worst
        ]
        lines.append(
            format_table(
                ["pkt", "flow", "replica", "lat us", "queue", "service",
                 "transfer", "stall", "dominant"],
                rows,
                title=f"worst {len(rows)} packets",
            )
        )
    return "\n\n".join(lines)


def render_explain(
    data: Dict[str, Any],
    audit: Optional[Sequence[Dict[str, Any]]] = None,
    spans: Optional[Sequence[Dict[str, Any]]] = None,
    windows: Optional[Sequence[Dict[str, Any]]] = None,
    top: int = 10,
) -> str:
    """``repro obs explain``: tail table + attribution + correlated causes."""
    from repro.stats.tables import format_table

    blocks = ["repro obs explain\n=================", render_forensics(data, top=top)]

    stalls = data.get("stalls", [])
    if stalls:
        dominant_stall = sum(1 for s in stalls if s.get("dominant") == "stall")
        worst_stall = max(stalls, key=lambda s: s.get("stall_ns") or 0.0)
        blocks.append(
            "\n".join(
                [
                    f"stall charges ({len(stalls)} packets)",
                    f"  stall-dominant  : {dominant_stall}/{len(stalls)} packets",
                    f"  worst stall     : {_us(worst_stall.get('stall_ns'))} us "
                    f"(flow {worst_stall.get('flow')}, cause "
                    f"{worst_stall.get('cause')})",
                ]
            )
        )

    shifts = list(data.get("regime_shifts", []))
    if audit:
        seen = {
            (s.get("window"), s.get("metric"), s.get("current")) for s in shifts
        }
        for event in audit:
            if event.get("kind") != "latency_regime_shift":
                continue
            key = (event.get("window"), event.get("metric"), event.get("current"))
            if key not in seen:
                shifts.append(event)
    if shifts:
        lines = [f"regime shifts ({len(shifts)})"]
        for shift in shifts:
            lines.append(
                f"  window={shift.get('window')} metric={shift.get('metric')}"
                f" component={shift.get('component')}"
                f" baseline={shift.get('baseline')} current={shift.get('current')}"
            )
        blocks.append("\n".join(lines))

    if audit:
        interesting = (
            "ft_kill", "ft_buffer", "ft_restore", "ft_replay",
            "ft_failover_complete", "migration_freeze", "migration_replay",
            "fastpath_invalidate", "latency_regime_shift",
            "health_degraded", "health_critical", "slo_burn_alert",
        )
        counts: Dict[str, int] = {}
        for event in audit:
            kind = event.get("kind", "?")
            if kind in interesting:
                counts[kind] = counts.get(kind, 0) + 1
        if counts:
            rows = [[kind, counts[kind]] for kind in interesting if kind in counts]
            blocks.append(
                format_table(
                    ["correlated cause", "events"], rows, title="correlated causes"
                )
            )
        timeline = build_timeline(
            audit=audit, spans=spans, windows=windows, forensics=data
        )
        tail = [e for e in timeline if e["source"] in ("audit", "forensics")][-8:]
        if tail:
            lines = ["causal timeline (tail)"]
            for event in tail:
                where = []
                if event.get("replica") is not None:
                    where.append(f"replica={event['replica']}")
                if event.get("flow") is not None:
                    where.append(f"flow={event['flow']}")
                lines.append(
                    f"  [{event['source']}] {event['kind']} "
                    + " ".join(where)
                )
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
