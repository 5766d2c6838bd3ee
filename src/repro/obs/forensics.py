"""Tail-latency forensics: per-packet decomposition, flight recorder and
regime-shift detection.

The rest of the observability stack can say *that* p99 regressed —
metrics give totals, spans give sampled flows, windows give trends.
What none of them answers is *why packet #8,431,207 took 40x the
median*.  This module closes that gap with three cooperating pieces:

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

- a **regime-shift detector** (:class:`RegimeShiftDetector`) — judges
  each closed window's exact p50/p99 against a trailing baseline and
  emits ``latency_regime_shift`` audit events naming the decomposition
  component that moved; a buffered-packet surge inside a window is an
  early stall-regime signal (those packets are accruing failover
  charge), so it fires the same event with ``component="stall"``
  *before* the recovery that will charge them completes.

There is one window sequence per run: the one
:meth:`~repro.obs.timeseries.TimeSeries.ingest_result` cuts.  The time
series hands :class:`ForensicsEngine` the windows it has cut, with each
packet's forensic label, before it closes them; the engine leaves each
window's sampled component sums on it, and the detector, subscribed to
the closing windows, reads them there.  All of it is **post-run**: an
absent engine costs nothing per packet and never disqualifies the
analytic or batch fast lanes.  The engine decomposes a
1-in-``sample_every`` stride of each window (plus every worst-K
survivor), which is what keeps the forensics cell inside the
obs-overhead benchmark's 5% gate.

Nothing here renders: :mod:`repro.obs.report` lays out the rows a loaded
record holds, grouped by :func:`group_forensics_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.obs.record import dump_jsonl
from repro.vector import np

#: decomposition component names, canonical summation order
COMPONENTS = ("service", "transfer", "stall", "queue")


# -- exact float decomposition ------------------------------------------------


def exact_residual(total: float, partial: float) -> float:
    """A float ``q`` with ``partial + q == total`` exactly, when one exists.

    The naive IEEE difference does *not* qualify in general —
    ``(a - b) + b != a`` for ``a = 2**52 + 3, b = 0.5`` — so this walks
    ``q`` by ulps from the naive starting point until the rounded sum
    reproduces ``total`` (in practice within two steps; it gives up after
    64).  An exact
    residual can fail to exist at round-half-even midpoints (the same
    ``2**52 + 3`` example: both neighbouring ``q`` values tie to an
    *even* sum while the target is odd); then the naive difference is
    returned and :func:`decompose` falls back to a queue-only split so
    the component-sum invariant still holds.
    """
    q = total - partial
    s = partial + q
    steps = 0
    while s != total and steps < 64:
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
    latency_ns: float, service_ns: float, transfer_ns: float
) -> Tuple[float, float, float, float]:
    """(queue, service, transfer, stall) summing exactly to ``latency_ns``.

    The canonical order is ``((service + transfer) + stall) + queue``;
    a replayed packet carries no stall (a charged stall is a
    :class:`StallCharge`), and the queue-wait is the exact residual
    against the known components.  If no exact residual exists (only
    possible for wildly inconsistent inputs), everything collapses into
    the queue term so the invariant *always* holds.
    """
    known = service_ns + transfer_ns
    queue = exact_residual(latency_ns, known)
    if (known + queue) != latency_ns:
        # No exact residual exists (round-half-even midpoint): collapse
        # to a queue-only split rather than break the invariant.
        return latency_ns, 0.0, 0.0, 0.0
    return queue, service_ns, transfer_ns, 0.0


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
    buffered packet delivered by failover is charged the simulated time
    from its arrival (from the kill, when it has no arrival stamp) to
    the start of its delivery on the recovery clock.  ``latency_ns`` is
    built in the canonical component order so the decomposition
    invariant holds by construction.
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
    most recent ``CAPACITY`` windows, so a long run's recorder stays
    bounded no matter how many windows it cuts.
    """

    CAPACITY = 256

    def __init__(self, worst_k: int = 8):
        if worst_k < 1:
            raise ValueError(f"worst_k must be >= 1, got {worst_k!r}")
        from collections import deque

        self.worst_k = worst_k
        self.entries: "Any" = deque(maxlen=self.CAPACITY)
        self.windows_recorded = 0
        self.windows_evicted = 0

    def record_window(self, window_summary: Dict[str, Any], worst: List[TailRecord]) -> None:
        if len(self.entries) == self.entries.maxlen:
            self.windows_evicted += 1
        self.entries.append((window_summary, list(worst)))
        self.windows_recorded += 1

    def worst_overall(self) -> List[TailRecord]:
        """The worst packets across every retained window, latency-desc."""
        records = [record for __, worst in self.entries for record in worst]
        records.sort(key=lambda r: (-r.latency_ns, r.index))
        return records


# -- the regime-shift detector ------------------------------------------------


class RegimeShiftDetector:
    """Each closed telemetry window against a trailing baseline; audits
    the shift.

    :meth:`attach` subscribes :meth:`observe` to a
    :class:`~repro.obs.timeseries.TimeSeries`, so every window of the
    run's one cut is judged once, by two rules that each fire a
    ``latency_regime_shift`` audit event:

    - the window's exact p50 or p99 exceeds ``FACTOR`` times the
      trailing median of the last ``BASELINE`` earlier windows (needs
      at least ``MIN_BASELINE`` of them); the event names the component
      with the largest sampled sum in the window (``window.components``,
      which the forensics engine fills before the window closes);
    - the window's buffered fraction crosses ``BUFFERED_FRACTION`` —
      those packets are accruing failover stall charge, so the stall
      regime has *already* shifted even though their charged latencies
      only materialise at recovery (this is the event that precedes
      ``ft_failover_complete`` in the degraded-before-dead test).  It
      fires once per surge.
    """

    FACTOR = 2.0
    BASELINE = 8
    MIN_BASELINE = 2
    BUFFERED_FRACTION = 0.05

    def __init__(self, audit: AuditLog = NULL_AUDIT):
        from collections import deque

        self.audit = audit
        self._p50s: "Any" = deque(maxlen=self.BASELINE)
        self._p99s: "Any" = deque(maxlen=self.BASELINE)
        self._buffered_regime = False
        self.shifts: List[Dict[str, Any]] = []

    def attach(self, timeseries) -> None:
        """Judge every window ``timeseries`` closes."""
        timeseries.on_close(self.observe)

    def forget(self) -> None:
        """Start from no baseline and no surge (a new ``repro scale``
        row); the shifts already emitted stay."""
        self._p50s.clear()
        self._p99s.clear()
        self._buffered_regime = False

    def _emit(self, **fields: Any) -> None:
        self.shifts.append(dict(fields))
        self.audit.emit("latency_regime_shift", **fields)

    def observe(self, window) -> None:
        """Both rules over one closed window, the latency rules against
        the windows observed before it."""
        packets = window.packets
        for metric, value, history in (
            ("p50", window.p50_ns, self._p50s),
            ("p99", window.p99_ns, self._p99s),
        ):
            if value is None:
                continue
            if len(history) >= self.MIN_BASELINE:
                base = sorted(history)[len(history) // 2]
                if base > 0 and value > self.FACTOR * base:
                    self._emit(
                        window=window.index,
                        metric=metric,
                        component=self._moved_component(window.components),
                        baseline=round(base, 3),
                        current=round(value, 3),
                        packets=packets,
                    )
            history.append(value)
        buffered = window.buffered
        if packets and buffered / packets >= self.BUFFERED_FRACTION:
            if not self._buffered_regime:
                self._buffered_regime = True
                self._emit(
                    window=window.index,
                    metric="buffered_fraction",
                    component="stall",
                    baseline=0.0,
                    current=round(buffered / packets, 4),
                    packets=packets,
                    buffered=buffered,
                )
        else:
            self._buffered_regime = False

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
    """Post-run tail-latency forensics over the run's one window cut.

    Attach one to a :class:`~repro.platform.base.Platform` (or a
    :class:`~repro.scale.cluster.ScaleCluster`) beside the
    :class:`~repro.obs.timeseries.TimeSeries` whose windows it reduces
    over — one is required, and not attaching an engine is the off
    switch.  After each loaded run the time series cuts the run's
    columns and hands the windows over (:meth:`observe_run`) before it
    closes them.  Per window the engine decomposes a
    1-in-``sample_every`` stride of the replayed packets into component
    sums, which it leaves on the window for the
    :class:`RegimeShiftDetector`, keeps the K worst replayed packets in
    the :class:`FlightRecorder`, and writes one row naming the window's
    index.  A buffered packet is neither: its stall arrives as a
    :class:`StallCharge` (:meth:`note_stall`) when recovery delivers it.
    """

    def __init__(
        self,
        worst_k: int = 8,
        sample_every: int = 16,
        audit: AuditLog = NULL_AUDIT,
    ):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every!r}")
        self.worst_k = worst_k
        self.sample_every = sample_every
        self.recorder = FlightRecorder(worst_k=worst_k)
        self.detector = RegimeShiftDetector(audit=audit)
        self.windows: List[Dict[str, Any]] = []
        self.stall_records: List[StallCharge] = []
        self.packets = 0
        self.sampled = 0
        self.totals = {name: 0.0 for name in COMPONENTS}

    # -- observation ---------------------------------------------------------

    def observe_run(self, cut, latency, replica, fast, held, labels) -> None:
        """Reduce over one run's windows, as the time series cut them.

        ``cut`` is ``[(window, rows)]`` in window order: each
        :class:`~repro.obs.timeseries.Window` with the indices of its
        packets in the run's columns.  ``latency``, ``fast`` and
        ``held`` (buffered or dropped: no delivered latency) are those
        columns, ``replica`` one label for
        every packet or a column of them, and ``labels`` each packet's
        forensic label, ``(service, transfer, stages, fid, lane)``
        (:meth:`~repro.platform.base.PlanTable.label_columns`: its plan's
        exact service / transfer split, hop count, flow id and replay).

        Worst-K selection is a whole-array operation per window; only
        the stride and the survivors are decomposed in Python, through
        :func:`decompose`, which is what keeps the split exact.  The
        stride runs over a window's delivered packets in offered order,
        which no replay can change.
        """
        service, transfer, stages, fid, lane = labels
        stride = self.sample_every

        def record(index: int, window: int) -> TailRecord:
            latency_ns = float(latency[index])
            queue, service_ns, transfer_ns, stall = decompose(
                latency_ns, float(service[index]), float(transfer[index])
            )
            return TailRecord(
                index=index,
                latency_ns=latency_ns,
                queue_ns=queue,
                service_ns=service_ns,
                transfer_ns=transfer_ns,
                stall_ns=stall,
                fid=int(fid[index]),
                replica=replica[index].item() if isinstance(replica, np.ndarray) else replica,
                lane=lane[index],
                stages=int(stages[index]),
                window=window,
                fast=bool(fast[index]),
            )

        for window, rows in cut:
            rows = rows[~held[rows]]
            picked = rows[stride - 1 :: stride]
            components = dict.fromkeys(COMPONENTS, 0.0)
            for latency_ns, service_ns, transfer_ns in zip(
                latency[picked].tolist(), service[picked].tolist(), transfer[picked].tolist()
            ):
                queue, service_ns, transfer_ns, stall = decompose(
                    latency_ns, service_ns, transfer_ns
                )
                components["queue"] += queue
                components["service"] += service_ns
                components["transfer"] += transfer_ns
                components["stall"] += stall
            window.components = components
            count = len(rows)
            worst = []
            if count:
                kept = min(self.worst_k, count)
                top = rows[np.argpartition(latency[rows], count - kept)[count - kept:]]
                worst = [record(index, window.index) for index in top.tolist()]
                worst.sort(key=lambda tail: (tail.latency_ns, -tail.index), reverse=True)
            row = {
                "type": "window",
                "window": window.index,
                "packets": window.packets,
                "sampled": len(picked),
                **{f"{name}_ns": total for name, total in components.items()},
            }
            self.packets += window.packets
            self.sampled += len(picked)
            for name, total in components.items():
                self.totals[name] += total
            self.windows.append(row)
            self.recorder.record_window(row, worst)

    def note_stall(self, charge: StallCharge) -> None:
        """Record one charged stall delivery (from the FT coordinator)."""
        self.stall_records.append(charge)
        self.totals["stall"] += charge.stall_ns
        self.totals["service"] += charge.service_ns

    # -- export ---------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        return {
            "type": "summary",
            "packets": self.packets,
            "sampled": self.sampled,
            "worst_k": self.worst_k,
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


# -- loading -------------------------------------------------------------------


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
