"""Platform base: turning cycle meters into time, and timing into load.

A platform wraps either the baseline :class:`~repro.core.framework.ServiceChain`
or a :class:`~repro.core.framework.SpeedyBox` runtime and provides two
measurement modes:

- :meth:`Platform.process` — one packet at a time, unloaded: returns a
  :class:`PacketOutcome` with *work* cycles (total CPU spent, what the
  paper's "CPU cycle per packet" figures report) and *latency* cycles
  (wall-clock through the chain, where parallel state-function waves cost
  max-over-wave instead of sum).
- :meth:`Platform.run_load` — drive a whole packet sequence through the
  discrete-event engine to measure throughput and loaded latency.  The
  run is two-phase: packets are first processed functionally (collecting
  per-stage service times), then replayed temporally through the
  platform's core/pipeline topology.

Subclasses define the transport costs and the stage topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.framework import PathTaken, ProcessReport, ServiceChain, SpeedyBox
from repro.net.packet import Packet
from repro.obs.hooks import CountingObserver, FanoutObserver, TracingObserver
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.obs.span import FlowSpanRecorder
from repro.obs.timeline import trace_unloaded
from repro.obs.trace import NULL_TRACER, PacketTracer
from repro.platform.costs import CostModel, CycleMeter, Operation
from repro.sim import Engine, Get, Put, Request, Resource, Store, Timeout
from repro.sim import analytic as sim_analytic
from repro.sim.analytic import analytic_replay, plans_are_analytic
from repro.stats.summary import percentile_sorted
from repro.vector import np


@dataclass
class PlatformConfig:
    """Knobs shared by both platforms."""

    cost_model: CostModel = field(default_factory=CostModel)
    #: worker cores available for parallel state-function waves
    worker_cores: int = 3
    #: ring capacity between pipeline stages (ONVM)
    ring_capacity: int = 4096
    #: DPDK-style RX/TX batching: driver costs amortise over the batch.
    #: 1 (default) = per-packet I/O; 32 is the typical DPDK burst.
    batch_size: int = 1

    def __post_init__(self):
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size!r}")


@dataclass
class PacketOutcome:
    """The timing result for one packet in unloaded mode.

    Three cycle counts, because the platforms are multi-core:

    - ``work_cycles`` — total CPU cycles spent anywhere (main core +
      workers + fork/join overhead);
    - ``latency_cycles`` — wall-clock through the chain (parallel waves
      cost max-over-wave, not sum);
    - ``main_core_cycles`` — cycles *executed* on the dispatching core
      (parallel waves contribute only their fork/join/sync overhead;
      the batches themselves run on worker cores).  This is what the
      paper's per-packet CPU counters on the chain core report.
    """

    packet: Packet
    report: ProcessReport
    work_cycles: float
    latency_cycles: float
    main_core_cycles: float
    latency_ns: float
    dropped: bool

    @property
    def path(self) -> PathTaken:
        return self.report.path

    @property
    def latency_us(self) -> float:
        return self.latency_ns / 1000.0


@dataclass(eq=False)
class LoadResult:
    """The result of a loaded run (throughput mode).

    ``latencies_ns`` is one float64 column in delivery order (a sequence
    passed in is converted); consumers that iterate it take ``.tolist()``
    slices, so no numpy scalar reaches an artifact or a printed value.
    """

    offered: int
    delivered: int
    dropped: int
    makespan_ns: float
    latencies_ns: np.ndarray
    #: ``(column, sorted copy)`` from the first percentile query, reused
    #: while ``latencies_ns`` is still that column
    _sorted_latencies: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.latencies_ns = np.asarray(self.latencies_ns, dtype=np.float64)

    def __eq__(self, other) -> bool:
        """Exact equality: the counts, the makespan and every latency in
        delivery order."""
        if not isinstance(other, LoadResult):
            return NotImplemented
        return (
            self.offered == other.offered
            and self.delivered == other.delivered
            and self.dropped == other.dropped
            and self.makespan_ns == other.makespan_ns
            and np.array_equal(self.latencies_ns, other.latencies_ns)
        )

    @property
    def throughput_mpps(self) -> float:
        if self.makespan_ns <= 0:
            return 0.0
        return (self.delivered + self.dropped) / (self.makespan_ns / 1000.0)

    def latency_percentile(self, fraction: float) -> float:
        """Nearest-rank percentile of the loaded latencies.

        Delegates to :func:`repro.stats.summary.percentile_sorted` (rank
        = ``ceil(fraction * n)``); the previous ``int(fraction * n)``
        index was biased low for small samples — p100 of a 4-sample
        list only hit the maximum via the clamp.  The sort is cached:
        sweeps query p50/p90/p99 off one multi-thousand-sample run.
        """
        samples = self.latencies_ns
        if not len(samples):
            return 0.0
        cached = self._sorted_latencies
        if cached is None or cached[0] is not samples:
            cached = self._sorted_latencies = (samples, np.sort(samples))
        return float(percentile_sorted(cached[1], fraction))

    def merge(self, other: "LoadResult") -> "LoadResult":
        """Combine two runs as if their packets shared one run.

        Packet counts add; latency *samples* concatenate, so percentiles
        of the merged result are computed over the raw population — not
        averaged from the parts' pre-computed percentiles, which would
        be statistically wrong (the p99 of two replicas is not the mean
        of their p99s).  The makespan is the later finish line: the runs
        are taken to start at the same instant, which is exactly how a
        multi-replica cluster drives its replicas.
        """
        return LoadResult.merged((self, other))

    @classmethod
    def merged(cls, results: Sequence["LoadResult"]) -> "LoadResult":
        """:meth:`merge` over any number of per-replica results, with one
        concatenation of their columns."""
        return cls(
            offered=sum(result.offered for result in results),
            delivered=sum(result.delivered for result in results),
            dropped=sum(result.dropped for result in results),
            makespan_ns=max([0.0] + [result.makespan_ns for result in results]),
            latencies_ns=np.concatenate(
                [np.empty(0)] + [result.latencies_ns for result in results]
            ),
        )


def load_result(arrival, finish, dropped: int) -> LoadResult:
    """The result of a run from its timeline — the one place one is built.

    ``arrival`` and ``finish`` are the two per-packet columns every
    replay returns.  Latencies are ``finish - arrival`` reported in
    finish order (what a sink at the end of the pipeline sees), packet
    order on ties; the stable sort is skipped when ``finish`` is already
    non-decreasing, which every single-stage run is.
    """
    arrival = np.asarray(arrival, dtype=np.float64)
    finish = np.asarray(finish, dtype=np.float64)
    offered = len(finish)
    latencies = finish - arrival
    if (finish[1:] < finish[:-1]).any():
        latencies = latencies[np.argsort(finish, kind="stable")]
    return LoadResult(
        offered=offered,
        delivered=offered - dropped,
        dropped=dropped,
        makespan_ns=float(finish.max()) if offered else 0.0,
        latencies_ns=latencies,
    )


#: A packet's temporal footprint: per-hop (stage_index, service_ns).
#: ``stage_index=None`` marks a pure delay with unbounded parallelism —
#: e.g. worker cores running a packet's SF wave while the ONVM manager
#: moves on to the next packet.
StagePlan = List[Tuple[Optional[int], float]]


@dataclass
class FunctionalRun:
    """What one loaded run knows, from its functional phase to its tail.

    Every functional route — :meth:`Platform._begin_pass`, the
    whole-batch lane — fills one of these and hands it to
    :meth:`Platform._replay` / :meth:`Platform._finish_run`; nothing a
    run learns is kept on the platform, the recorder or the engine, so
    platforms sharing a recorder cannot collide and a run that raises
    leaves nothing behind.
    """

    #: per-packet stage plans; a lane run spells them out only when the
    #: replay needs them
    plans: Optional[List[StagePlan]] = None
    dropped: int = 0
    #: run-local packet index -> the sampled root span ``record()`` returned
    roots: Dict[int, dict] = field(default_factory=dict)
    #: ``id(plan) -> (plan, fid, is_fast, transfer_ns)`` captured on a
    #: plan's first sight this run (per plan is per flow: a steady report
    #: memoizes one plan), or None when no forensics engine is listening.
    #: ``plans`` keeps every key alive, so no ``id()`` can be recycled.
    labels: Optional[Dict[int, tuple]] = None
    #: the forensic rows' ``replica``: the platform's label, or the
    #: replica id a cluster gave the run
    replica: object = None
    #: a lane run's ``(plan table, plan-id column, batch)``
    lane: Optional[tuple] = None


class _PlanInfoColumn:
    """Per-packet ``fids``/``fast_flags`` view over a run's plan labels.

    ``column[i]`` resolves packet ``i``'s captured context through its
    plan's identity — built lazily, paid only for the handful of worst-K
    records the forensics engine actually labels.  Raises ``IndexError``
    for a plan the run never labelled, which the engine maps to an
    absent label.
    """

    __slots__ = ("plans", "info", "slot")

    def __init__(self, plans, info, slot):
        self.plans = plans
        self.info = info
        self.slot = slot

    def __getitem__(self, index):
        entry = self.info.get(id(self.plans[index]))
        if entry is None:
            raise IndexError(index)
        return entry[self.slot]


def _is_packet_batch(packets) -> bool:
    """Duck-type check without importing repro.traffic at module load."""
    from repro.traffic.columnar import PacketBatch

    return isinstance(packets, PacketBatch)


def makespan_with_workers(durations: Sequence[float], workers: int) -> float:
    """Greedy list-scheduling makespan of a parallel wave on N workers.

    Longest-processing-time-first onto the earliest-finishing worker —
    how a real fork/join pool would behave for a handful of batches.
    """
    if not durations:
        return 0.0
    if workers <= 1 or len(durations) == 1:
        return sum(durations)
    finish = [0.0] * min(workers, len(durations))
    for duration in sorted(durations, reverse=True):
        slot = finish.index(min(finish))
        finish[slot] += duration
    return max(finish)


def checked_gap(inter_arrival_ns: float) -> float:
    """``inter_arrival_ns`` itself, if it is a gap a source can wait."""
    if not 0 <= inter_arrival_ns < math.inf:
        raise ValueError(
            f"inter_arrival_ns must be finite and >= 0, got {inter_arrival_ns!r}"
        )
    return inter_arrival_ns


def arrival_gaps(
    packets: Sequence[Packet], inter_arrival_ns: float, use_timestamps: bool
) -> List[float]:
    """Per-packet source gaps of a loaded run, validated up front.

    The gap of packet ``i`` is the Timeout its source takes before
    offering it, so ``gaps[0]`` is the delay to the first arrival.  The
    offered timeline is checked here, before any packet reaches the
    runtime: a negative or non-finite gap, or a decreasing timestamp,
    raises with no state touched.
    """
    if not use_timestamps:
        gaps = [checked_gap(inter_arrival_ns)] * len(packets)
        if gaps:
            gaps[0] = 0.0
        return gaps
    gaps = []
    previous_ts: Optional[float] = None
    for packet in packets:
        if previous_ts is not None and packet.timestamp_ns < previous_ts:
            raise ValueError("trace timestamps must be non-decreasing for replay")
        gaps.append(0.0 if previous_ts is None else packet.timestamp_ns - previous_ts)
        previous_ts = packet.timestamp_ns
    return gaps


@dataclass
class PipelineRun:
    """The live plumbing of one platform's pipeline on a (shared) engine.

    A DES replay spawns exactly one of these on a private engine; a
    cluster with a core pool (``repro.scale``) spawns one per replica on
    a *shared* engine so the replicas' pipelines contend for the pool.
    """

    rings: List[Store]
    #: the timeline, indexed by packet and filled in as the engine runs:
    #: offered time, and departure from the last hop (every packet,
    #: dropped ones included, reaches the sink, so both are total)
    arrival: List[float]
    finish: List[float]


@dataclass
class ChainSetup:
    """Descriptor for constructing a platform run (used by benchmarks)."""

    name: str
    runtime: Union[ServiceChain, SpeedyBox]

    @property
    def with_speedybox(self) -> bool:
        return isinstance(self.runtime, SpeedyBox)


class Platform:
    """Abstract platform."""

    name = "platform"

    def __init__(
        self,
        runtime: Union[ServiceChain, SpeedyBox],
        config: Optional[PlatformConfig] = None,
        metrics: MetricsRegistry = NULL_REGISTRY,
        tracer: PacketTracer = NULL_TRACER,
        label: Optional[str] = None,
        spans: Optional[FlowSpanRecorder] = None,
        timeseries=None,
        forensics=None,
    ):
        self.runtime = runtime
        self.config = config or PlatformConfig()
        self.packets = 0
        #: set by the latest whole-batch lane run (None before one):
        #: offered / span_packets / admitted / dropped / plan_table_size
        self.last_lane_stats: Optional[dict] = None
        self.metrics = metrics
        self.tracer = tracer
        #: sampled flow-span recorder (repro.obs.span); unlike the tracer
        #: it coexists with the compiled lanes + analytic replay, so it is
        #: the way to see inside fast runs.  ``None`` = off.  May be
        #: reset or swapped between runs: nothing a run leaves on a
        #: report outlives the run (see :meth:`_begin_pass`).
        self.spans = spans
        #: gen-3 windowed telemetry (repro.obs.timeseries.TimeSeries) or
        #: None.  Loaded runs hand it the finished LoadResult *after*
        #: the run — windowing is post-run arithmetic, so attaching one
        #: costs nothing per packet and keeps the compiled/batch fast
        #: lanes (and the analytic replay) fully eligible.
        self.timeseries = timeseries
        #: tail-latency forensics engine (repro.obs.forensics) or None.
        #: Like the timeseries it consumes the *finished* replay — plans
        #: and timeline after the run — so it never disqualifies the
        #: analytic or batch lanes and a disabled/absent engine costs one
        #: flag check per run, not per packet.  When enabled, the
        #: functional pass additionally captures per-plan flow ids and
        #: transfer overhead for the worst-K causal context.
        self.forensics = forensics
        #: runtime.fast_packets at the last time-series ingest — the
        #: delta is the run's fast-path hit count for the windows
        self._ts_fast_prev = 0
        #: instance label used for ring/track names; replicas of the same
        #: platform class override it so their metrics stay distinguishable
        self.label = label or self.name
        #: monotonic unloaded-mode timeline cursor (ns) for the tracer,
        #: and how many packets it has laid out (the next one's number)
        self._trace_clock_ns = 0.0
        self._traced = 0
        self._m_packets = metrics.counter(
            "platform_packets_total", "packets timed by a platform"
        ).labels(platform=self.name)
        self._m_latency = metrics.histogram(
            "unloaded_latency_ns",
            "per-packet wall-clock latency in unloaded mode",
            buckets=(250, 500, 1000, 2000, 4000, 8000, 16000, 64000, 256000),
        ).labels(platform=self.name)

    @property
    def costs(self) -> CostModel:
        return self.config.cost_model

    @property
    def with_speedybox(self) -> bool:
        return isinstance(self.runtime, SpeedyBox)

    # -- per-packet timing (subclass hooks) ----------------------------------

    def _transport_cycles_per_hop(self) -> float:
        """Cycles to move a packet descriptor to the next NF."""
        raise NotImplementedError

    def _nic_cycles(self) -> float:
        """Per-packet NIC driver cost, amortised over the RX/TX batch."""
        model = self.costs
        return (model.nic_rx + model.nic_tx) / self.config.batch_size

    def _time_report(self, report: ProcessReport) -> Tuple[float, float, float]:
        """(work, latency, main-core) cycles for one packet's report.

        Memoized on the report (keyed by platform identity, so a report
        timed by two platforms is never cross-contaminated): loaded runs
        time every report twice — once in :meth:`process`, once in the
        stage-plan build.
        """
        cached = report.timing_cache
        if cached is not None and cached[0] is self:
            return cached[1], cached[2], cached[3]
        work, latency, main_core = self._time_report_uncached(report)
        report.timing_cache = (self, work, latency, main_core)
        return work, latency, main_core

    def _time_report_uncached(self, report: ProcessReport) -> Tuple[float, float, float]:
        model = self.costs
        fixed = report.fixed_meter.cycles(model)
        work = fixed + self._nic_cycles()
        latency = fixed + self._nic_cycles()
        main_core = fixed + self._nic_cycles()

        if report.is_fast:
            extra = self._fast_path_extra_cycles()
            sf_work, sf_latency, sf_main = self._time_sf_waves(report)
            work += sf_work + extra
            latency += sf_latency + extra
            main_core += sf_main + extra
        else:
            hop = self._transport_cycles_per_hop()
            for __, meter in report.nf_meters:
                stage = meter.cycles(model) + hop
                work += stage
                latency += stage
                main_core += stage
        return work, latency, main_core

    def _time_sf_waves(self, report: ProcessReport) -> Tuple[float, float, float]:
        """(work, wall-clock, main-core) cycles of the SF schedule.

        Single-batch waves run inline on the main core; parallel waves
        fork to workers — the main core spends only fork/join/sync on
        them, wall-clock grows by the wave's makespan, and total work by
        the sum of batch costs plus overhead.
        """
        model = self.costs
        work = 0.0
        latency = 0.0
        main_core = 0.0
        for wave in report.sf_waves:
            durations = [meter.cycles(model) for __, meter in wave]
            if len(durations) == 1:
                work += durations[0]
                latency += durations[0]
                main_core += durations[0]
                continue
            overhead = model.worker_fork + model.worker_join + self._parallel_sync_cycles()
            work += sum(durations) + overhead
            latency += makespan_with_workers(durations, self.config.worker_cores) + overhead
            main_core += overhead
        return work, latency, main_core

    def _parallel_sync_cycles(self) -> float:
        """Extra synchronisation a parallel wave costs on this platform."""
        return 0.0

    def _fast_path_extra_cycles(self) -> float:
        """Platform-specific fixed overhead of the fast path (per packet)."""
        return 0.0

    # -- forensics hooks (transfer-overhead attribution) ---------------------

    def _plan_transfer_ns(self, report: ProcessReport) -> float:
        """Transport-overhead ns inside this report's stage plan.

        The share of the plan's total service time spent moving the
        packet rather than processing it — NIC amortisation plus the
        platform's inter-NF transport (dispatch / ring hops).  Used by
        the forensics decomposition; clamped into the plan total at the
        split, so a generous estimate cannot break exactness.
        """
        model = self.costs
        transport = 0.0
        if report.is_fast:
            transport = self._fast_path_extra_cycles()
        else:
            transport = len(report.nf_meters) * self._transport_cycles_per_hop()
        return model.cycles_to_ns(self._nic_cycles() + transport)

    # -- unloaded mode ---------------------------------------------------------

    def process(self, packet: Packet) -> PacketOutcome:
        """Run one packet functionally and time it in isolation."""
        self.packets += 1
        report = self.runtime.process(packet)
        work, latency, main_core = self._time_report(report)
        self._observe(report)
        return PacketOutcome(
            packet=packet,
            report=report,
            work_cycles=work,
            latency_cycles=latency,
            main_core_cycles=main_core,
            latency_ns=self.costs.cycles_to_ns(latency),
            dropped=report.dropped,
        )

    def _observe(self, report: ProcessReport) -> Optional[dict]:
        """Show one processed packet to whatever is attached.

        The span recorder sees it while its flow is still sampled, the
        registry counts it and the tracer lays out its unloaded timeline
        under the next packet number of its own count — so packets
        :meth:`process` times while a pass is open (a cluster's recovery
        deliveries) never share a number with the pass's.  Returns the
        root span the recorder filed, if any: a loaded run keeps it to
        stamp it with simulated times (:meth:`_finish_run`).
        """
        root = None
        spans = self.spans
        if spans is not None and spans.skip.get(report.fid) is None:
            root = spans.record(report)
        if self.metrics.enabled or self.tracer.enabled:
            latency_ns = self.costs.cycles_to_ns(self._time_report(report)[1])
            self._m_packets.inc()
            self._m_latency.observe(latency_ns)
            if self.tracer.enabled:
                self._trace_clock_ns = trace_unloaded(
                    self.tracer, self, report, self._trace_clock_ns, self._traced
                )
                self._traced += 1
        return root

    def process_all(self, packets: Sequence[Packet]) -> List[PacketOutcome]:
        return [self.process(packet) for packet in packets]

    # -- loaded mode (throughput) ----------------------------------------------

    def _stage_plan(self, report: ProcessReport) -> StagePlan:
        """Map a report to (stage_index, service_ns) hops for the replay."""
        raise NotImplementedError

    def _stage_count(self) -> int:
        raise NotImplementedError

    def _stage_label(self, stage_index: int) -> str:
        """Human name for a pipeline stage (trace track / ring metric label)."""
        return f"stage{stage_index}"

    def run_load(
        self,
        packets: Sequence[Packet],
        inter_arrival_ns: float = 0.0,
        use_timestamps: bool = False,
    ) -> LoadResult:
        """Two-phase loaded run: functional pass, then temporal replay.

        ``inter_arrival_ns=0`` offers packets back-to-back (saturation):
        the resulting throughput is the platform's capacity.  With
        ``use_timestamps=True`` packets arrive at their recorded
        ``timestamp_ns`` offsets instead (trace replay; timestamps must
        be non-decreasing — checked before any packet is processed).

        What is offered and what is attached pick the route; there is no
        switch.  A columnar :class:`~repro.traffic.columnar.PacketBatch`
        takes the whole-batch lane when :meth:`_batch_lane_eligible`
        (and streams through
        :meth:`~repro.traffic.columnar.PacketBatch.packet_view`
        otherwise); packets — ``batch.packet_view()`` included, which is
        the lane's equivalence oracle — take the per-packet pass.  The
        replay is the vector recursion for a lane run of one-hop plans
        at saturation, the closed form when :meth:`_analytic_valid`, the
        DES otherwise.  Every route gives exactly the result the
        materialized packet list would have produced.
        """
        if _is_packet_batch(packets):
            if self._batch_lane_eligible(use_timestamps):
                return self._run_load_batch(packets, inter_arrival_ns)
            packets = packets.packet_view()
        gaps = arrival_gaps(packets, inter_arrival_ns, use_timestamps)
        return self._replay(self._functional_pass(packets), gaps, inter_arrival_ns)

    def _replay(
        self, run: FunctionalRun, gaps: Optional[List[float]], inter_arrival_ns: float
    ) -> LoadResult:
        """Phase two of a loaded run: pick a replay, get the run's
        timeline, finish (:meth:`_finish_run`).

        The per-packet pass hands over ``run.plans`` and ``gaps``; a
        lane hands over ``run.lane`` instead — its deduplicated plan
        table, its plan-id column and the batch it served — and its
        gaps are the constant ``inter_arrival_ns``.  Three replays, one
        shape: the vector recursion when a lane's table admits it, the
        closed form when :meth:`_analytic_valid`, the DES otherwise,
        each returning ``(arrival, finish)`` indexed by packet.  The
        vector route stays columnar; only an enabled forensics engine
        makes it spell its plans out per packet.
        """
        timeline = None
        if run.lane is not None:
            table, plan_ids, __ = run.lane
            if inter_arrival_ns == 0:
                timeline = sim_analytic.analytic_replay_vector(
                    table, plan_ids, self.config.ring_capacity
                )
            if timeline is None or (self.forensics is not None and self.forensics.enabled):
                run.plans = [table[pid] for pid in plan_ids.tolist()]
            if timeline is None:
                gaps = arrival_gaps(run.plans, inter_arrival_ns, use_timestamps=False)
        plans = run.plans
        if timeline is not None:
            route = "batch"
        elif self._analytic_valid(plans):
            timeline = analytic_replay(
                plans, gaps, self._stage_count(), self.config.ring_capacity
            )
            route = "analytic"
        else:
            engine = Engine()
            self._attach_observer(engine)
            pipeline = self._spawn_pipeline(engine, plans, gaps)
            engine.run()
            self._publish_load_metrics(pipeline.rings)
            timeline = pipeline.arrival, pipeline.finish
            route = "des"
        return self._finish_run(run, timeline, inter_arrival_ns, route)

    def _finish_run(
        self, run: FunctionalRun, timeline: tuple, inter_arrival_ns: float, route: str
    ) -> LoadResult:
        """The one tail of a loaded run, whoever replayed it: count its
        packets, build the result from the timeline and hand the
        timeline to what is attached (span stamps, time series,
        forensics).

        The forensic labelling of the run's packets (``observe_run``'s
        ``fids`` / ``fast_flags`` / ``transfers``) is what the pass, or
        the lane, captured per plan from the report that made it.
        """
        arrival = np.asarray(timeline[0], dtype=np.float64)
        finish = np.asarray(timeline[1], dtype=np.float64)
        self.packets += len(finish)
        result = load_result(arrival, finish, run.dropped)
        if self.spans is not None:
            self.spans.annotate_loaded(run.roots, arrival, finish)
        if self.timeseries is not None:
            self._ingest_timeseries(result, inter_arrival_ns)
        forensics = self.forensics
        if forensics is not None and forensics.enabled:
            labels = run.labels
            forensics.observe_run(
                run.plans,
                arrival,
                finish,
                {key: entry[3] for key, entry in labels.items()},
                replica=run.replica,
                lane=route,
                fids=_PlanInfoColumn(run.plans, labels, 1),
                fast_flags=_PlanInfoColumn(run.plans, labels, 2),
            )
        return result

    def _ingest_timeseries(self, result: LoadResult, inter_arrival_ns: float) -> None:
        """Window a finished run into the attached TimeSeries (post-run,
        zero per-packet cost; see ``TimeSeries.ingest_result``)."""
        fast_now = getattr(self.runtime, "fast_packets", 0)
        fast_delta = fast_now - self._ts_fast_prev
        self._ts_fast_prev = fast_now
        self.timeseries.ingest_result(
            result,
            inter_arrival_ns=inter_arrival_ns,
            replica=self.label,
            fast_hits=max(0, fast_delta),
        )

    def _batch_lane_eligible(self, use_timestamps: bool) -> bool:
        """May a PacketBatch take the whole-batch lane on this platform?

        The lane serves steady spans without per-packet reports, so the
        per-packet instrumentation surfaces must be off: metrics,
        tracer, timestamped arrival.  A :class:`FlowSpanRecorder` is
        allowed — the lane routes its sampled flows through the scalar
        oracle so they keep full span coverage while unsampled flows
        stay on the array path (see ``repro.core.batchlane``).  A
        ``timeseries`` never disqualifies: it ingests the finished
        result after the run.  The lane is a dispatcher over compiled
        closures, so it needs a SpeedyBox runtime.  Ineligible batches
        stream through ``packet_view()`` — correct, just per-packet.
        """
        return (
            not use_timestamps
            and not self.metrics.enabled
            and not self.tracer.enabled
            and isinstance(self.runtime, SpeedyBox)
        )

    def _run_load_batch(self, batch, inter_arrival_ns: float) -> LoadResult:
        """Loaded run of a columnar batch through the whole-batch lane."""
        from repro.core.batchlane import BatchLane

        checked_gap(inter_arrival_ns)  # before the lane serves a packet
        lane = BatchLane(self, batch)
        table, plan_ids, dropped = lane.run()
        offered = len(batch)
        # Lane introspection (the batch analogue of the per-packet
        # counters): how much of the run the array path actually served.
        # A dict, not audit events — the lane's audit stream must stay
        # event-for-event identical to the per-packet oracle's.
        self.last_lane_stats = {
            "offered": offered,
            "span_packets": lane.span_packets,
            "admitted": lane.admitted,
            "dropped": dropped,
            "plan_table_size": len(table),
        }
        run = FunctionalRun(
            dropped=dropped,
            roots=lane.roots,
            labels=lane.labels,
            replica=self.label,
            lane=(table, plan_ids, batch),
        )
        return self._replay(run, None, inter_arrival_ns)

    def _analytic_valid(self, plans: Sequence[StagePlan]) -> bool:
        """May this run use the closed-form replay instead of the DES?

        The analytic recursion cannot express observer instrumentation
        (metrics/tracer hooks see every engine event), pure-delay hops
        or multi-producer stage graphs — those fall back to the DES.  (A
        shared core pool needs it too; a cluster that has one never asks.)
        """
        if self.metrics.enabled or self.tracer.enabled:
            return False
        return plans_are_analytic(plans)

    def _functional_pass(self, packets: Sequence[Packet]) -> FunctionalRun:
        """Phase one of a loaded run: every packet through one pass."""
        offer, run = self._begin_pass()
        for packet in packets:
            offer(packet)
        return run

    def _begin_pass(self) -> Tuple[Callable[[Packet], StagePlan], FunctionalRun]:
        """Open phase one of a loaded run: process functionally, plan
        temporally, one packet per call.

        Returns ``(offer, run)``: ``offer(packet)`` processes the packet,
        files its stage plan in ``run`` and returns it; the caller drives
        it — :meth:`_functional_pass` over a packet sequence, a cluster
        over the packets it routes to this replica — and hands ``run``
        to :meth:`_replay`.  This is the only place a loaded run calls
        ``runtime.process``.

        One step serves every configuration.  A steady-state singleton
        report (``report.steady``) whose ``plan_cache`` carries *this
        pass's* marker has nothing left to show anyone: its plan is
        filed and the step returns, so the steady majority costs one
        probe whatever is attached.  Every other report has its plan
        built (or taken from a cache an earlier run or a lane left) and,
        while anything is attached, is shown to it by :meth:`_watch`; a
        steady report is marked the moment nothing will want its packets
        again.  The plan is cached only together with the marker, so a
        flow still being recorded rebuilds its plan per packet — which
        only the sampled minority pays.

        The marker is a fresh object per pass, kept on the report itself
        (``ProcessReport.plan_cache`` — an ``id()``-keyed side table
        would go stale once bounded flow tables let steady reports be
        garbage-collected mid-run and their ids recycled).  Reports
        outlive the run; the marker does not, so a recorder that was
        reset, swapped or attached since sees every flow again.
        """
        forensics = self.forensics
        capturing = forensics is not None and forensics.enabled
        run = FunctionalRun(plans=[], labels={} if capturing else None, replica=self.label)
        process = self.runtime.process
        stage_plan = self._stage_plan
        append_plan = run.plans.append
        done = object()
        watch = None
        if self.spans is not None or capturing or self.metrics.enabled or self.tracer.enabled:
            watch = self._watch

        def offer(packet: Packet) -> StagePlan:
            report = process(packet)
            if report.dropped:
                run.dropped += 1
            cached = report.plan_cache
            if cached is None:
                plan = stage_plan(report)
            elif cached[3] is done:
                plan = cached[1]
                append_plan(plan)
                return plan
            else:
                plan = cached[1] if cached[0] is self else stage_plan(report)
            if watch is None or watch(report, plan, run):
                if report.steady:
                    report.plan_cache = (self, plan, None, done)
            append_plan(plan)
            return plan

        return offer, run

    def _watch(self, report: ProcessReport, plan: StagePlan, run: FunctionalRun) -> bool:
        """Show the packet ``run`` is about to file to what is attached.

        The observers see it exactly as :meth:`process` would show it
        (:meth:`_observe`); a sampled root is kept under the packet's
        index in the run, and the plan's forensic labels are captured on
        first sight.  Returns whether nothing will want this report's
        packets again this run: no registry or tracer attached (those
        count every packet), and its flow unsampled or past the span cap.
        """
        root = self._observe(report)
        if root is not None:
            run.roots[len(run.plans)] = root
        labels = run.labels
        if labels is not None and id(plan) not in labels:
            labels[id(plan)] = (
                plan, report.fid, report.is_fast, self._plan_transfer_ns(report)
            )
        if self.metrics.enabled or self.tracer.enabled:
            return False
        spans = self.spans
        return spans is None or spans.skip.get(report.fid) is not None

    def _spawn_pipeline(
        self,
        engine: Engine,
        plans: Sequence[StagePlan],
        gaps: Sequence[float],
        core_pool: Optional[Resource] = None,
    ) -> PipelineRun:
        """Register this platform's stage pipeline on ``engine``.

        ``gaps[i]`` is the source's Timeout before offering packet ``i``.
        ``core_pool`` (optional) is a shared :class:`Resource` every stage
        worker must hold while serving a packet — how a replica cluster
        models oversubscribed physical cores.  Pure-delay hops (offloaded
        SF waves) stay outside the pool, mirroring single-platform runs
        where worker cores are modelled as a free-running pool.
        """
        stage_count = self._stage_count()
        label = self.label
        rings = [
            Store(
                engine,
                capacity=self.config.ring_capacity,
                name=f"{label}:{self._stage_label(i)}",
            )
            for i in range(stage_count)
        ]
        done = Store(engine, name=f"{label}:done")
        arrival = [0.0] * len(plans)
        finish = [0.0] * len(plans)
        tracing = self.tracer.enabled

        def delay_hop(packet_index: int, hop: int, plan: StagePlan):
            """A None-stage hop: pure delay, no core contention."""
            __, service_ns = plan[hop]
            started = engine.now
            yield Timeout(service_ns)
            if tracing:
                self.tracer.span(
                    f"pkt{packet_index}",
                    f"{label}:offload",
                    started,
                    engine.now - started,
                    hop=hop,
                )
            yield from forward(packet_index, hop, plan)

        def forward(packet_index: int, hop: int, plan: StagePlan):
            if hop + 1 < len(plan):
                next_stage = plan[hop + 1][0]
                if next_stage is None:
                    engine.add_process(delay_hop(packet_index, hop + 1, plan))
                else:
                    yield Put(rings[next_stage], (packet_index, hop + 1, plan))
            else:
                yield Put(done, (packet_index, engine.now))

        def source():
            for index, plan in enumerate(plans):
                if gaps[index] > 0:
                    yield Timeout(gaps[index])
                arrival[index] = engine.now
                first_stage = plan[0][0] if plan else stage_count - 1
                if first_stage is None:
                    engine.add_process(delay_hop(index, 0, plan))
                else:
                    yield Put(rings[first_stage], (index, 0, plan))

        def stage_worker(stage_index: int):
            track = f"{label}:{self._stage_label(stage_index)}"
            while True:
                item = yield Get(rings[stage_index])
                if item is None:
                    return
                packet_index, hop, plan = item
                __, service_ns = plan[hop]
                if core_pool is not None:
                    yield Request(core_pool)
                started = engine.now
                yield Timeout(service_ns)
                if core_pool is not None:
                    yield core_pool.release()
                if tracing:
                    self.tracer.span(
                        f"pkt{packet_index}", track, started, engine.now - started, hop=hop
                    )
                yield from forward(packet_index, hop, plan)

        def sink():
            for __ in range(len(plans)):
                packet_index, finished_at = yield Get(done)
                finish[packet_index] = finished_at
            for ring in rings:
                yield Put(ring, None)  # poison pills

        engine.add_process(source(), name=f"{label}:source")
        for stage_index in range(stage_count):
            engine.add_process(stage_worker(stage_index), name=f"{label}:stage{stage_index}")
        engine.add_process(sink(), name=f"{label}:sink")
        return PipelineRun(rings=rings, arrival=arrival, finish=finish)

    # -- loaded-mode observability --------------------------------------------

    def _attach_observer(self, engine: Engine) -> None:
        """Hook the replay engine up to the tracer and/or metrics registry.

        The counting observer streams engine counters (resumes, blocked
        puts/gets) straight into the registry; the tracing observer
        streams ring occupancy into the tracer.  With both disabled the
        engine's observer stays ``None`` and the replay is untouched.
        """
        observers = []
        if self.metrics.enabled:
            observers.append(CountingObserver(self.metrics))
        if self.tracer.enabled:
            observers.append(TracingObserver(self.tracer))
        if len(observers) == 1:
            engine.observer = observers[0]
        elif observers:
            engine.observer = FanoutObserver(*observers)

    def _publish_load_metrics(self, rings: Sequence[Store]) -> None:
        """Per-ring enqueue/dequeue/high-water after a loaded run."""
        if not self.metrics.enabled:
            return
        enqueues = self.metrics.counter(
            "ring_enqueue_total", "descriptors enqueued per inter-stage ring"
        )
        dequeues = self.metrics.counter(
            "ring_dequeue_total", "descriptors dequeued per inter-stage ring"
        )
        high_water = self.metrics.gauge(
            "ring_high_watermark", "deepest occupancy each ring reached"
        )
        for ring in rings:
            enqueues.labels(ring=ring.name).inc(ring.total_put)
            dequeues.labels(ring=ring.name).inc(ring.total_got)
            high_water.labels(ring=ring.name).set(ring.high_watermark)
        self.metrics.counter(
            "load_runs_total", "run_load invocations"
        ).labels(platform=self.name).inc()

    def reset(self) -> None:
        self.packets = 0
        self.last_lane_stats = None
        self._trace_clock_ns = 0.0
        self._traced = 0
        self._ts_fast_prev = 0
        self.runtime.reset()
