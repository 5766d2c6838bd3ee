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
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.obs.span import FlowSpanRecorder
from repro.obs.timeline import trace_unloaded
from repro.obs.trace import NULL_TRACER, PacketTracer, TracingObserver
from repro.platform.costs import CostModel, CycleMeter, Operation
from repro.sim import Engine, Get, Put, Store, Timeout
from repro.sim import analytic as sim_analytic
from repro.sim.analytic import analytic_replay, plans_are_analytic, plans_are_vector
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


#: A packet's temporal footprint: per-hop (stage_index, service_ns),
#: never empty.
StagePlan = List[Tuple[int, float]]


class PlanTable(list):
    """One run's distinct stage plans, deduplicated by value.

    A plan id is an index into the table; a run is the table plus one
    plan id per packet, however the run was made (the per-packet pass,
    the whole-batch lane, each replica of a cluster), and every replay
    and the forensics engine read that one shape.  While a forensics
    engine listens, a plan's key is its value plus its forensic label
    ``(fid, is_fast, transfer_ns)`` — the report that made it — and
    ``labels[pid]`` keeps that label; otherwise ``labels`` is None.
    """

    __slots__ = ("labels", "_pid_by_key")

    def __init__(self, labelled: bool):
        super().__init__()
        self.labels: Optional[List[tuple]] = [] if labelled else None
        self._pid_by_key: Dict[tuple, int] = {}

    def pid_of(self, plan: StagePlan, label: Optional[tuple]) -> int:
        """The id of ``plan`` (with ``label``, in a labelled table),
        filed on first sight."""
        key = tuple(plan) if label is None else (tuple(plan), label)
        pid = self._pid_by_key.get(key)
        if pid is None:
            pid = self._pid_by_key[key] = len(self)
            self.append(plan)
            if label is not None:
                self.labels.append(label)
        return pid


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

    #: the run's distinct stage plans
    table: PlanTable
    #: packet ``i``'s plan is ``table[plan_ids[i]]``: a list the pass
    #: appends to, or the lane's int32 column
    plan_ids: object
    dropped: int = 0
    #: run-local packet index -> the sampled root span ``record()`` returned
    roots: Dict[int, dict] = field(default_factory=dict)
    #: the forensic rows' ``replica``: the platform's label, or the
    #: replica id a cluster gave the run
    replica: object = None


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
    """The live plumbing of one platform's pipeline on a DES engine."""

    #: one ring per stage, and the unbounded store the sink drains
    rings: List[Store]
    done: Store
    #: the timeline, indexed by packet and filled in as the engine runs:
    #: offered time, and departure from the last hop (every packet,
    #: dropped ones included, reaches the sink, so both are total)
    arrival: List[float]
    finish: List[float]


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
        at the tracer's own cursor and packet count, which every platform
        sharing the tracer advances and none rewinds — so packets
        :meth:`process` times while a pass is open (a cluster's recovery
        deliveries) never share a number with the pass's, and no two
        packets' spans overlap on a track.  Returns the
        root span the recorder filed, if any: a loaded run keeps it to
        stamp it with simulated times (:meth:`_finish_run`).
        """
        root = None
        spans = self.spans
        if spans is not None and spans.skip.get(report.fid) is None:
            root = spans.record(report, self.costs)
        if self.metrics.enabled or self.tracer.enabled:
            latency_ns = self.costs.cycles_to_ns(self._time_report(report)[1])
            self._m_packets.inc()
            self._m_latency.observe(latency_ns)
            tracer = self.tracer
            if tracer.enabled:
                tracer.unloaded_ns = trace_unloaded(
                    tracer, self, report, tracer.unloaded_ns, tracer.unloaded_packets
                )
                tracer.unloaded_packets += 1
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
        the lane's equivalence oracle — take the per-packet pass.  Either
        route hands :meth:`_replay` one plan table, and the table and
        the gaps pick the replay: the vector recursion for one-hop plans
        on one stage at saturation, the closed form when
        :meth:`_analytic_valid`, the DES otherwise.  Every route gives
        exactly the result the materialized packet list would have
        produced.
        """
        if _is_packet_batch(packets):
            if self._batch_lane_eligible(use_timestamps):
                return self._run_batch_lane(packets, inter_arrival_ns)
            packets = packets.packet_view()
        gaps = arrival_gaps(packets, inter_arrival_ns, use_timestamps)
        return self._replay(self._functional_pass(packets), gaps, inter_arrival_ns)

    def _replay(
        self, run: FunctionalRun, gaps: Optional[List[float]], inter_arrival_ns: float
    ) -> LoadResult:
        """Phase two of a loaded run: pick a replay, get the run's
        timeline, finish (:meth:`_finish_run`).

        Every route hands over its plan table and plan-id column; the
        per-packet pass adds its ``gaps``, and a lane's gaps (``None``)
        are the constant ``inter_arrival_ns``.  The table and the gaps
        alone pick the replay: an attached registry or tracer takes the
        DES (:meth:`_analytic_valid`); all-zero gaps over a table
        :func:`plans_are_vector` accepts take the
        vector recursion; a table :func:`plans_are_analytic` accepts
        the closed form; anything else the DES.  A vector table is an
        analytic one, so the vector route is the closed form's special
        case.  Each returns ``(arrival, finish)`` indexed by packet.
        """
        table, plan_ids = run.table, run.plan_ids
        analytic = self._analytic_valid(table)
        if gaps is None:  # a lane's: zero ahead of the first packet, then constant
            saturated = inter_arrival_ns == 0 or len(plan_ids) < 2
        else:
            saturated = not any(gaps)
        if analytic and saturated and plans_are_vector(table):
            timeline = sim_analytic.analytic_replay_vector(
                table, plan_ids, self.config.ring_capacity
            )
            return self._finish_run(run, timeline, inter_arrival_ns, "vector")
        if not isinstance(plan_ids, list):  # the lane's int32 column
            plan_ids = plan_ids.tolist()
        if gaps is None:
            gaps = arrival_gaps(plan_ids, inter_arrival_ns, use_timestamps=False)
        if analytic:
            timeline = analytic_replay(
                table, plan_ids, gaps, self._stage_count(), self.config.ring_capacity
            )
            return self._finish_run(run, timeline, inter_arrival_ns, "analytic")
        engine = Engine()
        prefix = ""
        tracer = self.tracer
        if tracer.enabled:
            # Runs sharing a tracer (a cluster's replicas, a CLI command's
            # rows) are numbered; every run after the first prefixes its
            # ring and stage tracks, so no two runs draw on one track.
            if tracer.des_runs:
                prefix = f"run{tracer.des_runs}:"
            tracer.des_runs += 1
            engine.observer = TracingObserver(tracer, prefix)
        pipeline = self._spawn_pipeline(engine, table, plan_ids, gaps, prefix)
        engine.run()
        self._publish_load_metrics(pipeline)
        return self._finish_run(
            run, (pipeline.arrival, pipeline.finish), inter_arrival_ns, "des"
        )

    def _finish_run(
        self, run: FunctionalRun, timeline: tuple, inter_arrival_ns: float, route: str
    ) -> LoadResult:
        """The one tail of a loaded run, whoever replayed it: count its
        packets, build the result from the timeline and hand the
        timeline to what is attached (span stamps, time series,
        forensics — which reads each packet's labels off the run's plan
        table).
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
            forensics.observe_run(run.table, run.plan_ids, arrival, finish, run.replica, route)
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

    def _run_batch_lane(self, batch, inter_arrival_ns: float) -> LoadResult:
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
            table=table,
            plan_ids=plan_ids,
            dropped=dropped,
            roots=lane.roots,
            replica=self.label,
        )
        return self._replay(run, None, inter_arrival_ns)

    def _analytic_valid(self, table: Sequence[StagePlan]) -> bool:
        """May this run use a closed-form replay instead of the DES?

        The analytic recursions cannot express observer instrumentation
        (metrics/tracer hooks see every engine event) or multi-producer
        stage graphs — those fall back to the DES.
        """
        if self.metrics.enabled or self.tracer.enabled:
            return False
        return plans_are_analytic(table)

    def _plan_id(self, table: PlanTable, plan: StagePlan, report: ProcessReport) -> int:
        """``plan``'s id in ``table``, labelled by ``report`` while a
        forensics engine listens (:class:`PlanTable`)."""
        if table.labels is None:
            return table.pid_of(plan, None)
        label = (report.fid, report.is_fast, self._plan_transfer_ns(report))
        return table.pid_of(plan, label)

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
        files its plan's id in ``run`` and returns the plan; the caller
        drives it — :meth:`_functional_pass` over a packet sequence, a
        cluster over the packets it routes to this replica — and hands
        ``run`` to :meth:`_replay`.  This is the only place a loaded run
        calls ``runtime.process``.

        One step serves every configuration.  A steady (shared) report
        (``report.steady``) keeps its plan and this run's plan id on the
        report, so the steady majority costs one probe for its plan
        whatever is attached; every other report has its plan built (or
        taken from a cache an earlier run or a lane left) and looked up
        in the table.  What is attached still sees every packet it wants
        (:meth:`_observe`): the registry and the tracer each one, the
        span recorder each one of a flow it samples below its cap.

        The plan id is valid for the run's table alone, so the table is
        kept beside it (``ProcessReport.plan_cache`` — an ``id()``-keyed
        side table would go stale once bounded flow tables let steady
        reports be garbage-collected mid-run and their ids recycled).
        Reports outlive the run; the table does not.
        """
        forensics = self.forensics
        capturing = forensics is not None and forensics.enabled
        table = PlanTable(labelled=capturing)
        run = FunctionalRun(table=table, plan_ids=[], replica=self.label)
        process = self.runtime.process
        stage_plan = self._stage_plan
        plan_id = self._plan_id
        file_pid = run.plan_ids.append
        counted = self.metrics.enabled or self.tracer.enabled
        # the recorder's probe: a packet of an unsampled or capped flow
        # costs one dict lookup
        unrecorded = self.spans.skip.get if self.spans is not None and not counted else None
        watched = counted or unrecorded is not None
        observe = self._observe
        roots = run.roots

        def offer(packet: Packet) -> StagePlan:
            report = process(packet)
            if report.dropped:
                run.dropped += 1
            cached = report.plan_cache
            if cached is not None and cached[3] is table:
                plan, pid = cached[1], cached[2]
            else:
                if cached is not None and cached[0] is self:
                    plan = cached[1]
                else:
                    plan = stage_plan(report)
                pid = plan_id(table, plan, report)
                if report.steady:
                    report.plan_cache = (self, plan, pid, table)
            if watched and (counted or unrecorded(report.fid) is None):
                root = observe(report)
                if root is not None:
                    roots[len(run.plan_ids)] = root
            file_pid(pid)
            return plan

        return offer, run

    def _spawn_pipeline(
        self,
        engine: Engine,
        table: Sequence[StagePlan],
        plan_ids: Sequence[int],
        gaps: Sequence[float],
        prefix: str = "",
    ) -> PipelineRun:
        """Register this platform's stage pipeline on ``engine``.

        Packet ``i`` follows plan ``table[plan_ids[i]]``; ``gaps[i]`` is
        the source's Timeout before offering it.  An attached tracer
        gets one span per hop on the stage's track, ``prefix`` first.
        """
        label = self.label
        names = [f"{label}:{self._stage_label(i)}" for i in range(self._stage_count())]
        rings = [Store(engine, capacity=self.config.ring_capacity, name=name) for name in names]
        done = Store(engine, name=f"{label}:done")
        arrival = [0.0] * len(plan_ids)
        finish = [0.0] * len(plan_ids)
        tracer = self.tracer
        tracing = tracer.enabled

        def source():
            for index, plan in enumerate(map(table.__getitem__, plan_ids)):
                if gaps[index] > 0:
                    yield Timeout(gaps[index])
                arrival[index] = engine.now
                yield Put(rings[plan[0][0]], (index, 0, plan))

        def stage_worker(stage_index: int):
            ring = rings[stage_index]
            track = prefix + names[stage_index]
            while True:
                item = yield Get(ring)
                if item is None:
                    return
                packet_index, hop, plan = item
                started = engine.now
                yield Timeout(plan[hop][1])
                if tracing:
                    tracer.packet_span(track, hop, started, engine.now - started, packet_index)
                if hop + 1 < len(plan):
                    yield Put(rings[plan[hop + 1][0]], (packet_index, hop + 1, plan))
                else:
                    yield Put(done, (packet_index, engine.now))

        def sink():
            for __ in range(len(plan_ids)):
                packet_index, finished_at = yield Get(done)
                finish[packet_index] = finished_at
            for ring in rings:
                yield Put(ring, None)  # poison pills

        engine.add_process(source(), name=f"{label}:source")
        for stage_index in range(len(rings)):
            engine.add_process(stage_worker(stage_index), name=f"{label}:stage{stage_index}")
        engine.add_process(sink(), name=f"{label}:sink")
        return PipelineRun(rings=rings, done=done, arrival=arrival, finish=finish)

    # -- loaded-mode observability --------------------------------------------

    def _publish_load_metrics(self, pipeline: PipelineRun) -> None:
        """Per-ring enqueue/dequeue/high-water, and the puts and gets
        that waited on any of the run's stores, after a DES replay."""
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
        for ring in pipeline.rings:
            enqueues.labels(ring=ring.name).inc(ring.total_put)
            dequeues.labels(ring=ring.name).inc(ring.total_got)
            high_water.labels(ring=ring.name).set(ring.high_watermark)
        blocked = self.metrics.counter(
            "sim_store_blocked_total", "puts/gets that had to wait on a store"
        )
        stores = [*pipeline.rings, pipeline.done]
        for kind, count in (
            ("put", sum(store.blocked_puts for store in stores)),
            ("get", sum(store.blocked_gets for store in stores)),
        ):
            if count:
                blocked.labels(kind=kind).inc(count)
        self.metrics.counter(
            "load_runs_total", "run_load invocations"
        ).labels(platform=self.name).inc()

    def reset(self) -> None:
        self.packets = 0
        self.last_lane_stats = None
        self._ts_fast_prev = 0
        self.runtime.reset()
