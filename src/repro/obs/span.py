"""Sampled per-flow spans: the packet-path microscope that stays cheap.

The full :class:`~repro.obs.trace.PacketTracer` pipeline (metrics on,
tracer on) shows every packet to the registry and the tracer and
replays through the DES — an order of magnitude slower than the
compiled fast lane with analytic replay.  :class:`FlowSpanRecorder` is
the middle ground: a 1-in-N *flow* sampler that records nested spans
(classify → MAT lookup → dispatch → header action → per-NF state
functions → emit) with exact cycle and model-time attribution, while
the compiled fast lane, the batch lane and the closed-form replays all
stay in use.

How it stays cheap
------------------

The recorder exposes ``skip`` — a plain dict mapping FIDs of flows that
must *not* be recorded (unsampled, or past their per-flow span cap) to
``True``.  The platform calls :meth:`record` only when the probe
misses, and stops probing a steady flow for the rest of the run the
moment it lands here, so an unrecorded steady packet costs what it
costs with no recorder attached; the 1-in-64 overhead gate in
``benchmarks/test_obs_overhead.py`` holds it under 5 % of the
uninstrumented fast path.  Sampled *steady* packets reuse a prebuilt
per-flow span template (steady reports are per-flow singletons), so
even recorded packets avoid re-walking the meter.

Sampling is per *flow*, deterministic: the k-th distinct FID seen is
sampled iff ``k % every == 0``, so ``every=1`` records every flow and
the selection is reproducible run to run.  ``max_spans_per_flow``
(default 64) bounds memory on long flows — after the cap the flow joins
``skip``; pass ``None`` to record every packet (the exact-attribution
tests do).

Cycle and sim-time attribution
------------------------------

Each recorded packet becomes one root span (track ``flow:<fid>``) whose
children partition the packet's meter charges by pipeline stage using
the :func:`stage_of` mapping (Fig. 7's stage taxonomy); per-stage ``cycles`` sum *exactly* to the packet's
merged-meter cycles (integer costs).  Durations are the cost
model's ``cycles_to_ns`` on a monotonic recorder clock.  Loaded runs
additionally stamp sampled roots with the replay's simulated arrival
and finish times (``sim_arrival_ns`` / ``sim_latency_ns``) when the run
ends (:meth:`annotate_loaded`) — the same stamps whichever replay
produced the timeline.  The recorder holds no run state: :meth:`record`
returns the root it filed, the run keeps the ones it wants stamped, so
platforms sharing one recorder (a cluster's replicas) cannot collide.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.record import dump_jsonl
from repro.platform.costs import CostModel, Operation

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.framework import ProcessReport
    from repro.obs.trace import PacketTracer

#: Canonical stage order for rendering and span layout (chain order of
#: the per-packet walkthrough; "other" collects unmapped operations).
STAGE_ORDER: Tuple[str, ...] = (
    "classify",
    "mat_lookup",
    "dispatch",
    "header_action",
    "record",
    "consolidate",
    "events",
    "teardown",
    "emit",
    "transport",
    "other",
)

_STAGE_OF: Dict[Operation, str] = {
    # packet ingestion: parse, FID hash, classifier bookkeeping
    Operation.PARSE: "classify",
    Operation.FID_HASH: "classify",
    Operation.METADATA_ATTACH: "classify",
    Operation.EXACT_MATCH_LOOKUP: "classify",
    Operation.GLOBAL_MAT_LOOKUP: "mat_lookup",
    Operation.FAST_PATH_DISPATCH: "dispatch",
    # consolidated header action (or its raw-ablation equivalents)
    Operation.FIELD_WRITE: "header_action",
    Operation.MERGED_FIELD_WRITE: "header_action",
    Operation.CHECKSUM_UPDATE: "header_action",
    Operation.ENCAP_OP: "header_action",
    Operation.DECAP_OP: "header_action",
    Operation.DROP_FREE: "header_action",
    # original-path recording and Global MAT consolidation
    Operation.MAT_BEGIN_RECORD: "record",
    Operation.MAT_RECORD_HA: "record",
    Operation.MAT_RECORD_SF: "record",
    Operation.CONSOLIDATE_ACTION: "consolidate",
    Operation.GLOBAL_RULE_INSTALL: "consolidate",
    Operation.EVENT_REGISTER: "events",
    Operation.EVENT_CHECK: "events",
    Operation.FLOW_DELETE: "teardown",
    Operation.METADATA_DETACH: "emit",
    # platform transport charges (only appear in NF/transport meters)
    Operation.NIC_RX: "transport",
    Operation.NIC_TX: "transport",
    Operation.NF_DISPATCH: "transport",
    Operation.RING_ENQUEUE: "transport",
    Operation.RING_DEQUEUE: "transport",
    Operation.CROSS_CORE_SYNC: "transport",
}


def stage_of(operation: Operation) -> str:
    """The pipeline stage an operation's cycles are attributed to."""
    return _STAGE_OF.get(operation, "other")


#: Fixed-meter stages laid out before the NF/SF spans, in walk order.
_PRE_NF_STAGES: Tuple[str, ...] = tuple(
    stage for stage in STAGE_ORDER if stage not in ("teardown", "emit", "transport", "other")
)
#: ... and after them (FIN teardown, metadata detach, unmapped charges).
_POST_NF_STAGES: Tuple[str, ...] = ("teardown", "emit", "transport", "other")


class FlowSpanRecorder:
    """Low-overhead 1-in-N flow span sampler for the fast engine."""

    def __init__(
        self,
        every: int = 64,
        max_spans_per_flow: Optional[int] = 64,
    ):
        if every < 1:
            raise ValueError(f"sampling ratio must be >= 1, got {every!r}")
        if max_spans_per_flow is not None and max_spans_per_flow < 1:
            raise ValueError(
                f"max_spans_per_flow must be >= 1 or None, got {max_spans_per_flow!r}"
            )
        self.every = int(every)
        self.max_spans_per_flow = max_spans_per_flow
        #: hot-path probe: fid -> True for flows the platform must not
        #: record (unsampled or capped).  Probed by the loaded pass.
        self.skip: Dict[int, bool] = {}
        self.flows_seen = 0
        self.flows_sampled = 0
        self.packets_sampled = 0
        #: flat span dicts ({"type": "flow_span", ...}), root then children
        self.records: List[Dict[str, Any]] = []
        self._decisions: Dict[int, bool] = {}
        self._flow_spans: Dict[int, int] = {}
        #: id(steady report) -> (the report, its prebuilt child template).
        #: The entry holds its report: a dead flow's report cannot hand a
        #: recycled ``id()`` — and its template — to a live flow's.
        self._steady_templates: Dict[int, tuple] = {}
        self._clock_ns = 0.0

    # -- recording ---------------------------------------------------------

    def wants(self, fid: int) -> bool:
        """Sampling decision for a flow (allocates it a rank on first use)."""
        sampled = self._decisions.get(fid)
        if sampled is None:
            sampled = self.flows_seen % self.every == 0
            self.flows_seen += 1
            self._decisions[fid] = sampled
            if sampled:
                self.flows_sampled += 1
            else:
                self.skip[fid] = True
        return sampled

    def record(self, report: "ProcessReport", costs: CostModel) -> Optional[Dict[str, Any]]:
        """Record one packet's spans, priced by ``costs`` (the recording
        platform's cost model), if its flow is sampled.

        Returns the packet's root span (shared with ``records``) for a
        loaded run to hand back to :meth:`annotate_loaded`, or ``None``
        when nothing was recorded.  Callers on a hot path should gate
        the call on ``skip.get(fid) is None`` — :meth:`record`
        re-checks, so the gate is optional.
        """
        fid = report.fid
        if not self.wants(fid):
            return None
        cap = self.max_spans_per_flow
        if cap is not None:
            taken = self._flow_spans.get(fid, 0)
            if taken >= cap:
                self.skip[fid] = True
                return None
            self._flow_spans[fid] = taken + 1

        self.packets_sampled += 1
        if report.steady:
            entry = self._steady_templates.get(id(report))
            if entry is None or entry[0] is not report:
                entry = self._steady_templates[id(report)] = (
                    report, self._build_children(report, costs)
                )
            template = entry[1]
        else:
            template = self._build_children(report, costs)

        start = self._clock_ns
        total_ns = 0.0
        total_cycles = 0.0
        track = f"flow:{fid}"
        records = self.records
        root: Dict[str, Any] = {
            "type": "flow_span",
            "name": "packet",
            "track": track,
            "start_ns": start,
            "dur_ns": 0.0,
            "depth": 0,
            "args": {
                "fid": fid,
                "path": report.path.value,
                "dropped": report.dropped,
                "cycles": 0.0,
            },
        }
        records.append(root)
        cursor = start
        for name, stage, cycles, dur_ns, wave in template:
            args: Dict[str, Any] = {"stage": stage, "cycles": cycles}
            if wave is not None:
                args["wave"] = wave
            records.append(
                {
                    "type": "flow_span",
                    "name": name,
                    "track": track,
                    "start_ns": cursor,
                    "dur_ns": dur_ns,
                    "depth": 1,
                    "args": args,
                }
            )
            cursor += dur_ns
            total_ns += dur_ns
            total_cycles += cycles
        root["dur_ns"] = total_ns
        root["args"]["cycles"] = total_cycles
        self._clock_ns = cursor
        return root

    def _build_children(
        self, report: "ProcessReport", model: CostModel
    ) -> List[Tuple[str, str, float, float, Optional[int]]]:
        """(name, stage, cycles, dur_ns, wave) children for one report.

        The fixed meter's charges are grouped by :func:`stage_of` and
        laid out in the canonical stage order, with the per-NF spans
        (slow-path hops or fast-path SF batches) between the dispatch
        stages and the teardown/emit tail — the packet's actual walk.
        Per-stage cycles are count × cost sums in sorted-operation
        order, so with integer costs the children sum to the packet's
        merged-meter cycles exactly.
        """
        table = model.op_cycles
        to_ns = model.ns_per_cycle()

        stage_cycles: Dict[str, float] = {}
        fixed = report.fixed_meter
        for operation in sorted(fixed.counts, key=lambda op: op.value):
            stage = stage_of(operation)
            stage_cycles[stage] = (
                stage_cycles.get(stage, 0.0) + table[operation] * fixed.counts[operation]
            )
        if fixed.direct_cycles:
            stage_cycles["other"] = stage_cycles.get("other", 0.0) + fixed.direct_cycles

        children: List[Tuple[str, str, float, float, Optional[int]]] = []
        for stage in _PRE_NF_STAGES:
            cycles = stage_cycles.get(stage)
            if cycles:
                children.append((stage, stage, cycles, cycles * to_ns, None))
        for name, meter in report.nf_meters:
            cycles = _meter_cycles(meter, table)
            children.append((f"nf:{name}", "nf", cycles, cycles * to_ns, None))
        for wave_index, wave in enumerate(report.sf_waves):
            for name, meter in wave:
                cycles = _meter_cycles(meter, table)
                children.append((f"sf:{name}", "sf", cycles, cycles * to_ns, wave_index))
        for stage in _POST_NF_STAGES:
            cycles = stage_cycles.get(stage)
            if cycles:
                children.append((stage, stage, cycles, cycles * to_ns, None))
        return children

    # -- loaded-run annotation --------------------------------------------

    def annotate_loaded(self, roots: Dict[int, Dict[str, Any]], arrival, finish) -> None:
        """Stamp a run's sampled roots with its simulated timeline.

        ``roots`` maps a packet's index in the run to the root
        :meth:`record` returned for it; ``arrival`` and ``finish`` are
        the replay's two columns, indexed the same way.  The root dicts
        are shared with ``records``, so the stamps show everywhere at
        once.
        """
        for index, root in roots.items():
            args = root["args"]
            args["sim_arrival_ns"] = float(arrival[index])
            args["sim_finish_ns"] = float(finish[index])
            args["sim_latency_ns"] = args["sim_finish_ns"] - args["sim_arrival_ns"]

    # -- introspection / export -------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def roots(self) -> List[Dict[str, Any]]:
        """The per-packet root spans, in record order."""
        return [record for record in self.records if record["depth"] == 0]

    def summary(self) -> Dict[str, float]:
        return {
            "every": self.every,
            "flows_seen": self.flows_seen,
            "flows_sampled": self.flows_sampled,
            "packets_sampled": self.packets_sampled,
            "spans": len(self.records),
        }

    def write_jsonl(self, path) -> int:
        return dump_jsonl(path, self.records)

    def replay_into(self, tracer: "PacketTracer") -> int:
        """Copy the recorded spans into a PacketTracer (Chrome export)."""
        count = 0
        for record in self.records:
            span = tracer.span(
                record["name"],
                record["track"],
                record["start_ns"],
                record["dur_ns"],
                **record["args"],
            )
            if span is not None:
                span.depth = record["depth"]
                count += 1
        return count

    def reset(self) -> None:
        self.skip.clear()
        self.flows_seen = 0
        self.flows_sampled = 0
        self.packets_sampled = 0
        self.records.clear()
        self._decisions.clear()
        self._flow_spans.clear()
        self._steady_templates.clear()
        self._clock_ns = 0.0

    def __repr__(self) -> str:
        return (
            f"<FlowSpanRecorder 1-in-{self.every}: {self.flows_sampled}/"
            f"{self.flows_seen} flows, {self.packets_sampled} packets, "
            f"{len(self.records)} spans>"
        )


def _meter_cycles(meter, table) -> float:
    """count × cost sum in sorted-operation order (exact for int costs)."""
    total = meter.direct_cycles
    counts = meter.counts
    for operation in sorted(counts, key=lambda op: op.value):
        total += table[operation] * counts[operation]
    return total
