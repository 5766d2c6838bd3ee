"""Sampled per-flow spans: the packet-path microscope that stays cheap.

The full :class:`~repro.obs.trace.PacketTracer` pipeline shows every
packet to the registry and the tracer and replays through the DES.
:class:`FlowSpanRecorder` is the middle ground: a 1-in-N *flow* sampler
that records nested spans (classify → MAT lookup → dispatch → header
action → per-NF state functions → emit) with exact cycle and model-time
attribution, while the compiled fast lane, the batch lane and the
closed-form replays all stay in use.

The recorder exposes ``skip``, a dict of the FIDs it must *not* record
(unsampled, or past ``max_spans_per_flow``); the platform calls
:meth:`~FlowSpanRecorder.record` only when the probe misses, so an
unrecorded packet costs what it costs with no recorder attached (the
1-in-64 overhead gate in ``benchmarks/test_obs_overhead.py``).  A
recorded packet is one row — its template, start and FID — and a
template is built once per cost model and report *shape*
(:func:`shape_of`: everything the spans depend on but the FID), so a
report whose shape any flow already produced builds nothing.
:meth:`~FlowSpanRecorder.write_jsonl` renders the rows a template at a
time (:func:`repro.obs.trace.render`).  Sampling is deterministic: the
k-th distinct FID is sampled iff ``k % every == 0``;
``max_spans_per_flow=None`` records every packet.

Each recorded packet is one root span (track ``flow:<fid>``) whose
children partition its meter charges by :func:`stage_of` (Fig. 7's stage
taxonomy); with integer costs their ``cycles`` sum exactly to the
packet's.  Durations are ``cycles_to_ns`` on a monotonic recorder clock.
A loaded run stamps its sampled roots with the replay's simulated
``sim_arrival_ns`` / ``sim_finish_ns`` / ``sim_latency_ns``
(:meth:`~FlowSpanRecorder.annotate_loaded`), whichever replay ran.  The
recorder holds no run state — :meth:`~FlowSpanRecorder.record` returns
the row, the run keeps the ones it stamps — so platforms sharing one
recorder (a cluster's replicas) cannot collide.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.report import Shape, shape_of
from repro.obs.trace import (
    FIRST_TS,
    Span,
    chrome_event,
    encode,
    groups_of,
    joined,
    laid_out,
    render,
    slot,
)
from repro.platform.costs import CostModel, Operation
from repro.vector import np

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.report import ProcessReport
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
        #: one ``[template, start_ns, fid]`` row per recorded packet,
        #: stamped ``[template, start_ns, fid, arrival, finish, latency]``
        self._rows: List[list] = []
        self._decisions: Dict[int, bool] = {}
        self._flow_spans: Dict[int, int] = {}
        #: (cost model, report shape) -> the spans' template
        self._templates: Dict[Tuple[CostModel, Shape], "_FlowTemplate"] = {}
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

    def record(self, report: "ProcessReport", costs: CostModel) -> Optional[list]:
        """Record one packet's spans, priced by ``costs`` (the recording
        platform's cost model), if its flow is sampled; returns its row
        for :meth:`annotate_loaded`, or ``None``.  Callers on a hot path
        gate the call on ``skip.get(fid) is None`` (re-checked here)."""
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
        key = (costs, shape_of(report))
        template = self._templates.get(key)
        if template is None:
            template = self._templates[key] = _FlowTemplate(report, costs)
        row = [template, self._clock_ns, fid]
        self._rows.append(row)
        for dur_ns in template.durations:
            self._clock_ns += dur_ns
        return row

    # -- loaded-run annotation --------------------------------------------

    def annotate_loaded(self, roots: Dict[int, list], arrival, finish) -> None:
        """Stamp a run's sampled roots with its simulated timeline:
        ``roots`` maps a packet's index in the run to the row
        :meth:`record` returned; ``arrival`` and ``finish`` give each
        root's times by that index (the replay's columns, or the stamps
        the vector replay took for exactly these packets)."""
        for index, row in roots.items():
            arrival_ns, finish_ns = float(arrival[index]), float(finish[index])
            # appended one by one: a tuple here would be the run's one
            # burst of container allocations, and a collection with it
            row.append(arrival_ns)
            row.append(finish_ns)
            row.append(finish_ns - arrival_ns)

    # -- introspection / export -------------------------------------------

    def __len__(self) -> int:
        return sum(row[0].size for row in self._rows)

    @property
    def records(self) -> List[Dict[str, Any]]:
        """Every span as a ``{"type": "flow_span", ...}`` dict, each
        packet's root then its children, in record order."""
        return [record for row in self._rows for record in row[0].records(row)]

    def roots(self) -> List[Dict[str, Any]]:
        """The per-packet root spans, in record order."""
        return [row[0].records(row)[0] for row in self._rows]

    def summary(self) -> Dict[str, float]:
        return {
            "every": self.every,
            "flows_seen": self.flows_seen,
            "flows_sampled": self.flows_sampled,
            "packets_sampled": self.packets_sampled,
            "spans": len(self),
        }

    def write_jsonl(self, path) -> int:
        """Write one JSON line a span, each packet's root then its
        children, in record order; returns the span count."""
        rows = self._rows
        groups = groups_of(rows)
        # a row's spans are one text: its lines, joined
        cut = [[joined(events, "\n")] for events in encode(
            [template.spans(rows[indices[0]]) for template, indices in groups], sort_keys=True)]
        texts, (__, __, owners, __) = render(rows, groups, cut, None, 1.0)
        lines = list(map(texts.__getitem__, np.argsort(owners).tolist()))
        with open(path, "w") as handle:
            handle.write("\n".join(lines + [""]))
        return len(self)

    def replay_into(self, tracer: "PacketTracer") -> int:
        """Hand the spans recorded since the last call to ``tracer`` (for
        the Chrome export): the rows go by reference, and a repeat call
        hands nothing.  Returns how many spans went."""
        return tracer.adopt(self._rows)

    def reset(self) -> None:
        self.skip.clear()
        self.flows_seen = 0
        self.flows_sampled = 0
        self.packets_sampled = 0
        self._rows = []
        self._decisions.clear()
        self._flow_spans.clear()
        self._templates.clear()
        self._clock_ns = 0.0

    def __repr__(self) -> str:
        return (
            f"<FlowSpanRecorder 1-in-{self.every}: {self.flows_sampled}/"
            f"{self.flows_seen} flows, {self.packets_sampled} packets, "
            f"{len(self)} spans>"
        )


class _FlowTemplate:
    """One shape's flow spans but for a row's start, FID and stamps: a
    root span on track ``flow:<fid>``, then its children laid end to end
    from the root's start (:meth:`_children`).

    A row is ``[template, start_ns, fid, *stamps]``.  Encoded, a row's
    slots are the three stamps (0–2), the track's Chrome ``tid`` (3), the
    FID (4, which names the track too) and each span's start.
    """

    __slots__ = ("children", "durations", "offsets", "size", "kinds", "total_ns", "root_args")

    def __init__(self, report: "ProcessReport", costs: CostModel):
        self.children = self._children(report, costs)
        self.durations = [child[3] for child in self.children]
        #: the root starts with its first child, each child after the
        #: one before (``(off, step)`` pairs for :func:`laid_out`)
        self.offsets = [(0.0, 0.0)] + [(0.0, dur_ns) for dur_ns in self.durations]
        self.size = 1 + len(self.children)
        self.kinds = [0] * self.size
        total_ns = total_cycles = 0.0
        for __, __, cycles, dur_ns, __ in self.children:
            total_ns += dur_ns
            total_cycles += cycles
        self.total_ns = total_ns
        #: the root's args after its FID
        self.root_args = {"path": report.path.value, "dropped": report.dropped,
                          "cycles": total_cycles}

    def _records(self, starts: list, stamps, fid, track: str) -> List[Dict[str, Any]]:
        """The spans at ``starts`` as dicts (as many as ``starts`` has),
        the root stamped with ``stamps`` (if any)."""
        args = {"fid": fid, **self.root_args}
        if stamps:
            args["sim_arrival_ns"], args["sim_finish_ns"], args["sim_latency_ns"] = stamps
        records = [{"type": "flow_span", "name": "packet", "track": track, "start_ns": starts[0],
                    "dur_ns": self.total_ns, "depth": 0, "args": args}]
        for (name, stage, cycles, dur_ns, wave), start in zip(self.children, starts[1:]):
            args = {"stage": stage, "cycles": cycles}
            if wave is not None:
                args["wave"] = wave
            records.append({"type": "flow_span", "name": name, "track": track,
                            "start_ns": start, "dur_ns": dur_ns, "depth": 1, "args": args})
        return records

    def records(self, row: list) -> List[Dict[str, Any]]:
        """``row``'s spans as dicts, the root first."""
        return self._records(laid_out(self.offsets, row[1]), row[3:], row[2], f"flow:{row[2]}")

    def spans(self, row: list) -> List[Dict[str, Any]]:
        """The spans of rows like ``row`` (stamped or not), with their slots."""
        stamps = (slot(0), slot(1), slot(2)) if len(row) > 3 else ()
        return self._records([slot(FIRST_TS + k) for k in range(self.size)], stamps,
                             slot(4), "flow:" + slot(4))

    def chrome(self, tids: Dict[str, int], row: list) -> List[Dict[str, Any]]:
        """:meth:`spans` as Chrome events, on the track's ``tid`` (slot 3)."""
        return [chrome_event(0, record["name"], "", slot(3), record["start_ns"],
                             record["dur_ns"], record["args"]) for record in self.spans(row)]

    def track_uses(self, rows: list, indices) -> List[tuple]:
        """``(0, row, 0, "flow:<fid>")`` at each FID's first row."""
        indices = indices.tolist()
        fids = [rows[index][2] for index in indices]
        # reversed, the first row of an FID is the last write
        first = dict(zip(reversed(fids), reversed(indices)))
        return [(0, index, 0, f"flow:{fid}") for fid, index in first.items()]

    def columns(self, rows: List[list], tids) -> Tuple[Dict[int, list], List[np.ndarray]]:
        """The rows' slot values, and each span's start (ns) as a column."""
        fids = [row[2] for row in rows]
        fields = {4: fids}
        if len(rows[0]) > 3:
            for k in range(3):
                fields[k] = [row[3 + k] for row in rows]
        if tids is not None:
            tid_of = {fid: tids[f"flow:{fid}"] for fid in dict.fromkeys(fids)}
            fields[3] = list(map(tid_of.__getitem__, fids))
        return fields, laid_out(self.offsets, np.array([row[1] for row in rows], np.float64))

    def materialize(self, row: list, out: tuple) -> None:
        for record in self.records(row):
            span = Span(record["name"], record["track"], record["start_ns"], record["dur_ns"],
                        record["args"])
            span.depth = record["depth"]
            out[0].append(span)

    @staticmethod
    def _children(
        report: "ProcessReport", model: CostModel
    ) -> List[Tuple[str, str, float, float, Optional[int]]]:
        """(name, stage, cycles, dur_ns, wave) children for one report: the
        fixed meter's stages in canonical order around the per-NF spans
        (slow-path hops or SF batches), each a count × cost sum in sorted
        operation order, so with integer costs they sum exactly."""
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


def _meter_cycles(meter, table) -> float:
    """count × cost sum in sorted-operation order (exact for int costs)."""
    total = meter.direct_cycles
    counts = meter.counts
    for operation in sorted(counts, key=lambda op: op.value):
        total += table[operation] * counts[operation]
    return total
