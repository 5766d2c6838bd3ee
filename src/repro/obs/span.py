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
recorded packet is one row, its template and its start; a steady
(shared) report's template is built once, and every template encodes
its spans once per export (:func:`repro.obs.trace.encode`).  Sampling is
deterministic: the k-th distinct FID is sampled iff ``k % every == 0``;
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

from repro.obs.trace import (
    FIRST_TS,
    PACKET,
    ROW_SEP,
    VALUE,
    VALUE_US,
    Span,
    chrome_event,
    encode,
    rendered,
    slot,
)
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
        #: one ``[template, start_ns]`` row per recorded packet, stamped
        #: ``[template, start_ns, arrival, finish, latency]``
        self._rows: List[list] = []
        self._decisions: Dict[int, bool] = {}
        self._flow_spans: Dict[int, int] = {}
        #: id(steady report) -> (the report, its template): holding the
        #: report, a recycled ``id()`` cannot match a dead flow's entry
        self._steady_templates: Dict[int, tuple] = {}
        #: encoded span texts every template shares (see ``_FlowTemplate``)
        self._texts: Dict[tuple, str] = {}
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
        entry = self._steady_templates.get(id(report)) if report.steady else None
        if entry is None or entry[0] is not report:
            entry = (report, _FlowTemplate(report, costs, self._texts))
            if report.steady:
                self._steady_templates[id(report)] = entry
        row = [entry[1], self._clock_ns]
        self._rows.append(row)
        for dur_ns in entry[1].durations:
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
        return [record for template, start, *stamps in self._rows
                for record in template.records(template._starts(start), stamps, template.track)]

    def roots(self) -> List[Dict[str, Any]]:
        """The per-packet root spans, in record order."""
        return [template.records([start], stamps, "")[0] for template, start, *stamps in self._rows]

    def summary(self) -> Dict[str, float]:
        return {
            "every": self.every,
            "flows_seen": self.flows_seen,
            "flows_sampled": self.flows_sampled,
            "packets_sampled": self.packets_sampled,
            "spans": len(self),
        }

    def write_jsonl(self, path) -> int:
        rows = self._rows
        for template in dict.fromkeys(row[0] for row in rows):
            if template._jsonl is None:
                texts = template.joined(template.events(), "\n")
                template._jsonl = tuple(text + "\n" for text in texts)
        with open(path, "w") as handle:
            handle.write("".join(row[0].jsonl(row) for row in rows))
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
        self._steady_templates.clear()
        self._texts.clear()
        self._clock_ns = 0.0

    def __repr__(self) -> str:
        return (
            f"<FlowSpanRecorder 1-in-{self.every}: {self.flows_sampled}/"
            f"{self.flows_seen} flows, {self.packets_sampled} packets, "
            f"{len(self)} spans>"
        )


class _FlowTemplate:
    """One packet's flow spans but for its start and stamps: a root span
    on track ``flow:<fid>``, then its children laid end to end from the
    root's start (:meth:`_children`).

    A row is ``[template, start_ns, *stamps]``.  Encoded (:meth:`events`),
    a row's fields are the three stamps, the track (the FID, or in Chrome
    form the track's ``tid``), the FID and each span's start, so a span's
    text is the same on every flow: the recorder encodes each one once.
    """

    __slots__ = ("fid", "track", "tracks", "children", "durations", "size", "total_ns",
                 "root_args", "_texts", "_jsonl", "_tid", "_encoded", "_chrome")

    def __init__(self, report: "ProcessReport", costs: CostModel, texts: Dict[tuple, str]):
        self.fid = report.fid
        self.track = f"flow:{report.fid}"
        self.tracks = ((0, self.track),)
        self.children = self._children(report, costs)
        self.durations = [child[3] for child in self.children]
        self.size = 1 + len(self.children)
        total_ns = total_cycles = 0.0
        for __, __, cycles, dur_ns, __ in self.children:
            total_ns += dur_ns
            total_cycles += cycles
        self.total_ns = total_ns
        #: the root's args after its FID
        self.root_args = {"path": report.path.value, "dropped": report.dropped,
                          "cycles": total_cycles}
        self._texts = texts  # the recorder's
        self._jsonl = self._encoded = None

    def _starts(self, start: float) -> List[float]:
        """The root's start, then each child's, laid end to end."""
        starts = [start]
        for dur_ns in self.durations:
            starts.append(start)
            start += dur_ns
        return starts

    def _root(self, start, stamps, fid, track: str) -> Dict[str, Any]:
        args = {"fid": fid, **self.root_args}
        if stamps:
            args["sim_arrival_ns"], args["sim_finish_ns"], args["sim_latency_ns"] = stamps
        return {"type": "flow_span", "name": "packet", "track": track, "start_ns": start,
                "dur_ns": self.total_ns, "depth": 0, "args": args}

    def records(self, starts: list, stamps, track: str) -> List[Dict[str, Any]]:
        """The spans at ``starts`` as dicts (as many as ``starts`` has),
        the root stamped with ``stamps`` (if any), the children on ``track``."""
        records = [self._root(starts[0], stamps, self.fid, self.track)]
        for (name, stage, cycles, dur_ns, wave), start in zip(self.children, starts[1:]):
            args = {"stage": stage, "cycles": cycles}
            if wave is not None:
                args["wave"] = wave
            records.append({"type": "flow_span", "name": name, "track": track,
                            "start_ns": start, "dur_ns": dur_ns, "depth": 1, "args": args})
        return records

    def events(self, tid: Optional[int] = None) -> List[str]:
        """Each span's text — ``spans.jsonl`` rows, or Chrome events given
        the track's ``tid`` — the unstamped root, the stamped root, then
        the children, encoded on their first use by any flow."""
        jsonl, texts = tid is None, self._texts
        keys = [(jsonl, stamped, *self.root_args.values(), self.total_ns)
                for stamped in (False, True)]
        keys += [(jsonl, child, FIRST_TS + k) for k, child in enumerate(self.children, 1)]
        misses = [key for key in dict.fromkeys(keys) if key not in texts]
        if misses:
            track = "flow:" + slot(3)
            records = dict(zip(keys[2:], self.records(
                [slot(FIRST_TS)] + [slot(key[2]) for key in keys[2:]], None, track)[1:]))
            for key in keys[:2]:
                stamps = (PACKET, VALUE, VALUE_US) if key[1] else None
                records[key] = self._root(slot(FIRST_TS), stamps, slot(4), track)
            if not jsonl:
                records = {key: chrome_event(0, record["name"], "", slot(3), record["start_ns"],
                                             record["dur_ns"], record["args"])
                           for key, record in records.items()}
            for key, text in zip(misses, encode([[records[key] for key in misses]],
                                                sort_keys=jsonl)[0]):
                texts[key] = text
        return [texts[key] for key in keys]

    def chrome(self, tids: Dict[str, int]) -> list:
        self._tid = tids[self.track]
        return self.events(self._tid)

    @staticmethod
    def joined(texts: List[str], separator: str) -> tuple:
        """The row format strings of :meth:`events`' texts: unstamped, stamped."""
        return separator.join([texts[0], *texts[2:]]), separator.join(texts[1:])

    def jsonl(self, row: list) -> str:
        """``row``'s ``spans.jsonl`` lines (once :attr:`_jsonl` is encoded)."""
        __, start, *stamps = row
        return self._jsonl[bool(stamps)].format(
            *(stamps or (None,) * 3), self.fid, self.fid, *self._starts(start))

    def render(self, row: list, texts: List[str], timed: tuple) -> None:
        if texts is not self._encoded:
            self._encoded, self._chrome = texts, self.joined(texts, ROW_SEP)
        __, start, *stamps = row
        fields = (*(stamps or (None,) * 3), self._tid, self.fid)
        times, lines = rendered(self._starts(start), self._chrome[bool(stamps)], fields)
        timed[0][0].extend(times)
        timed[0][1].extend(lines)

    def materialize(self, row: list, out: tuple) -> None:
        for record in self.records(self._starts(row[1]), row[2:], self.track):
            span = Span(record["name"], self.track, record["start_ns"], record["dur_ns"],
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
