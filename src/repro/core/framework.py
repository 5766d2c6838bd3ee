"""The SpeedyBox runtime and the baseline service chain (§III, Fig. 1).

:class:`ServiceChain` is the original, un-consolidated chain: every packet
traverses every NF in order (stopping at a drop), exactly as BESS or
OpenNetVM would run it without SpeedyBox.

:class:`SpeedyBox` wires the Packet Classifier, per-NF Local MATs, the
Global MAT and the Event Table around the same NF objects:

- packets of not-yet-consolidated flows traverse the original chain while
  the NFs record their behaviour through the instrumentation APIs; when
  the initial packet finishes, the Global MAT consolidates;
- subsequent packets take the fast path: event check → consolidated
  header action → state-function schedule → post-update event check;
- FIN/RST deletes the flow's rules everywhere.

Both runtimes return a :class:`ProcessReport` carrying per-stage cycle
meters; platforms (``repro.platform``) convert meters into time, adding
their own transport costs (BESS module dispatch vs ONVM ring hops).

Ablation flags: ``enable_consolidation`` (header-action consolidation,
§V-B) and ``enable_parallelism`` (state-function parallelism, §V-C2) can
be disabled independently to reproduce the Fig. 7 breakdown.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.actions import Decap, Drop, Encap, Forward, HeaderAction, Modify
from repro.core.classifier import Classification, FlowEntry, PacketClassifier
from repro.core.consolidation import ConsolidatedAction
from repro.core.event_table import Event, EventTable
from repro.core.global_mat import GlobalMAT, GlobalRule
from repro.core.local_mat import (
    InstrumentationAPI,
    LocalMAT,
    LocalRule,
    NullInstrumentationAPI,
)
from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.platform.costs import CycleMeter, NULL_METER as _NULL_API_METER, Operation


class PathTaken(enum.Enum):
    ORIGINAL = "original"            # initial packet, recorded + consolidated
    ORIGINAL_HANDSHAKE = "handshake"  # pre-establishment, not recorded
    FAST = "fast"                    # Global MAT fast path


@dataclass(slots=True)
class ProcessReport:
    """Everything a platform needs to time one packet."""

    path: PathTaken
    fid: int
    dropped: bool = False
    closing: bool = False
    events_fired: int = 0
    #: classifier + MAT machinery + consolidated-action application
    fixed_meter: CycleMeter = field(default_factory=CycleMeter)
    #: slow path: chain-ordered (nf_name, meter) for NFs that ran
    nf_meters: List[Tuple[str, CycleMeter]] = field(default_factory=list)
    #: fast path: per wave, per batch (nf_name, meter)
    sf_waves: List[List[Tuple[str, CycleMeter]]] = field(default_factory=list)
    #: (platform, work, latency, main_core) memo — ``Platform._time_report``
    #: is invoked twice per loaded packet (unloaded timing + stage plan);
    #: the cache collapses the second walk.  Owned by ``repro.platform``.
    timing_cache: Optional[Tuple[object, float, float, float]] = field(
        default=None, repr=False, compare=False
    )
    #: True for the per-flow singleton report a :class:`CompiledFlow`
    #: returns for every steady-state packet (no SF waves, so nothing in
    #: it varies per packet).  Consumers may key caches on the report's
    #: identity when this is set — the object outlives the run.
    steady: bool = field(default=False, repr=False, compare=False)
    #: ``(platform, stage_plan, plan_id, run)`` memo for steady singleton
    #: reports.  The loaded functional pass and the batch lane both derive
    #: exactly one stage plan per steady report; keeping the memo *on the
    #: report* (instead of an ``id()``-keyed side table) means a report
    #: garbage-collected after a flow eviction can never leave a stale
    #: entry behind for a recycled id.  ``run`` says which run wrote the
    #: entry — a per-packet pass's marker or the batch lane, whose
    #: plan-table index is ``plan_id`` (``None`` elsewhere) — and only
    #: that run trusts more of it than the plan.  Owned by
    #: ``repro.platform``.
    plan_cache: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def is_fast(self) -> bool:
        return self.path is PathTaken.FAST

    def total_meter(self) -> CycleMeter:
        """All charges merged (platform-transport costs NOT included)."""
        total = self.fixed_meter.copy()
        for __, meter in self.nf_meters:
            total.merge(meter)
        for wave in self.sf_waves:
            for __, meter in wave:
                total.merge(meter)
        return total


@dataclass
class FlowRecord:
    """One flow's complete runtime state, detached for migration.

    Everything SpeedyBox holds for the flow — classifier connection
    state, per-NF Local MAT rules, the consolidated Global MAT rule, and
    registered events — plus ``nf_state``: per-NF opaque snapshots
    (:meth:`NetworkFunction.export_flow_state`) keyed by NF name.  The
    record is read by :meth:`SpeedyBox.peek_flow` (or detached by
    :meth:`SpeedyBox.export_flow`) and consumed by
    :meth:`SpeedyBox.import_flow`; ``repro.scale.FlowMigrator`` rebinds
    the recorded handlers to the target replica's NFs in between.

    A record says how it copies (``__deepcopy__``, as do the classes in
    it): recorded actions are immutable values and are shared, the
    mutable shells — entry, rules, batches, functions — copy exactly the
    slots a packet, an event or a rebind can change, and events and NF
    state take ``copy``'s generic walk.  Everything goes through the
    caller's memo, so one batch referenced from a Local MAT rule and
    from the Global MAT schedule is still one batch in the copy.
    """

    fid: int
    classifier_entry: Optional[FlowEntry] = None
    local_rules: Dict[str, LocalRule] = field(default_factory=dict)
    global_rule: Optional[GlobalRule] = None
    events: List[Event] = field(default_factory=list)
    nf_state: Dict[str, object] = field(default_factory=dict)

    def rekey(self, fid: int) -> None:
        """Move the record to another FID (the importing runtime's).

        Everything keyed by FID carries it as a plain ``.fid``; NF state
        is keyed by five-tuple and does not move.
        """
        self.fid = fid
        for item in (*self.local_rules.values(), self.global_rule, *self.events):
            if item is not None:
                item.fid = fid

    def __deepcopy__(self, memo) -> "FlowRecord":
        return FlowRecord(
            fid=self.fid,
            classifier_entry=copy.deepcopy(self.classifier_entry, memo),
            local_rules={
                name: copy.deepcopy(rule, memo)
                for name, rule in self.local_rules.items()
            },
            global_rule=copy.deepcopy(self.global_rule, memo),
            events=copy.deepcopy(self.events, memo),
            nf_state=copy.deepcopy(self.nf_state, memo),
        )


def _check_unique_names(nfs: Sequence[NetworkFunction]) -> None:
    names = [nf.name for nf in nfs]
    if len(set(names)) != len(names):
        raise ValueError(f"NF names must be unique within a chain, got {names}")


class ServiceChain:
    """The original chain: sequential NF traversal, no consolidation."""

    def __init__(self, nfs: Sequence[NetworkFunction], metrics: MetricsRegistry = NULL_REGISTRY):
        if not nfs:
            raise ValueError("a service chain needs at least one NF")
        _check_unique_names(nfs)
        self.nfs: List[NetworkFunction] = list(nfs)
        self._api = NullInstrumentationAPI()
        self.packets = 0
        self.metrics = metrics
        self._m_packets = metrics.counter(
            "chain_packets_total", "packets through the original chain"
        )
        self._m_drops = metrics.counter(
            "packets_dropped_total", "drops attributed to the NF that dropped"
        )

    @property
    def nf_names(self) -> Tuple[str, ...]:
        return tuple(nf.name for nf in self.nfs)

    def __len__(self) -> int:
        return len(self.nfs)

    def process(self, packet: Packet) -> ProcessReport:
        """Run the packet through every NF in order (stop at drop)."""
        self.packets += 1
        self._m_packets.inc()
        report = ProcessReport(path=PathTaken.ORIGINAL, fid=-1)
        for nf in self.nfs:
            meter = CycleMeter()
            nf.meter = meter
            try:
                nf.process(packet, self._api)
            finally:
                _detach_meter(nf)
            report.nf_meters.append((nf.name, meter))
            if packet.dropped:
                report.dropped = True
                self._m_drops.labels(cause=nf.name).inc()
                break
        if _is_closing_packet(packet):
            report.closing = True
            for nf in self.nfs:
                nf.handle_flow_close(packet)
        return report

    def reset(self) -> None:
        self.packets = 0
        for nf in self.nfs:
            nf.reset()


def _detach_meter(nf: NetworkFunction):
    nf.meter = _NULL_API_METER
    return _NULL_API_METER


def _is_closing_packet(packet: Packet) -> bool:
    from repro.net.headers import TCP_FIN, TCP_RST, TCPHeader

    return isinstance(packet.l4, TCPHeader) and (
        packet.l4.has_flag(TCP_FIN) or packet.l4.has_flag(TCP_RST)
    )


class SpeedyBox:
    """The SpeedyBox runtime around a chain of NFs."""

    def __init__(
        self,
        nfs: Sequence[NetworkFunction],
        enable_consolidation: bool = True,
        enable_parallelism: bool = True,
        max_flows: Optional[int] = None,
        metrics: MetricsRegistry = NULL_REGISTRY,
        audit: AuditLog = NULL_AUDIT,
        max_tracked_flows: Optional[int] = None,
    ):
        if not nfs:
            raise ValueError("SpeedyBox needs at least one NF")
        _check_unique_names(nfs)
        self.nfs: List[NetworkFunction] = list(nfs)
        self.nf_by_name: Dict[str, NetworkFunction] = {nf.name: nf for nf in nfs}
        self.enable_consolidation = enable_consolidation
        self.max_flows = max_flows
        #: bound on *classifier* connection-tracking entries; evicting a
        #: tracked flow tears down everything else keyed by it, so with
        #: this set every per-flow table is bounded and long runs over
        #: millions of flows keep a flat footprint.
        self.max_tracked_flows = max_tracked_flows
        self.metrics = metrics
        self.audit = audit
        #: compiled steady-state fast lanes (repro.core.fastpath), keyed
        #: by *five-tuple* so the per-packet dispatch is one dict probe on
        #: a plain header tuple — no FID hash, no FiveTuple allocation —
        #: and a hit doubles as the flow-identity check.  ``_compiled_fids``
        #: is the FID-keyed index the invalidation hooks use.  Observably
        #: identical to the interpreted fast path (``_run_fast``), which
        #: stays the tests' oracle and serves what the lane hands back: a
        #: packet whose event pre-check fires, FIN/RST teardown, the
        #: consolidation-off ablation.
        self._compiled: Dict[FiveTuple, "object"] = {}
        self._compiled_fids: Dict[int, FiveTuple] = {}
        #: batch-lane invalidation feed.  While a lane run is active this
        #: points at a list; every mutation of a flow's compiled lane
        #: (replace, pop, rule rebuild after an event) appends the FID so
        #: the lane can evict its cached clone before trusting it again.
        #: ``None`` whenever no lane run is in flight.
        self._lane_invalidations: Optional[list] = None
        self.classifier = PacketClassifier(
            metrics=metrics,
            capacity=max_tracked_flows,
            on_evict=self._on_classifier_evicted,
        )
        self.event_table = EventTable(metrics=metrics)
        self.global_mat = GlobalMAT(
            enable_parallelism=enable_parallelism,
            capacity=max_flows,
            on_evict=self._on_rule_evicted,
            metrics=metrics,
            audit=audit,
        )
        self.local_mats: Dict[str, LocalMAT] = {
            nf.name: LocalMAT(nf.name, self.event_table) for nf in nfs
        }
        self.apis: Dict[str, InstrumentationAPI] = {
            nf.name: InstrumentationAPI(self.local_mats[nf.name], self.event_table) for nf in nfs
        }
        self.slow_packets = 0
        self.fast_packets = 0
        path_counter = metrics.counter(
            "path_packets_total", "packets by path taken through the runtime"
        )
        self._m_path = {path: path_counter.labels(path=path.value) for path in PathTaken}
        self._m_drops = metrics.counter(
            "packets_dropped_total", "drops attributed to the NF that dropped"
        )
        self._m_fast = metrics.counter(
            "fast_path_packets_total", "packets served by the Global MAT fast path"
        )
        self._m_slow = metrics.counter(
            "slow_path_packets_total", "packets that traversed the original chain"
        )
        self._m_events_fired = metrics.counter(
            "fast_path_events_fired_total", "event firings observed on the fast path"
        )
        self._m_flow_deletes = metrics.counter(
            "flow_deletes_total", "FIN/RST full-table flow teardowns"
        )

    @property
    def nf_names(self) -> Tuple[str, ...]:
        return tuple(nf.name for nf in self.nfs)

    @property
    def enable_parallelism(self) -> bool:
        return self.global_mat.enable_parallelism

    # -- the per-packet entry point (Fig. 1 walkthrough) --------------------

    def process(self, packet: Packet) -> ProcessReport:
        compiled = self._compiled
        if compiled:
            l4 = packet.l4
            if l4 is not None:
                ip = packet.ip
                # A plain tuple hashes/compares like the FiveTuple keys,
                # so the probe is allocation-free and a hit *is* the
                # flow-identity check.
                flow = compiled.get(
                    (ip.src_ip, ip.dst_ip, l4.src_port, l4.dst_port, ip.protocol)
                )
                if flow is not None:
                    report = flow.run(packet)
                    if report is not None:
                        return report

        report = ProcessReport(path=PathTaken.ORIGINAL, fid=-1)
        classification = self.classifier.classify(packet, report.fixed_meter)
        report.fid = classification.fid
        report.closing = classification.is_closing

        if classification.is_handshake:
            report.path = PathTaken.ORIGINAL_HANDSHAKE
            self._run_original(packet, report, record=False)
        else:
            rule = self.global_mat.lookup(classification.fid)
            report.fixed_meter.charge(Operation.GLOBAL_MAT_LOOKUP)
            if rule is not None:
                report.path = PathTaken.FAST
                self._run_fast(packet, rule, report)
            else:
                report.path = PathTaken.ORIGINAL
                self._run_original(packet, report, record=True)
            if not classification.is_closing:
                self._maybe_compile(classification)

        if classification.is_closing:
            self.delete_flow(classification.fid, report.fixed_meter)
            self._m_flow_deletes.inc()
            # NFs clean their own per-flow state on FIN/RST, exactly as
            # they would when seeing the teardown on the original path.
            for nf in self.nfs:
                nf.handle_flow_close(packet)

        self.classifier.detach(packet, report.fixed_meter)
        self._m_path[report.path].inc()
        if report.events_fired:
            self._m_events_fired.inc(report.events_fired)
        return report

    def _maybe_compile(self, classification: Classification) -> None:
        """(Re)compile the flow's fast lane after an interpreted traversal.

        Runs after fast and recorded-original packets alike, so the flow's
        *second* packet already takes the compiled lane, and a flow whose
        rule an event just rebuilt is back on it one packet later.  Active
        events do not keep a flow off the lane — :meth:`CompiledFlow.run`
        makes both event checks itself — only
        :func:`repro.core.fastpath.compile_flow` declining does.
        """
        fid = classification.fid
        rule = self.global_mat.peek(fid)
        if rule is None:
            return
        key = self._compiled_fids.get(fid)
        if key is not None:
            existing = self._compiled.get(key)
            if existing is not None and existing.rule is rule:
                return
        flow = _fastpath.compile_flow(self, classification.entry, rule)
        if flow is not None:
            if key is not None and self._lane_invalidations is not None:
                self._lane_invalidations.append(fid)
            self._compiled[flow.five_tuple] = flow
            self._compiled_fids[fid] = flow.five_tuple
            self.audit.emit(
                "fastpath_compile",
                fid=fid,
                version=rule.version,
                waves=rule.schedule.wave_count,
                drop=rule.consolidated.drop,
            )
        elif key is not None:
            self._compiled.pop(key, None)
            del self._compiled_fids[fid]
            if self._lane_invalidations is not None:
                self._lane_invalidations.append(fid)
            self.audit.emit("fastpath_invalidate", fid=fid, reason="uncompilable")

    def _invalidate_compiled(self, fid: int, reason: str = "invalidated") -> None:
        """Drop a flow's compiled fast lane (rule or entry went away)."""
        key = self._compiled_fids.pop(fid, None)
        if key is not None:
            self._compiled.pop(key, None)
            if self._lane_invalidations is not None:
                self._lane_invalidations.append(fid)
            self.audit.emit("fastpath_invalidate", fid=fid, reason=reason)

    # -- original path with recording ---------------------------------------

    def _run_original(self, packet: Packet, report: ProcessReport, record: bool) -> None:
        self.slow_packets += 1
        self._m_slow.inc()
        fid = report.fid
        if record:
            for nf in self.nfs:
                self.local_mats[nf.name].begin_recording(fid)
                report.fixed_meter.charge(Operation.MAT_BEGIN_RECORD)

        null_api = NullInstrumentationAPI()
        for nf in self.nfs:
            meter = CycleMeter()
            nf.meter = meter
            api = self.apis[nf.name] if record else null_api
            api.meter = meter
            try:
                nf.process(packet, api)
            finally:
                _detach_meter(nf)
                api.meter = _NULL_API_METER
            report.nf_meters.append((nf.name, meter))
            if packet.dropped:
                report.dropped = True
                self._m_drops.labels(cause=nf.name).inc()
                break

        if record and not report.closing:
            self._consolidate(fid, report.fixed_meter)

    def _consolidate(self, fid: int, meter: CycleMeter) -> GlobalRule:
        ordered = [(nf.name, self.local_mats[nf.name].rule_for(fid)) for nf in self.nfs]
        action_count = sum(len(rule.header_actions) for __, rule in ordered if rule is not None)
        meter.charge(Operation.CONSOLIDATE_ACTION, max(action_count, 1))
        meter.charge(Operation.GLOBAL_RULE_INSTALL)
        return self.global_mat.build_rule(fid, ordered)

    # -- the fast path -------------------------------------------------------

    def _run_fast(self, packet: Packet, rule: GlobalRule, report: ProcessReport) -> None:
        self.fast_packets += 1
        self._m_fast.inc()
        fid = rule.fid
        meter = report.fixed_meter
        meter.charge(Operation.FAST_PATH_DISPATCH)

        # (1) Event pre-check: has anything changed since the last packet?
        fired = self._check_events(fid, meter)
        if fired:
            report.events_fired += fired
            rule = self.global_mat.peek(fid) or rule

        # (2) Apply the consolidated header action (or the raw action list
        #     when the consolidation ablation is off).  Drop rules with
        #     state functions defer the actual drop: the batches up to the
        #     dropping NF must observe the packet exactly as the original
        #     path showed it to their NFs — rewritten by the upstream
        #     actions (pre_drop), and not yet dropped until the dropper's
        #     own position.
        is_drop_rule = self.enable_consolidation and rule.consolidated.drop
        if self.enable_consolidation:
            if is_drop_rule:
                meter.charge(Operation.DROP_FREE)
                if rule.schedule.batch_count and rule.pre_drop is not None:
                    self._apply_nondrop(rule.pre_drop, packet, meter)
            else:
                self._apply_nondrop(rule.consolidated, packet, meter)
        else:
            self._apply_raw(rule, packet, meter)

        # (3) Execute the state-function schedule.
        for wave in rule.schedule.waves:
            wave_meters: List[Tuple[str, CycleMeter]] = []
            for batch in wave:
                if is_drop_rule and not packet.dropped and batch.nf_name == rule.dropper:
                    packet.drop()  # the dropper's own SFs see a dropped packet
                batch_meter = CycleMeter()
                owner = self.nf_by_name.get(batch.nf_name)
                if owner is not None:
                    owner.meter = batch_meter
                batch_meter.charge(Operation.SF_INVOKE, len(batch))
                try:
                    batch.execute(packet)
                finally:
                    if owner is not None:
                        _detach_meter(owner)
                wave_meters.append((batch.nf_name, batch_meter))
            report.sf_waves.append(wave_meters)
        if is_drop_rule and not packet.dropped:
            packet.drop()

        # (4) Post-update event check ("as soon as states have been
        #     updated", §V-C1): affects *subsequent* packets.
        fired = self._check_events(fid, meter)
        report.events_fired += fired

        report.dropped = packet.dropped
        if report.dropped:
            self._m_drops.labels(cause=rule.dropper or "consolidated").inc()

    def _apply_nondrop(self, action: ConsolidatedAction, packet: Packet, meter: CycleMeter) -> None:
        """Charge and apply a consolidated action's non-drop effects."""
        meter.charge(Operation.DECAP_OP, len(action.leading_decaps))
        field_count = len(action.field_ops)
        if field_count:
            meter.charge(Operation.FIELD_WRITE)
            meter.charge(Operation.MERGED_FIELD_WRITE, field_count - 1)
            meter.charge(Operation.CHECKSUM_UPDATE)
        meter.charge(Operation.ENCAP_OP, len(action.net_encaps))
        action.apply(packet)

    def _apply_raw(self, rule: GlobalRule, packet: Packet, meter: CycleMeter) -> None:
        """Ablation: apply every recorded action sequentially (no merge)."""
        for action in rule.raw_actions:
            if isinstance(action, Drop):
                meter.charge(Operation.DROP_FREE)
            elif isinstance(action, Modify):
                meter.charge(Operation.FIELD_WRITE, len(action.ops))
                meter.charge(Operation.CHECKSUM_UPDATE)
            elif isinstance(action, Encap):
                meter.charge(Operation.ENCAP_OP)
            elif isinstance(action, Decap):
                meter.charge(Operation.DECAP_OP)
            action.apply(packet)
            if packet.dropped:
                return
        packet.finalize()

    def _check_events(self, fid: int, meter: CycleMeter) -> int:
        active = self.event_table.active_event_count(fid)
        meter.charge(Operation.EVENT_CHECK, active)
        if not active:
            return 0
        fired = self.event_table.check_fid(fid)
        for event, replacement in fired:
            local_mat = self.local_mats.get(event.nf_name)
            if local_mat is None:
                continue
            if replacement is not None:
                local_mat.replace_header_actions(fid, [replacement])
            if event.update_state_functions is not None:
                local_mat.replace_state_functions(fid, event.update_state_functions)
        if fired:
            self._consolidate(fid, meter)
            # The rebuilt rule orphans any compiled clone for the FID
            # without popping it (the clone's identity gate catches it);
            # a lane caching validated clones must hear about it too.
            if self._lane_invalidations is not None:
                self._lane_invalidations.append(fid)
        return len(fired)

    # -- introspection ---------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """A snapshot of the runtime's counters (monitoring surface)."""
        total = self.slow_packets + self.fast_packets
        return {
            "packets": total,
            "slow_packets": self.slow_packets,
            "fast_packets": self.fast_packets,
            "fast_path_rate": (self.fast_packets / total) if total else 0.0,
            "active_rules": len(self.global_mat),
            "consolidations": self.global_mat.consolidations,
            "reconsolidations": self.global_mat.reconsolidations,
            "evictions": self.global_mat.evictions,
            "events_registered": self.event_table.total_registered,
            "events_triggered": self.event_table.total_triggered,
            "fid_collisions": self.classifier.collisions,
            "tracked_flows": len(self.classifier),
            "classifier_evictions": self.classifier.evictions,
        }

    # -- flow lifecycle ------------------------------------------------------

    def _on_rule_evicted(self, fid: int) -> None:
        """LRU eviction callback: tear down the flow's other records.

        The classifier entry stays so connection state (established,
        packet counts) survives; the flow's next packet takes the
        original path and re-consolidates.
        """
        self._invalidate_compiled(fid, reason="rule_evicted")
        for local_mat in self.local_mats.values():
            local_mat.delete_flow(fid)
        self.event_table.clear_flow(fid)

    def _on_classifier_evicted(self, entry: FlowEntry) -> None:
        """Classifier capacity eviction: drop *every* trace of the flow.

        Unlike :meth:`_on_rule_evicted` (Global-MAT LRU pressure, where
        connection state survives), a classifier eviction forgets the
        flow entirely — its next packet, if any, starts over as a brand
        new flow.  Compiled closure, Global MAT rule, Local MAT rules and
        events must all go together (the flow-table growth hazard: a
        dangling compiled closure would keep serving a forgotten flow).
        """
        fid = entry.fid
        self._invalidate_compiled(fid, reason="classifier_evict")
        self.global_mat.delete_flow(fid)
        for local_mat in self.local_mats.values():
            local_mat.delete_flow(fid)
        self.event_table.clear_flow(fid)
        self.audit.emit("classifier_evict", fid=fid, packets=entry.packets)

    def delete_flow(self, fid: int, meter: Optional[CycleMeter] = None) -> None:
        """FIN/RST cleanup across every table (§VI-B)."""
        if meter is not None:
            meter.charge(Operation.FLOW_DELETE)
        self._invalidate_compiled(fid, reason="flow_delete")
        self.global_mat.delete_flow(fid)
        for local_mat in self.local_mats.values():
            local_mat.delete_flow(fid)
        self.event_table.clear_flow(fid)
        self.classifier.remove_flow(fid)

    # -- migration support (repro.scale) -------------------------------------

    def peek_flow(self, fid: int) -> Optional[FlowRecord]:
        """Everything the tables hold for one flow, read in place.

        Returns ``None`` when the classifier knows nothing about the FID.
        The record references the live table rows — nothing is detached,
        no LRU order moves, the compiled lane stays — so a caller that
        wants a snapshot copies it (:mod:`repro.ft.checkpoint`).  Trigger
        state (``triggered``/``trigger_count``) sits on each event, so a
        one-shot that already fired stays spent wherever the record goes.
        """
        entry = self.classifier.flow(fid)
        if entry is None:
            return None
        record = FlowRecord(fid=fid, classifier_entry=entry)
        for name, local_mat in self.local_mats.items():
            rule = local_mat.rule_for(fid)
            if rule is not None:
                record.local_rules[name] = rule
        record.global_rule = self.global_mat.peek(fid)
        record.events = self.event_table.events_for(fid)
        return record

    def export_flow(self, fid: int) -> Optional[FlowRecord]:
        """Detach all runtime state of one flow as an atomic unit.

        :meth:`peek_flow`, then every table forgets the flow — not an
        eviction, so no ``on_evict`` teardown fires.  Recorded handlers
        in the returned record still reference *this* runtime's NFs — the
        migrator must rebind them before :meth:`import_flow` on a target.
        """
        self._invalidate_compiled(fid, reason="flow_export")
        record = self.peek_flow(fid)
        if record is not None:
            self.delete_flow(fid)
        return record

    def import_flow(self, record: FlowRecord, reason: str = "flow_import") -> None:
        """Install a migrated flow's runtime state into this runtime's tables.

        Handlers must already be rebound to this runtime's NF instances;
        NF-internal state (``record.nf_state``) is the migrator's job.
        ``reason`` labels the compiled-lane invalidation in the audit log
        (``flow_import`` for migration, ``checkpoint_restore`` when the
        fault-tolerance subsystem re-installs a snapshot — the restored
        flow's next packet recompiles its fast lane, observably identical
        by the compiled/interpreted parity contract).

        The classifier places the flow first (a full FID space raises
        before any table changes); when the FID it owns here differs
        from the source's, the record is re-keyed to it.
        """
        if record.classifier_entry is not None:
            fid = self.classifier.import_flow(record.classifier_entry)
            if fid != record.fid:
                record.rekey(fid)
        self._invalidate_compiled(record.fid, reason=reason)
        for name, rule in record.local_rules.items():
            local_mat = self.local_mats.get(name)
            if local_mat is None:
                raise KeyError(f"target chain has no NF named {name!r}")
            local_mat.import_flow(rule)
        if record.global_rule is not None:
            self.global_mat.import_rule(record.global_rule)
        self.event_table.import_flow(record.fid, record.events)

    def reset(self) -> None:
        """Fresh run: clear all tables and NF state."""
        self.classifier = PacketClassifier(
            metrics=self.metrics,
            capacity=self.max_tracked_flows,
            on_evict=self._on_classifier_evicted,
        )
        self.event_table = EventTable(metrics=self.metrics)
        self.global_mat = GlobalMAT(
            enable_parallelism=self.global_mat.enable_parallelism,
            capacity=self.max_flows,
            on_evict=self._on_rule_evicted,
            metrics=self.metrics,
            audit=self.audit,
        )
        self.local_mats = {nf.name: LocalMAT(nf.name, self.event_table) for nf in self.nfs}
        self.apis = {
            nf.name: InstrumentationAPI(self.local_mats[nf.name], self.event_table)
            for nf in self.nfs
        }
        self.slow_packets = 0
        self.fast_packets = 0
        self._compiled.clear()
        self._compiled_fids.clear()
        for nf in self.nfs:
            nf.reset()


# Imported last: fastpath needs ProcessReport/PathTaken from this module,
# and this module only touches fastpath at runtime (inside _maybe_compile),
# so the cycle resolves through the module object.
from repro.core import fastpath as _fastpath  # noqa: E402
