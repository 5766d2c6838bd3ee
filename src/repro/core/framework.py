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

Ablation flag: ``enable_parallelism=False`` runs every state-function
batch in its own wave (no §V-C2 parallelism).  Fig. 7 splits SpeedyBox's
gain with it: original → parallelism off is the header-action share,
parallelism off → full SpeedyBox the state-function share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.classifier import Classification, FlowEntry, PacketClassifier
from repro.core.event_table import Event, EventTable
from repro.core.global_mat import GlobalMAT, GlobalRule
from repro.core.local_mat import (
    InstrumentationAPI,
    LocalMAT,
    LocalRule,
    NullInstrumentationAPI,
)
from repro.core.report import PathTaken, ProcessReport
from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.platform.costs import CycleMeter, NULL_METER as _NULL_API_METER, Operation


# Enum members hoisted off the per-packet oracle (a class read runs Enum's hook)
_ORIGINAL, _HANDSHAKE, _FAST = PathTaken.ORIGINAL, PathTaken.ORIGINAL_HANDSHAKE, PathTaken.FAST
_MAT_LOOKUP, _BEGIN_RECORD = Operation.GLOBAL_MAT_LOOKUP, Operation.MAT_BEGIN_RECORD
_CONSOLIDATE, _RULE_INSTALL = Operation.CONSOLIDATE_ACTION, Operation.GLOBAL_RULE_INSTALL
_FAST_PATH_DISPATCH, _EVENT_CHECK = Operation.FAST_PATH_DISPATCH, Operation.EVENT_CHECK
_FLOW_DELETE = Operation.FLOW_DELETE


@dataclass
class FlowRecord:
    """One flow's complete runtime state, as plain data.

    Everything SpeedyBox holds for the flow — classifier connection
    state, per-NF Local MAT rules, the consolidated Global MAT rule, and
    registered events.  The record is read by :meth:`SpeedyBox.peek_flow`
    (or detached by :meth:`SpeedyBox.export_flow`) and consumed by
    :meth:`SpeedyBox.import_flow`, which resolves every recorded handler
    by name against the importing runtime's NFs.  NF-internal state
    travels beside it (``repro.scale.migration.install_flow``).
    """

    fid: int
    classifier_entry: Optional[FlowEntry] = None
    local_rules: Dict[str, LocalRule] = field(default_factory=dict)
    global_rule: Optional[GlobalRule] = None
    events: List[Event] = field(default_factory=list)

    def rekey(self, fid: int) -> None:
        """Move the record to another FID (the importing runtime's).

        Everything keyed by FID carries it as a plain ``.fid``; NF state
        is keyed by five-tuple and does not move.
        """
        self.fid = fid
        for item in (*self.local_rules.values(), self.global_rule, *self.events):
            if item is not None:
                item.fid = fid

    def resolve(self, nf_by_name: Dict[str, NetworkFunction]) -> None:
        """Point every recorded handler at its named method on these NFs,
        and drop a rule program built against other NFs."""

        def resolve_functions(functions) -> None:
            for function in functions:
                function.handler = getattr(nf_by_name[function.nf_name], function.method)

        for rule in self.local_rules.values():
            resolve_functions(rule.sf_batch)
        if self.global_rule is not None:
            self.global_rule.program = None
            # Usually the local rules' own functions (build_rule shares
            # batches); resolving twice is harmless.
            for wave in self.global_rule.schedule.waves:
                for batch in wave:
                    resolve_functions(batch)
        for event in self.events:
            owner = nf_by_name[event.nf_name]
            event.condition = getattr(owner, event.condition_method)
            if event.update_method is not None:
                event.update_function = getattr(owner, event.update_method)
            resolve_functions(event.update_state_functions or ())

    def copy(self) -> "FlowRecord":
        """A snapshot that shares nothing a later packet can change.

        Counters, flags, the rule version, each action *list* and the
        schedule are copied.  Recorded and consolidated actions,
        five-tuples and ``args`` are values (NFs and MATs only ever
        replace them) and are shared.  Handlers are left out — the copy
        names them, so it holds no NF object.  One ``id -> clone`` map
        for the whole record keeps every alias: a batch a Local MAT rule
        shares with the Global MAT schedule, and the functions a fired
        event put into a rule's batch, are one object each in the copy
        as in the original.
        """
        copies: Dict[int, object] = {}
        entry, rule = self.classifier_entry, self.global_rule
        return FlowRecord(
            fid=self.fid,
            classifier_entry=None if entry is None else entry.copy(),
            local_rules={
                name: local.copy(copies) for name, local in self.local_rules.items()
            },
            global_rule=None if rule is None else rule.copy(copies),
            events=[event.copy(copies) for event in self.events],
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
        report = ProcessReport(path=_ORIGINAL, fid=-1)
        for nf in self.nfs:
            meter = CycleMeter()
            nf.meter = meter
            try:
                nf.process(packet, self._api)
            finally:
                nf.meter = _NULL_API_METER
            report.nf_meters.append((nf.name, meter))
            if packet.dropped:
                report.dropped = True
                self._m_drops.labels(cause=nf.name).inc()
                break
        if is_closing_packet(packet):
            report.closing = True
            for nf in self.nfs:
                nf.handle_flow_close(packet)
        return report

    def reset(self) -> None:
        self.packets = 0
        for nf in self.nfs:
            nf.reset()


def is_closing_packet(packet: Packet) -> bool:
    from repro.net.headers import TCP_FIN, TCP_RST, TCPHeader

    return isinstance(packet.l4, TCPHeader) and (
        packet.l4.has_flag(TCP_FIN) or packet.l4.has_flag(TCP_RST)
    )


class SpeedyBox:
    """The SpeedyBox runtime around a chain of NFs."""

    def __init__(
        self,
        nfs: Sequence[NetworkFunction],
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
        #: is the FID-keyed index the invalidation hooks use.  A lane runs
        #: its rule's program, as the interpreted route (``_run_fast``)
        #: does for what the lane hands back: FIN/RST teardown, a packet
        #: whose event pre-check fires.
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
        self._null_api = NullInstrumentationAPI()
        self.slow_packets = 0
        self.fast_packets = 0
        #: structural changes made here (:attr:`generation`)
        self._changes = 0
        #: once a reader tracks changes (:meth:`track_changes`): fid ->
        #: ``_changes`` at its last structural change, and the ``_changes``
        #: of the last change to flows unnamed (:meth:`_touch`); each
        #: change to one flow stamps its FID where it is made
        self._stamps: Optional[Dict[int, int]] = None
        self._broad = 0
        self._flow_rows = [nf.flow_rows for nf in self.nfs if nf.flow_rows is not None]
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
        #: the tables and counters every compiled flow reads (rebuilt by reset)
        self._flow_bindings = _fastpath.FlowBindings(self)

    @property
    def nf_names(self) -> Tuple[str, ...]:
        return tuple(nf.name for nf in self.nfs)

    @property
    def enable_parallelism(self) -> bool:
        return self.global_mat.enable_parallelism

    @property
    def generation(self) -> int:
        """Moves on every structural change to the tables or to the NFs'
        flow mappings: a packet down the original path (it may record,
        consolidate, register events or allocate a mapping), a rule
        rebuilt by an event, an eviction, a teardown, an import or
        export, an event registered (the Event Table counts those) and a
        per-flow row an NF files or drops, also on the fast path (each
        NF's :class:`~repro.nf.base.FlowRows` counts those).  While it
        stands still only counters move: every row a flow held is still
        its row, and every NF maps its keys as before."""
        changes = self._changes + self.event_table.total_registered
        for rows in self._flow_rows:
            changes += rows.changes
        return changes

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

        report = ProcessReport(path=_ORIGINAL, fid=-1)
        classification = self.classifier.classify(packet, report.fixed_meter)
        report.fid = classification.fid
        report.closing = classification.is_closing

        if classification.is_handshake:
            report.path = _HANDSHAKE
            self._run_original(packet, report, record=False)
        else:
            rule = self.global_mat.lookup(classification.fid)
            report.fixed_meter.charge(_MAT_LOOKUP)
            if rule is not None:
                report.path = _FAST
                self._run_fast(packet, rule, report)
            else:
                report.path = _ORIGINAL
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
        fid = report.fid
        # one structural change, stamped with its FID while a reader
        # tracks changes (inline: per slow packet and per evicted flow)
        self._changes += 1
        if self._stamps is not None:
            self._stamps[fid] = self._changes
        self._m_slow.inc()
        if record:
            for nf in self.nfs:
                self.local_mats[nf.name].begin_recording(fid)
            # one count per NF, in one charge: the same counts entry
            report.fixed_meter.charge(_BEGIN_RECORD, len(self.nfs))

        null_api = self._null_api
        for nf in self.nfs:
            meter = CycleMeter()
            nf.meter = meter
            api = self.apis[nf.name] if record else null_api
            api.meter = meter
            try:
                nf.process(packet, api)
            finally:
                nf.meter = _NULL_API_METER
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
        self._changes += 1
        if self._stamps is not None:
            self._stamps[fid] = self._changes
        meter.charge(_CONSOLIDATE, max(action_count, 1))
        meter.charge(_RULE_INSTALL)
        return self.global_mat.build_rule(fid, ordered)

    # -- the fast path -------------------------------------------------------

    def _run_fast(self, packet: Packet, rule: GlobalRule, report: ProcessReport) -> None:
        """The interpreted route: what the compiled lane hands back.

        The rule's work is its :class:`~repro.core.fastpath.RuleProgram`,
        the one the compiled lane runs; what is done here live is what
        the lane folds into its fixed meter: the dispatch charge, both
        event checks (the pre-check may fire and rebuild the rule), the
        action's charges and the drop counter.
        """
        self.fast_packets += 1
        self._m_fast.inc()
        fid = rule.fid
        meter = report.fixed_meter
        meter.charge(_FAST_PATH_DISPATCH)

        # Event pre-check: has anything changed since the last packet?
        fired = self._check_events(fid, meter)
        if fired:
            report.events_fired += fired
            rule = self.global_mat.peek(fid) or rule

        program = _fastpath.program_of(self, rule)
        program.charge_action(meter)
        report.sf_waves = program.run(packet)

        # Post-update event check ("as soon as states have been updated",
        # §V-C1): affects *subsequent* packets.
        report.events_fired += self._check_events(fid, meter)

        report.dropped = packet.dropped
        if report.dropped:
            self._m_drops.labels(cause=program.drop_cause).inc()

    def _check_events(self, fid: int, meter: CycleMeter) -> int:
        active = self.event_table.active_event_count(fid)
        meter.charge(_EVENT_CHECK, active)
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
        self._changes += 1
        if self._stamps is not None:
            self._stamps[fid] = self._changes
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
        self._changes += 1
        if self._stamps is not None:
            self._stamps[fid] = self._changes
        self._invalidate_compiled(fid, reason="classifier_evict")
        self.global_mat.delete_flow(fid)
        for local_mat in self.local_mats.values():
            local_mat.delete_flow(fid)
        self.event_table.clear_flow(fid)
        self.audit.emit("classifier_evict", fid=fid, packets=entry.packets)

    def delete_flow(self, fid: int, meter: Optional[CycleMeter] = None) -> None:
        """FIN/RST cleanup across every table (§VI-B)."""
        if meter is not None:
            meter.charge(_FLOW_DELETE)
        self._changes += 1
        if self._stamps is not None:
            self._stamps[fid] = self._changes
        self._invalidate_compiled(fid, reason="flow_delete")
        self.global_mat.delete_flow(fid)
        for local_mat in self.local_mats.values():
            local_mat.delete_flow(fid)
        self.event_table.clear_flow(fid)
        self.classifier.remove_flow(fid)

    def _touch(self) -> None:
        """Count one structural change to flows it does not name."""
        self._changes += 1
        if self._stamps is not None:
            self._broad = self._changes

    def track_changes(self) -> None:
        """From now on, stamp each structural change with the FID, the
        event registration and the NF row it touched, so a reader can
        tell which flows moved; what came before counts as a change to
        every flow.  Until asked, nothing is stamped."""
        if self._stamps is None:
            self._stamps, self._broad = {}, self._changes
            self.event_table.stamps = {}
            for rows in self._flow_rows:
                rows.track()

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
        eviction, so no ``on_evict`` teardown fires.
        """
        self._invalidate_compiled(fid, reason="flow_export")
        record = self.peek_flow(fid)
        if record is not None:
            self.delete_flow(fid)
        return record

    def import_flow(self, record: FlowRecord, reason: str = "flow_import") -> None:
        """Install a foreign flow's runtime state into this runtime's tables.

        The only way a record enters a runtime: every recorded handler is
        resolved here, once, against this runtime's own NFs.  NF-internal
        state travels beside the record (``repro.scale.migration``).
        ``reason`` labels the compiled-lane invalidation in the audit log
        (``flow_import`` for migration, ``checkpoint_restore`` when the
        fault-tolerance subsystem re-installs a snapshot — the restored
        flow's next packet recompiles its fast lane, observably identical
        by the compiled/interpreted parity contract).

        The classifier places the flow first (a full FID space raises
        before any table changes); when the FID it owns here differs
        from the source's, the record is re-keyed to it.
        """
        record.resolve(self.nf_by_name)
        if record.classifier_entry is not None:
            fid = self.classifier.import_flow(record.classifier_entry)
            if fid != record.fid:
                record.rekey(fid)
        self._changes += 1
        if self._stamps is not None:
            self._stamps[record.fid] = self._changes
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
        # the fresh Event Table counts from 0: carry its count over, so
        # the generation still only grows
        self._changes = self._broad = self.generation + 1
        tracking, self._stamps = self._stamps is not None, None
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
        self._flow_bindings = _fastpath.FlowBindings(self)
        self.slow_packets = 0
        self.fast_packets = 0
        self._compiled.clear()
        self._compiled_fids.clear()
        for nf in self.nfs:
            nf.reset()
        if tracking:
            self.track_changes()


# Imported last: fastpath needs ProcessReport/PathTaken from this module,
# and this module only touches fastpath at runtime (``_run_fast``,
# ``_maybe_compile``), so the cycle resolves through the module object.
from repro.core import fastpath as _fastpath  # noqa: E402
