"""Compiled flow closures: the steady-state fast lane (perf engine, part 1).

Once a flow is established on the Global MAT fast path, every subsequent
packet repeats exactly the same work: classify to the same FID, look up
the same rule, apply the same consolidated action, run the same
state-function schedule, charge the same fixed cycle counts.  The
interpreted path (:meth:`SpeedyBox.process` → ``_run_fast``) re-derives
all of that per packet through framework dispatch.

:func:`compile_flow` folds the per-flow constants into a
:class:`CompiledFlow`: pre-bound header-action steps
(:meth:`ConsolidatedAction.compiled`), a pre-charged fixed
:class:`CycleMeter` template shared by every packet of the flow, the
flow's interned key and FID, and direct references to the counters and
tables the interpreted path would re-look-up.  ``SpeedyBox.process``
consults its ``_compiled`` cache first; a hit runs :meth:`CompiledFlow.run`
and skips classification, MAT lookup and consolidation machinery
entirely.

Correctness contract: a compiled run is *observably identical* to the
interpreted fast path — same packet mutations, same report fields, same
meter charges in the same order (the cycle total of a meter is a float
sum in ``counts`` insertion order, so even the charge *order* matters for
exact equality), same counter/LRU side effects.  :meth:`CompiledFlow.run`
re-validates per packet and returns ``None`` (fall back to the
interpreted path) whenever the closure's assumptions no longer hold:

- the packet carries TCP FIN/RST (teardown runs interpreted);
- the Global MAT no longer maps the FID to the compiled rule (deleted,
  evicted, rebuilt by an event, replaced by migration, or restored from
  a fault-tolerance checkpoint — ``repro.ft`` goes through the same
  export/import hooks, so a restore invalidates and the lane recompiles
  against the restored rule);
- the classifier no longer tracks the compiled entry;
- the descriptor arrives already dropped;
- the event *pre-check* finds a true condition (the interpreted path
  evaluates it again and fires it).

An *active* event is not on that list.  The lane makes the Event
Table's two per-packet checks itself: the pre-check is the gate's last
test (all conditions false: serve, and book the evaluations as
``check_fid`` would), and the post-update check after the SF waves
either finds the same quiet count again — counts only — or hands a
per-packet meter, charged in interpreted order, to
``SpeedyBox._check_events``: the one implementation of firing, Local MAT
replacement and re-consolidation.  Both rest on condition handlers
being pure predicates (:class:`~repro.core.event_table.Event`).

The shared fixed meter is immutable by convention — consumers read it
(``cycles`` is memoized per cost model); nothing on the fast lane writes
to it.  It charges ``EVENT_CHECK`` for the flow's active events at both
interpreted positions; when the gate counts a different number than it
was built for (an event registered on a compiled flow, a one-shot
spent) the lane derives a *new* template and keeps the flow.  The
steady singleton report exists only while there is neither an SF
schedule nor an active event.

Metric-parity contract: when a registry is attached, a compiled run
increments *exactly* the counters the interpreted fast path would —
classifier classifications, Global MAT hits, event checks and firings,
fast/path/drop counters — so ``registry.snapshot()`` is identical
whichever lane served the run (pinned by
``tests/unit/test_fastpath_metric_parity.py``).  The closure binds the real bound-``inc`` methods at compile time when metrics are
on and ``None`` when they are off (``SpeedyBox`` hands one registry to
every component, so the group guard on ``speedybox._m_fast`` covers
them all).  Corollary for new instrumentation: per-lane signals that
only one lane could emit (compile/invalidate bookkeeping, lane-hit
tallies) must go to the :class:`~repro.obs.audit.AuditLog`, never to
registry counters, or parity breaks.
"""

from __future__ import annotations

from typing import Optional

from repro.core.classifier import FlowEntry
from repro.core.framework import PathTaken, ProcessReport
from repro.core.global_mat import GlobalRule
from repro.net.flow import PROTO_TCP
from repro.net.headers import TCP_FIN, TCP_RST
from repro.obs.registry import NULL_INSTRUMENT
from repro.platform.costs import CycleMeter, NULL_METER, Operation

_FIN_RST = TCP_FIN | TCP_RST
_FAST = PathTaken.FAST
_SF_INVOKE = Operation.SF_INVOKE

#: Sentinel for a labelled drop counter not bound yet (binding a child
#: eagerly would materialise a zero-count series in metrics exports).
_PENDING = object()


def _inc_of(counter):
    """``counter.inc`` bound once, or ``None`` for the no-op instrument.

    The interpreted path pays one empty method call per disabled
    instrument per packet; the compiled lane replaces each with a single
    ``is not None`` test.
    """
    return None if counter is NULL_INSTRUMENT else counter.inc


def _charge_nondrop(meter: CycleMeter, action) -> None:
    """Replicate ``SpeedyBox._apply_nondrop``'s charges, in its order."""
    meter.charge(Operation.DECAP_OP, len(action.leading_decaps))
    field_count = len(action.field_ops)
    if field_count:
        meter.charge(Operation.FIELD_WRITE)
        meter.charge(Operation.MERGED_FIELD_WRITE, field_count - 1)
        meter.charge(Operation.CHECKSUM_UPDATE)
    meter.charge(Operation.ENCAP_OP, len(action.net_encaps))


def _charge_through_action(
    meter: CycleMeter, rule: GlobalRule, active: int, probes: int
) -> None:
    """A fast-path packet's fixed charges up to the post-update event check.

    Charge order mirrors the interpreted path exactly — classify
    (PARSE, FID_HASH once per probed FID, METADATA_ATTACH), Global MAT
    lookup, fast-path dispatch, the event pre-check over ``active``
    events, the consolidated action's charges — so the float summation
    order inside ``cycles()`` is identical too.
    """
    meter.charge(Operation.PARSE)
    meter.charge(Operation.FID_HASH, 1 + probes)
    meter.charge(Operation.METADATA_ATTACH)
    meter.charge(Operation.GLOBAL_MAT_LOOKUP)
    meter.charge(Operation.FAST_PATH_DISPATCH)
    meter.charge(Operation.EVENT_CHECK, active)
    if rule.consolidated.drop:
        meter.charge(Operation.DROP_FREE)
        if rule.schedule.batch_count and rule.pre_drop is not None:
            _charge_nondrop(meter, rule.pre_drop)
    else:
        _charge_nondrop(meter, rule.consolidated)


def _build_fixed_meter(rule: GlobalRule, active: int, probes: int) -> CycleMeter:
    """The shared fixed meter of a packet on which no event fires: both
    event checks find ``active`` quiet events, then metadata detach."""
    meter = CycleMeter()
    _charge_through_action(meter, rule, active, probes)
    meter.charge(Operation.EVENT_CHECK, active)
    meter.charge(Operation.METADATA_DETACH)
    return meter


class CompiledFlow:
    """One flow's fast path, pre-bound into a single cached callable."""

    __slots__ = (
        "speedybox",
        "classifier",
        "entry",
        "five_tuple",
        "fid",
        "is_tcp",
        "rule",
        "rules",
        "flows",
        "move_to_end",
        "events_by_fid",
        "event_active",
        "apply_fn",
        "waves",
        "is_drop",
        "drop_cause",
        "fixed_meter",
        "steady_report",
        "_m_classified_inc",
        "_m_hits_inc",
        "_m_fast_inc",
        "_m_path_inc",
        "_drops_inc",
    )

    def __init__(self, speedybox, entry: FlowEntry, rule: GlobalRule):
        self.speedybox = speedybox
        classifier = speedybox.classifier
        self.classifier = classifier
        self.entry = entry
        self.five_tuple = entry.five_tuple
        self.fid = entry.fid
        self.is_tcp = entry.five_tuple.protocol == PROTO_TCP
        self.rule = rule
        global_mat = speedybox.global_mat
        self.rules = global_mat._rules
        self.flows = classifier._flows
        self.move_to_end = global_mat._rules.move_to_end
        self.events_by_fid = speedybox.event_table._by_fid

        self.is_drop = rule.consolidated.drop
        if self.is_drop:
            self.drop_cause = rule.dropper or "consolidated"
            if rule.schedule.batch_count and rule.pre_drop is not None:
                pre_drop = rule.pre_drop
                self.apply_fn = None if pre_drop.is_noop else pre_drop.compiled()
            else:
                self.apply_fn = None
        else:
            # A pure-FORWARD consolidated action compiles to nothing at
            # all: the interpreted path's trailing ``finalize`` only
            # re-derives fields (length/checksum) no one has touched
            # since arrival, so it is a fixpoint on any consistent
            # packet and ``serialize`` re-derives them regardless.
            action = rule.consolidated
            self.drop_cause = "consolidated"
            self.apply_fn = None if action.is_noop else action.compiled()

        nf_by_name = speedybox.nf_by_name
        dropper = rule.dropper
        self.waves = tuple(
            tuple(
                (
                    batch.nf_name,
                    nf_by_name.get(batch.nf_name),
                    batch.execute,
                    len(batch),
                    self.is_drop and batch.nf_name == dropper,
                )
                for batch in wave
            )
            for wave in rule.schedule.waves
        )

        self._derive_template(speedybox.event_table.active_event_count(entry.fid))
        # SpeedyBox hands one registry to every component, so the
        # per-packet counters are all-null or all-real; guard the group
        # on the first binding (run() calls the rest unconditionally).
        if speedybox._m_fast is NULL_INSTRUMENT:
            self._m_classified_inc = None
            self._m_hits_inc = None
            self._m_fast_inc = None
        else:
            self._m_classified_inc = classifier._m_classified.inc
            self._m_hits_inc = global_mat._m_hits.inc
            self._m_fast_inc = speedybox._m_fast.inc
        self._m_path_inc = _inc_of(speedybox._m_path[_FAST])
        #: labelled drop counter: ``None`` when metrics are off, bound
        #: lazily on the first drop otherwise (see ``_PENDING``)
        self._drops_inc = None if speedybox._m_drops is NULL_INSTRUMENT else _PENDING

    def _derive_template(self, active: int) -> None:
        """The shared meter (and report) of packets that find ``active``
        quiet events on the flow.

        Runs at compilation and again whenever the validity gate counts
        a different number of active events — one registered on the
        compiled flow, a one-shot spent — so a change of count moves the
        ``EVENT_CHECK`` charge instead of knocking the flow off the lane.
        """
        self.event_active = active
        self.fixed_meter = _build_fixed_meter(self.rule, active, self.entry.probes)
        if self.waves or active:
            self.steady_report = None
        else:
            # With no SF schedule and no event to check nothing in the
            # report varies per packet (the drop decision is the rule's,
            # the meter is the shared template): one singleton report
            # serves every packet.
            self.steady_report = ProcessReport(
                path=_FAST,
                fid=self.fid,
                dropped=self.is_drop,
                fixed_meter=self.fixed_meter,
                steady=True,
            )

    def clone_for(self, entry: FlowEntry, rule: GlobalRule) -> "CompiledFlow":
        """A compiled lane for another flow sharing this rule's artifacts.

        Only valid for steady templates (no SF wave, no active event)
        whose rule shares this flow's ``consolidated``/``schedule`` *by
        identity* (bulk admission's ``install_prebuilt`` clones) —
        identity is what guarantees the fixed meter, apply closure and
        drop disposition carry over unchanged — and for an ``entry`` with
        this flow's ``probes`` (bulk admission: both sit at home), which
        the fixed meter charges.  Everything per-flow is fresh.
        """
        clone = object.__new__(CompiledFlow)
        clone.speedybox = self.speedybox
        clone.classifier = self.classifier
        clone.entry = entry
        clone.five_tuple = entry.five_tuple
        clone.fid = entry.fid
        clone.is_tcp = entry.five_tuple.protocol == PROTO_TCP
        clone.rule = rule
        clone.rules = self.rules
        clone.flows = self.flows
        clone.move_to_end = self.move_to_end
        clone.events_by_fid = self.events_by_fid
        clone.event_active = 0  # steady: no event to check, here or there
        clone.is_drop = self.is_drop
        clone.drop_cause = self.drop_cause
        clone.apply_fn = self.apply_fn
        clone.waves = self.waves  # () — clones exist only for steady rules
        clone.fixed_meter = self.fixed_meter
        # Direct construction: clone_for sits on the bulk-admission hot
        # path, and the generated dataclass __init__ spends more time
        # binding arguments than storing them.
        report = ProcessReport.__new__(ProcessReport)
        report.path = _FAST
        report.fid = entry.fid
        report.dropped = self.is_drop
        report.closing = False
        report.events_fired = 0
        report.fixed_meter = self.fixed_meter
        report.nf_meters = []
        report.sf_waves = []
        report.timing_cache = None
        report.steady = True
        report.plan_cache = None
        clone.steady_report = report
        clone._m_classified_inc = self._m_classified_inc
        clone._m_hits_inc = self._m_hits_inc
        clone._m_fast_inc = self._m_fast_inc
        clone._m_path_inc = self._m_path_inc
        clone._drops_inc = self._drops_inc
        return clone

    def run(self, packet) -> Optional[ProcessReport]:
        """One steady-state packet; ``None`` means take the interpreted path.

        The caller dispatched here through a five-tuple-keyed dict probe,
        so the packet is already known to belong to this flow.
        """
        # -- validity gate: no state is touched until every check passes.
        if self.is_tcp:
            try:
                if packet.l4.flags & _FIN_RST:
                    return None  # teardown mutates the tables: interpret it
            except AttributeError:
                return None
        fid = self.fid
        if self.rules.get(fid) is not self.rule:
            return None  # rule deleted / evicted / rebuilt / migrated
        if self.flows.get(fid) is not self.entry:
            return None  # classifier entry replaced under us
        if packet.dropped:
            return None  # pre-dropped descriptor: pathological, interpret it
        # -- event pre-check, last in the gate: a true condition hands the
        # packet, untouched, to the interpreted path, which fires it.
        speedybox = self.speedybox
        active = 0
        if fid in self.events_by_fid:
            event_table = speedybox.event_table
            active = event_table.quiet_active_count(fid)
            if active < 0:
                return None
            if active:
                event_table.count_checks(active)
        if active != self.event_active:
            self._derive_template(active)

        # -- classify + Global MAT hit (established: pure bookkeeping).
        self.classifier.packets_classified += 1
        self.entry.packets += 1
        self.rule.hits += 1
        self.move_to_end(fid)
        speedybox.fast_packets += 1
        inc = self._m_classified_inc
        if inc is not None:
            inc()
            self._m_hits_inc()
            self._m_fast_inc()

        apply_fn = self.apply_fn
        steady = self.steady_report
        if steady is not None:
            # -- no SF schedule: nothing observes the packet between here
            # and the return, so the fid metadata attach/detach pair (a
            # net no-op) is skipped and the singleton report says it all.
            if apply_fn is not None:
                apply_fn(packet)
            if self.is_drop:
                packet.dropped = True
                drops_inc = self._drops_inc
                if drops_inc is not None:
                    if drops_inc is _PENDING:
                        drops_inc = speedybox._m_drops.labels(cause=self.drop_cause).inc
                        self._drops_inc = drops_inc
                    drops_inc()
            inc = self._m_path_inc
            if inc is not None:
                inc()
            return steady

        # -- SF batches may read the flow metadata the classifier attaches.
        metadata = packet.metadata
        metadata["fid"] = fid

        # -- consolidated header action (pre-bound steps).
        if apply_fn is not None:
            apply_fn(packet)

        # -- state-function schedule.
        sf_waves = []
        for wave in self.waves:
            wave_meters = []
            for nf_name, owner, execute, sf_count, drop_first in wave:
                if drop_first and not packet.dropped:
                    packet.dropped = True
                batch_meter = CycleMeter()
                if owner is not None:
                    owner.meter = batch_meter
                batch_meter.charge(_SF_INVOKE, sf_count)
                try:
                    execute(packet)
                finally:
                    if owner is not None:
                        owner.meter = NULL_METER
                wave_meters.append((nf_name, batch_meter))
            sf_waves.append(wave_meters)
        if self.is_drop and not packet.dropped:
            packet.dropped = True

        # -- post-update event check.  The same quiet count again is the
        # shared template's second EVENT_CHECK charge plus the
        # bookkeeping; for anything else the packet gets its own meter,
        # charged in interpreted order, and ``_check_events`` — the one
        # place events fire and rules re-consolidate — takes it from there.
        fixed_meter = self.fixed_meter
        fired = 0
        if active:
            if event_table.quiet_active_count(fid) == active:
                event_table.count_checks(active)
            else:
                fixed_meter = CycleMeter()
                _charge_through_action(fixed_meter, self.rule, active, self.entry.probes)
                fired = speedybox._check_events(fid, fixed_meter)
                fixed_meter.charge(Operation.METADATA_DETACH)
                if fired:
                    speedybox._m_events_fired.inc(fired)

        dropped = packet.dropped
        if dropped:
            drops_inc = self._drops_inc
            if drops_inc is not None:
                if drops_inc is _PENDING:
                    drops_inc = speedybox._m_drops.labels(cause=self.drop_cause).inc
                    self._drops_inc = drops_inc
                drops_inc()

        # -- detach + path accounting.
        metadata.pop("fid", None)
        inc = self._m_path_inc
        if inc is not None:
            inc()
        return ProcessReport(
            path=_FAST,
            fid=fid,
            dropped=dropped,
            events_fired=fired,
            fixed_meter=fixed_meter,
            sf_waves=sf_waves,
        )


def compile_flow(speedybox, entry: Optional[FlowEntry], rule: GlobalRule):
    """Compile a flow's fast path, or ``None`` when it cannot be cached.

    Compilation requires the consolidated form (the raw-action ablation
    keeps the interpreted path) and an established, open classifier
    entry whose FID owns the rule.
    """
    if not speedybox.enable_consolidation:
        return None
    if entry is None or entry.closed or not entry.established:
        return None
    if entry.fid != rule.fid:
        return None
    return CompiledFlow(speedybox, entry, rule)
