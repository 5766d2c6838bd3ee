"""The whole-batch fast-path lane (batch engine, part 2).

The per-packet engine — even with compiled flow closures — pays Python
dispatch per packet: materialize a :class:`~repro.net.packet.Packet`,
probe the compiled table, run the closure.  At 10M packets that is tens
of seconds of interpreter overhead for work whose *outcome* is already
known per flow.  The batch lane removes the per-packet layer entirely
for the steady-state majority of a :class:`~repro.traffic.columnar.PacketBatch`:

- a chunked walk over the ``kind``/``flow_index`` columns splits the
  batch into *steady runs* (runs of data packets whose flows are
  believed compiled) and scalar packets (everything else);
- each steady run is validated when it is *appended*: every distinct
  flow's compiled closure is checked once and cached for the rest of
  the batch (``_vmask``/``_vclone``), so a warm run costs one vectorized
  mask gather.  Validated runs accumulate in a **deferred region** —
  no per-flow bookkeeping yet, just the ``(lo, hi)`` slice;
- the region is **flushed** — per-flow packet counts, rule hits, drop
  totals and Global-MAT LRU touches in last-occurrence order, from one
  sort-free counting pass over the slices and a scan back from the
  region's end that stops once every packet's flow is found — only
  when a scalar packet is about to run, and once at the end of the
  batch;
- scalar packets — first packets, handshake and FIN/RST, fast-path
  misses, invalidated closures — come in *stretches* of consecutive
  positions, and each stretch is one admission loop
  (``_scalar_run``): it flushes once, before its first packet, and
  hands every packet it cannot admit, in place, to
  ``SpeedyBox.process``, the unmodified oracle, materialized;
- first packets of *flow-setup-oblivious* chains skip even that: after
  one scalar first packet establishes a template, subsequent new flows
  are **bulk admitted** — classifier entry, Local MAT records, Global
  MAT rule (:meth:`~repro.core.global_mat.GlobalMAT.install_prebuilt`)
  and the compiled closure (cloned straight from the template's) are
  installed directly, operation-for-operation what
  ``SpeedyBox.process`` does, without materializing a packet or
  running an NF.  The loop looks every table up once a stretch, makes
  no audit call while the log is off, and files the stretch's plan ids
  with one scatter; an admitted flow's Local MAT records share their
  MAT's one empty state-function batch and the run's one action list,
  and its clone the runtime's bindings and the template's empty meter
  lists: eight objects (a three-NF chain).  A new flow whose home FID
  is taken is placed as the classifier places it and cloned from the
  template's variant for its probe count (:meth:`BatchLane._variant`).  The
  mixed-run replay (a steady run some of whose flows fail validation,
  which is where every stale hint of a table smaller than its block
  lands) serves its uncached stretches with the same loop.

Correctness contract: a batch-lane run leaves the runtime in the same
state — tables, counters, audit stream, LRU order — and produces the
same :class:`~repro.platform.base.LoadResult` (exact float equality on
every latency) as feeding ``batch.packet_view()`` through the legacy
per-packet path.  Three rules keep that true:

- validation happens at append time and every operation that could
  invalidate a closure flushes the region first, so nothing in a
  deferred region can go stale before its flush: the runtime feeds
  every compiled-lane mutation's FID through ``_lane_invalidations``
  (drained before each append), and the one mutation that feed cannot
  see — an NF activating an event on a cached FID mid-traversal — is
  caught by an event-table probe after every scalar packet;
- deferred serving performs exactly the per-flow effects the per-packet
  sequence would have had: counters are commutative sums, no audit is
  emitted on the fast lane, and one LRU touch per flow in
  last-occurrence order equals the final recency order of the
  per-packet touches;
- bulk admission mirrors the recorded slow path exactly (same inserts,
  same eviction check, same audit events in the same order) and is
  gated on every NF declaring ``setup_flow_oblivious`` — the contract
  that first-packet behaviour is a pure function of packet shape.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional, Tuple

from repro.core.classifier import FlowEntry, fid_column
from repro.core.framework import PathTaken, ProcessReport
from repro.core.global_mat import GlobalRule
from repro.core.local_mat import LocalRule, SharedActions
from repro.net.flow import FiveTuple, PROTO_UDP
from repro.obs.registry import NULL_INSTRUMENT
from repro.platform.base import PlanTable
from repro.platform.costs import CycleMeter, Operation
from repro.traffic.columnar import KIND_DATA, PacketBatch
from repro.vector import np

#: packets per chunk of the steady-mask walk and of a flush's tail scan
_CHUNK = 32768
#: flows per slice of the flow table that bulk admission reads as lists
_ROWS = 4096
_FID_HASH = Operation.FID_HASH
_new_tuple = tuple.__new__  # FiveTuple without its generated __new__'s frame


class BulkTemplate:
    """Everything needed to admit a new flow without running the chain."""

    __slots__ = (
        "rule", "compiled", "ran", "mat_plumbing", "first_report", "original_pid",
        "plan_cache", "waves", "drop_action",
    )

    def __init__(self, rule, compiled, ran, mat_plumbing, first_report, original_pid,
                 plan_cache, waves, drop_action):
        #: the template GlobalRule whose artifacts install_prebuilt shares
        self.rule = rule
        #: the template flow's compiled closure; admitted flows clone it
        #: (``clone_for``): observably what ``compile_flow`` would build
        #: for them, minus the construction
        self.compiled = compiled
        #: how many NFs ran before the chain ended (drop templates stop early)
        self.ran = ran
        #: per-NF ``(local_mat, its rules dict, its shared empty batch,
        #: the recorded action list)`` — the record every admitted flow
        #: receives (no actions for NFs after a dropper), prebound so the
        #: admission loop is free of name lookups.  Admitted records share
        #: the one list, a ``SharedActions``: ``LocalMAT.add_header_action``
        #: copies it before an append, and an event assigns a new list.
        self.mat_plumbing = mat_plumbing
        #: the template flow's own first-packet report (its meters)
        self.first_report = first_report
        #: plan-table id of the first-packet stage plan
        self.original_pid = original_pid
        #: the steady plan's ``(platform, plan, plan id, table)``, one
        #: immutable tuple every admitted clone's steady report shares
        #: (identical timing by meter identity)
        self.plan_cache = plan_cache
        #: audit payload constants (template-invariant by construction)
        self.waves = waves
        self.drop_action = drop_action


class BatchLane:
    """One batch run's lane state; construct per ``run_load`` call."""

    def __init__(self, platform, batch: PacketBatch):
        self.platform = platform
        self.batch = batch
        self.runtime = platform.runtime
        #: packets whose plan drops, read off the plan table after the run
        self.dropped = 0
        #: packets served by whole-run array ops (lane introspection)
        self.span_packets = 0
        #: flows installed by bulk admission (lane introspection)
        self.admitted = 0
        #: the run's plan table; ``plan_ids[i]`` indexes into it.  Plans
        #: are deduplicated by value, so the table stays tiny no matter
        #: how many flows the batch holds.  A listening forensics engine
        #: labels every plan with the report that minted it, which is
        #: per flow, so it turns bulk admission (no report per flow) off.
        self.table = PlanTable(labelled=platform.forensics is not None)
        flow_count = batch.flow_count
        n = len(batch)
        #: per-flow hint: 1 = last seen compiled-steady.  A stale hint
        #: is always safe — 0 routes to the scalar oracle, 1 is
        #: re-validated against the live compiled table at append.
        #: Bytearray-backed with a zero-copy numpy view: scalar stores
        #: (one per admission) hit the bytearray, vector gathers (one
        #: per chunk) go through the view over the same memory.
        self.fstat = bytearray(flow_count)
        #: 1 = ``_vclone[flow]`` holds a closure validated this run
        #: and not invalidated since (the invalidation feed clears it)
        self._vmask = bytearray(flow_count)
        self._fstat_np = np.frombuffer(self.fstat, dtype=np.uint8)
        self._vmask_np = np.frombuffer(self._vmask, dtype=np.uint8)
        #: per-flow steady plan id, set when the flow's clone is cached
        self.fplan = np.zeros(flow_count, dtype=np.int32)
        #: flush scratch: each flow's last batch position in a deferred
        #: region, and its packet count there (zero between flushes)
        self._last = np.full(flow_count, -1, dtype=np.int64)
        self._counts = np.zeros(flow_count, dtype=np.int64)
        self.plan_ids = np.zeros(n, dtype=np.int32)
        self.kind_arr = np.ascontiguousarray(batch.kind)
        self.flow_arr = np.ascontiguousarray(batch.flow_index)
        self._vclone: List[object] = [None] * flow_count
        #: validated-FID index: the flow slot to drop when the runtime
        #: reports the FID's compiled lane mutated.  One slot: live flows
        #: own distinct FIDs, and a second slot carrying the *same*
        #: five-tuple is never validated (``_append_run``).
        self._flows_of_fid: Dict[int, int] = {}
        #: validated steady runs awaiting their per-flow flush
        self._deferred: List[Tuple[int, int]] = []
        #: the runtime's invalidation feed while this run is active
        self._inval: Optional[list] = None
        #: bulk admission's view of the flow table: the home-FID column
        #: (built on first use), and one slice of it and of the
        #: five-tuple columns as lists, for flows from ``_rows_lo`` on
        #: (:meth:`_load_rows`)
        self._fids = None
        self._rows_lo = 0
        self._rows: tuple = ((),)
        #: the one bulk template per run; built from the first qualifying
        #: scalar first packet, then reused for every admitted flow
        self.template: Optional[BulkTemplate] = None
        #: probe count -> (compiled flow to clone, original pid, plan
        #: cache): the template's variants for displaced flows (:meth:`_variant`)
        self._variants: Dict[int, tuple] = {}
        runtime = self.runtime
        self._clear_nf_flow = runtime.event_table.clear_nf_flow
        self._events_by_fid = runtime.event_table._by_fid
        self._local_rule_dicts = [mat._rules for mat in runtime.local_mats.values()]
        #: the classifier's eviction callback is this runtime's own
        #: teardown (no external wrapper), so bulk
        #: admission may inline it — five dict pops instead of five
        #: method frames per eviction
        self._plain_evict = runtime.classifier.on_evict == runtime._on_classifier_evicted
        #: the lane only engages on uninstrumented runs, so the metric
        #: instruments are usually the shared no-op — admission skips the
        #: no-op calls outright (behavior-identical: a null set/inc does
        #: nothing by definition)
        self._null_metrics = runtime.classifier._m_flows is NULL_INSTRUMENT
        #: sampled flow-span recorder, when the platform carries one.
        #: Sampled flows are kept off the array path (``fstat`` stays 0)
        #: so every one of their packets reaches the scalar oracle and
        #: records real per-stage spans; unsampled (or span-capped)
        #: flows keep full lane speed.  No audit events, no result
        #: change — the lane stays equivalent to the per-packet path
        #: with the same recorder attached.
        self.spans = platform.spans
        #: batch index -> sampled root span, for the run's tail to stamp
        self.roots: Dict[int, dict] = {}
        #: deferred-region flush count (lane introspection + metrics)
        self.flushes = 0
        self.bulk_ok = (
            self.table.labels is None
            and batch._payloads is None
            and all(nf.setup_flow_oblivious for nf in runtime.nfs)
        )

    # -- driving the batch ---------------------------------------------------

    def run(self) -> Tuple[PlanTable, object]:
        """Process the whole batch; returns (plan table, plan ids)."""
        runtime = self.runtime
        previous_feed = runtime._lane_invalidations
        runtime._lane_invalidations = self._inval = []
        # Defer cyclic GC for the duration of the run: a million
        # admissions allocate tens of millions of long-lived objects
        # (entries, rules, clones), and every full collection walks
        # the entire heap — ~30% of a 10M-packet run.  The lane
        # allocates no reference cycles of its own; whatever cyclic
        # garbage the run produces is collected at the caller's next
        # collection once the prior GC state is restored.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            n = len(self.batch)
            kind_arr = self.kind_arr
            flow_arr = self.flow_arr
            fstat = self.fstat
            fstat_np = self._fstat_np
            i = 0
            while i < n:
                j = min(i + _CHUNK, n)
                pos = i
                while pos < j:
                    flows_seg = flow_arr[pos:j]
                    kind_seg = kind_arr[pos:j]
                    steady = (kind_seg == KIND_DATA) & (fstat_np[flows_seg] == 1)
                    # The mask is a snapshot: scalar packets below may flip
                    # fstat mid-segment.  Torn-down flows (1 -> 0) only hand
                    # a run a flow that fails append validation and replays
                    # scalar — correct either way.  Freshly admitted flows
                    # (0 -> 1) would mis-route the rest of the segment to
                    # the per-packet oracle, so on the first such stale
                    # position the mask is recomputed for the remainder
                    # (each recompute follows at least one served packet,
                    # so the walk always advances).
                    scalar_at = np.flatnonzero(~steady)
                    positions = scalar_at.tolist()
                    flows_sc = flows_seg[scalar_at].tolist()
                    kinds_sc = kind_seg[scalar_at].tolist()
                    # maximal stretches of consecutive scalar positions
                    # (``positions[a:b]``), each served by one ``_scalar_run``
                    cuts = (np.flatnonzero(np.diff(scalar_at) != 1) + 1).tolist()
                    stretches = zip([0, *cuts], [*cuts, len(positions)]) if positions else ()
                    previous = 0
                    stale_at = -1
                    for a, b in stretches:
                        start = positions[a]
                        if start > previous:
                            self._append_run(pos + previous, pos + start)
                        served = self._scalar_run(
                            pos + start, flows_sc[a:b], kinds_sc[a:b], 0, fstat
                        )
                        if served < b - a:
                            stale_at = pos + start + served
                            break
                        previous = start + b - a
                    if stale_at >= 0:
                        pos = stale_at
                        continue
                    if previous < j - pos:
                        self._append_run(pos + previous, j)
                    pos = j
                i = j
            self._flush()
        finally:
            runtime._lane_invalidations = previous_feed
            if gc_was_enabled:
                gc.enable()
        template = self.template
        if template is not None and self.admitted:
            for nf in runtime.nfs[: template.ran]:
                nf.admit_flows(self.admitted)
        drops = self.table.drops(self.plan_ids)
        self.dropped = 0 if drops is None else int(np.count_nonzero(drops))
        self._publish_lane_metrics()
        return self.table, self.plan_ids

    def _publish_lane_metrics(self) -> None:
        """One registry update per batch (never per packet).

        Published into the *runtime's* registry — the platform registry
        must be off for the lane to engage at all, but a SpeedyBox may
        carry its own.  These are lane-only introspection series
        (``lane_*``), and they are all the lane adds: admission and the
        span flush do not count what they serve into the runtime's
        per-packet and table series (``classifier_packets_total``,
        ``fast_path_packets_total``, ``global_mat_lookups_total``, ...),
        so those read lower than the per-packet oracle's.  ROADMAP item
        23 makes the counters a post-run reduction, which closes the gap.
        """
        metrics = getattr(self.runtime, "metrics", None)
        if metrics is None or not metrics.enabled:
            return
        metrics.counter(
            "lane_batches_total", "whole-batch lane runs"
        ).inc()
        metrics.counter(
            "lane_fast_packets_total", "packets served by whole-run array ops"
        ).inc(self.span_packets)
        metrics.counter(
            "lane_admitted_flows_total", "flows installed by bulk admission"
        ).inc(self.admitted)
        metrics.counter(
            "lane_flushes_total", "deferred-region flushes"
        ).inc(self.flushes)
        metrics.counter(
            "lane_dropped_total", "packets dropped on the lane"
        ).inc(self.dropped)
        metrics.gauge(
            "lane_plan_table_size", "deduplicated stage plans after the last batch"
        ).set(len(self.table))

    # -- steady runs: append-time validation, deferred flush -----------------

    def _clone_valid(self, clone) -> bool:
        """The per-packet validity gate of ``CompiledFlow.run``, hoisted.

        The FIN/RST and pre-dropped-descriptor checks are unnecessary
        here: run membership already guarantees ``kind == KIND_DATA``
        (materialized with plain ACK flags) on a fresh descriptor.
        """
        if clone.steady_report is None:
            return False
        fid = clone.fid
        bindings = clone.bindings
        if bindings.rules.get(fid) is not clone.rule:
            return False
        if bindings.flows.get(fid) is not clone.entry:
            return False
        events = bindings.events_by_fid.get(fid)
        if events is not None:
            for event in events:
                if event.active:
                    return False
        return True

    def _drain(self, inval: list) -> None:
        """Evict cached closures for every FID the runtime invalidated."""
        for fid in inval:
            self._drain_fid(fid)
        inval.clear()

    def _drain_fid(self, fid: int) -> None:
        flow = self._flows_of_fid.pop(fid, None)
        if flow is not None:
            self._vclone[flow] = None
            self._vmask[flow] = 0

    def _cache_clone(self, flow: int, clone) -> None:
        self._vclone[flow] = clone
        self._vmask[flow] = 1
        self._flows_of_fid[clone.fid] = flow
        self.fplan[flow] = self._steady_pid(clone.steady_report)

    def _append_run(self, lo: int, hi: int) -> None:
        """Validate packets [lo, hi) — all steady-hinted data — and defer.

        Because every state-mutating scalar packet flushes before it
        runs, a run validated here cannot go stale before its flush: the
        flush applies per-flow effects to exactly the closures that were
        live when the packets logically executed.
        """
        inval = self._inval
        if inval:
            self._drain(inval)
        flows_run = self.flow_arr[lo:hi]
        vmask = self._vmask
        if self._vmask_np[flows_run].all():
            self._accept_run(lo, hi, flows_run)
            return
        compiled = self.runtime._compiled
        five_tuple_of = self.batch.five_tuple_of
        slot_of_fid = self._flows_of_fid.get
        bad = False
        for flow in np.unique(flows_run).tolist():
            if vmask[flow]:
                continue
            clone = compiled.get(five_tuple_of(flow))
            if (
                clone is None
                or not self._clone_valid(clone)
                # two slots of one five-tuple: the index holds one, the
                # other stays scalar
                or slot_of_fid(clone.fid, flow) != flow
            ):
                bad = True
                self.fstat[flow] = 0
                continue
            self._cache_clone(flow, clone)
        if not bad:
            self._accept_run(lo, hi, flows_run)
            return
        # Mixed run: some flows validate, some do not.  Flush what
        # precedes it, then replay the run in order: cached flows stay on
        # the closure bookkeeping, and each stretch of the rest (a table
        # smaller than its block sends every stale hint here) is one
        # ``_scalar_run``, which stops at the next cached flow.
        self._flush()
        flows = flows_run.tolist()
        count = len(flows)
        k = 0
        while k < count:
            k = self._scalar_run(lo, flows, None, k, vmask)
            while k < count and vmask[flows[k]]:
                self._serve_cached(lo + k, flows[k])
                k += 1

    def _accept_run(self, lo: int, hi: int, flows_run) -> None:
        count = hi - lo
        runtime = self.runtime
        runtime.classifier.packets_classified += count
        runtime.fast_packets += count
        self.span_packets += count
        self.plan_ids[lo:hi] = self.fplan[flows_run]
        self._deferred.append((lo, hi))

    def _serve_cached(self, index: int, flow: int) -> None:
        """One packet via its already-validated cached closure."""
        clone = self._vclone[flow]
        runtime = self.runtime
        runtime.classifier.packets_classified += 1
        runtime.fast_packets += 1
        clone.entry.packets += 1
        clone.rule.hits += 1
        clone.bindings.move_to_end(clone.fid)
        self.plan_ids[index] = self.fplan[flow]
        self.span_packets += 1

    def _flush(self) -> None:
        """Apply the deferred region's per-flow effects.

        Counts and rule hits are commutative; the LRU
        touches — one ``move_to_end`` per flow in last-occurrence order
        over the *whole region* — leave exactly the recency order the
        per-packet sequence would have.  The counts take one pass over
        the region into a flow-indexed scratch column.  Last occurrences
        are read from the region's end, a chunk at a time, into a
        second one, until the flows found account for every packet of
        the region (the sum of their counts) — on a region of long
        flows, one chunk.  No sort, and only the slots the region
        touched are reset, so a flush never costs O(flows).
        """
        deferred = self._deferred
        if not deferred:
            return
        self.flushes += 1
        flow_arr = self.flow_arr
        last = self._last
        counts = self._counts
        region = 0
        for lo, hi in deferred:
            np.add.at(counts, flow_arr[lo:hi], 1)
            region += hi - lo
        # Scanning back, a chunk's ``maximum.at`` raises ``last`` only for
        # flows no later chunk holds (positions only grow over a run, so
        # ``last`` never needs a reset), and a flow's last occurrence is
        # the one position where ``last[flow] == position``: the flows
        # picked out per chunk are new, in ascending last-occurrence order.
        found = []
        covered = 0
        for lo, hi in reversed(deferred):
            while hi > lo and covered < region:
                start = max(lo, hi - _CHUNK)
                flows = flow_arr[start:hi]
                positions = np.arange(start, hi)
                np.maximum.at(last, flows, positions)
                newly = flows[last[flows] == positions]
                found.append(newly)
                covered += int(counts[newly].sum())
                hi = start
        deferred.clear()
        order = np.concatenate(found[::-1])
        order_counts = counts[order].tolist()
        counts[order] = 0
        vclone = self._vclone
        order = order.tolist()
        for flow, count in zip(order, order_counts):
            clone = vclone[flow]
            clone.entry.packets += count
            clone.rule.hits += count
        move = vclone[order[0]].bindings.move_to_end
        for flow in order:
            move(vclone[flow].fid)

    # -- scalar packets: the admission loop and the oracle route -------------

    def _scalar_run(self, first: int, flows: list, kinds: Optional[list], at: int, hint) -> int:
        """Serve a stretch of consecutive scalar packets, admitting the
        new flows it can and handing every other packet to the oracle.

        ``flows[k]`` (of kind ``kinds[k]``, data when ``kinds`` is None)
        is batch position ``first + k``; the stretch starts at ``at``.
        It stops before the first data packet whose flow ``hint`` marks —
        ``fstat`` from :meth:`run` (the flow turned steady since the mask
        was taken), ``_vmask`` from the mixed-run replay (a cached flow)
        — and returns where it stopped (``len(flows)`` when it served
        them all).

        A packet is bulk admitted when a template exists and it is a UDP
        data packet of a new flow (a five-tuple displaced or at its home
        is tracked: the oracle's) that is not sampled (decided in
        first-packet order, as the per-packet path does; a displaced
        flow is decided once placed, so a sampled run leaves it to the
        oracle).  Admission installs, operation for operation, what
        ``SpeedyBox.process`` would: the same capacity eviction
        (``_evict_oldest`` + the runtime's teardown, inlined when the
        teardown is the runtime's own), the classifier entry (``_place``
        places a displaced one), each NF's Local MAT record (the run's
        action list, the MAT's empty batch), the Global MAT rule
        (``install_prebuilt``, inlined on a fresh insert), a clone of the
        template's compiled closure (of its :meth:`_variant` when
        displaced), and the same audit events in the same order —
        emitted only while the log is enabled.  Meter charges are
        value-typical by the oblivious contract and live in the
        template's reports, which feed the stage plans.
        Tables, dicts and bound methods are looked up once per stretch,
        counters are added once, and ``fplan``/``plan_ids`` take one
        scatter each.
        """
        runtime = self.runtime
        classifier = runtime.classifier
        tracked = classifier._flows
        displaced = classifier._displaced
        capacity = classifier.capacity
        gm = runtime.global_mat
        gm_rules = gm._rules
        compiled = runtime._compiled
        compiled_fids = runtime._compiled_fids
        emit = runtime.audit.emit if runtime.audit.enabled else None
        null_metrics = self._null_metrics
        plain_evict = self._plain_evict
        local_rule_dicts = self._local_rule_dicts
        events_by_fid = self._events_by_fid
        inval = self._inval
        deferred = self._deferred
        fstat = self.fstat
        vmask = self._vmask
        vclone = self._vclone
        flows_of_fid = self._flows_of_fid
        spans = self.spans
        bulk_ok = self.bulk_ok
        held, held_lo = self._rows, self._rows_lo
        template = self.template
        variants = self._variants
        admitted_flows: List[int] = []
        admitted_at: List[int] = []
        new_entry = FlowEntry.__new__
        new_local = LocalRule.__new__
        new_rule = GlobalRule.__new__
        evicted = inserted = displaced_admitted = 0
        stop = len(flows)
        try:
            for k in range(at, stop):
                flow = flows[k]
                kind = KIND_DATA if kinds is None else kinds[k]
                if inval:
                    self._drain(inval)
                if kind == KIND_DATA and hint[flow]:
                    stop = k
                    break
                if deferred:
                    self._flush()
                bulk_shape = False
                if bulk_ok and kind == KIND_DATA:
                    rows, row = held, flow - held_lo
                    if not 0 <= row < len(rows[0]):
                        rows, row = self._load_rows(flow), 0
                        held, held_lo = self._rows, self._rows_lo
                    bulk_shape = rows[5][row] == PROTO_UDP
                admit = False
                if bulk_shape and template is not None:
                    fid = rows[0][row]
                    five_tuple = _new_tuple(
                        FiveTuple, (rows[1][row], rows[2][row], rows[3][row], rows[4][row], PROTO_UDP)
                    )
                    home = tracked.get(fid)
                    # a new flow whose home is taken is placed after the
                    # eviction, where the oracle samples spans
                    admit = five_tuple not in displaced and (
                        (spans is None or not spans.wants(fid)) if home is None
                        else spans is None and home.five_tuple != five_tuple
                    )
                if not admit:
                    self._scalar_packet(first + k, flow, kind, bulk_shape)
                    template = self.template
                    continue
                if capacity is not None and len(tracked) >= capacity:
                    if plain_evict:
                        vfid, victim = tracked.popitem(last=False)
                        if victim.probes:
                            del displaced[victim.five_tuple]
                        evicted += 1
                        if not null_metrics:
                            classifier._m_flows.set(len(tracked))
                        key = compiled_fids.pop(vfid, None)
                        if key is not None:
                            compiled.pop(key, None)
                            # the invalidation feed's entry, drained at once
                            slot = flows_of_fid.pop(vfid, None)
                            if slot is not None:
                                vclone[slot] = None
                                vmask[slot] = 0
                            if emit is not None:
                                emit("fastpath_invalidate", fid=vfid, reason="classifier_evict")
                        if gm_rules.pop(vfid, None) is not None and not null_metrics:
                            gm._m_occupancy.set(len(gm_rules))
                        for rules in local_rule_dicts:
                            rules.pop(vfid, None)
                        events_by_fid.pop(vfid, None)
                        if emit is not None:
                            emit("classifier_evict", fid=vfid, packets=victim.packets)
                    else:
                        classifier._evict_oldest()
                entry = new_entry(FlowEntry)
                entry.five_tuple = five_tuple
                entry.established = True
                entry.closed = False
                entry.packets = 1
                if home is None:
                    entry.fid = fid
                    entry.probes = 0
                    tracked[fid] = entry
                else:
                    fid = classifier._place(entry)  # the oracle's FID, index and collisions
                # begin_recording + the recorded actions' replay
                if fid in events_by_fid:
                    for local_mat, __, ___, ____ in template.mat_plumbing:
                        self._clear_nf_flow(fid, local_mat.nf_name)
                for __, rules, no_functions, actions in template.mat_plumbing:
                    local_rule = new_local(LocalRule)
                    local_rule.fid = fid
                    local_rule.header_actions = actions
                    local_rule.sf_batch = no_functions
                    local_rule.event_count = 0
                    rules[fid] = local_rule
                t_rule = template.rule
                if fid in gm_rules:
                    # A live rule under this FID (admission implies the
                    # classifier forgot the flow, and that teardown
                    # removed the rule): the full reinstall, with its
                    # version bump and rebuild audit.
                    rule = gm.install_prebuilt(fid, t_rule)
                else:
                    # ``install_prebuilt``'s fresh-insert arm; a fresh
                    # key is already the youngest
                    rule = new_rule(GlobalRule)
                    rule.fid = fid
                    rule.consolidated = t_rule.consolidated
                    rule.schedule = t_rule.schedule
                    rule.nf_names = t_rule.nf_names
                    rule.pre_drop = t_rule.pre_drop
                    rule.dropper = t_rule.dropper
                    rule.version = 1
                    rule.hits = 0
                    rule.program = t_rule.program
                    inserted += 1
                    if emit is not None:
                        emit(
                            "global_mat_insert",
                            fid=fid,
                            version=1,
                            waves=template.waves,
                            drop=template.drop_action,
                        )
                    gm_rules[fid] = rule
                    if gm.capacity is not None and len(gm_rules) > gm.capacity:
                        gm._enforce_capacity(keep_fid=fid)
                    if not null_metrics:
                        gm._m_consolidations.inc()
                        gm._m_occupancy.set(len(gm_rules))
                if entry.probes:
                    variant = variants.get(entry.probes) or self._variant(entry, rule)
                    clone = variant[0].clone_for(entry, rule)
                    clone.steady_report.plan_cache = variant[2]
                    self.fplan[flow] = variant[2][2]
                    self.plan_ids[first + k] = variant[1]
                    displaced_admitted += 1
                else:
                    clone = template.compiled.clone_for(entry, rule)
                    # the template's steady plan, to the bit: the clone's
                    # report shares the template's fixed meter
                    clone.steady_report.plan_cache = template.plan_cache
                    admitted_flows.append(flow)
                    admitted_at.append(first + k)
                compiled[five_tuple] = clone
                compiled_fids[fid] = five_tuple
                if emit is not None:
                    emit(
                        "fastpath_compile",
                        fid=fid,
                        version=rule.version,
                        waves=template.waves,
                        drop=template.drop_action,
                    )
                stale = flows_of_fid.pop(fid, None)
                if stale is not None:
                    # the FID's last owner died and its invalidation
                    # is still in the feed: drop that slot's clone now
                    vclone[stale] = None
                    vmask[stale] = 0
                flows_of_fid[fid] = flow
                vclone[flow] = clone
                vmask[flow] = 1
                fstat[flow] = 1
        finally:
            # one settlement per stretch, even when the oracle raised
            classifier.evictions += evicted
            gm.consolidations += inserted
            runtime._changes += 1  # admissions and evictions: the tables' generation
            if admitted_flows:
                self.fplan[admitted_flows] = template.plan_cache[2]
                self.plan_ids[admitted_at] = template.original_pid
            admitted = len(admitted_flows) + displaced_admitted
            if admitted:
                classifier.packets_classified += admitted
                runtime.slow_packets += admitted
                for local_mat, __, ___, actions in template.mat_plumbing:
                    local_mat.records_ha += admitted * len(actions)
                self.admitted += admitted
        return stop

    def _scalar_packet(self, index: int, flow: int, kind: int, bulk_shape: bool) -> None:
        """One packet through the oracle, ``SpeedyBox.process``.

        ``bulk_shape`` (a UDP data packet) lets a recorded first packet's
        flow become the run's bulk template.
        """
        batch = self.batch
        runtime = self.runtime
        spans = self.spans
        packet = batch.materialize(index)
        report = runtime.process(packet)
        if spans is not None and spans.skip.get(report.fid) is None:
            root = spans.record(report, self.platform.costs)
            if root is not None:
                self.roots[index] = root
        if report.steady:
            pid = self._steady_pid(report)
        else:
            plan = self.platform._stage_plan(report)
            pid = self.platform._plan_id(self.table, plan, report)
        self.plan_ids[index] = pid

        five_tuple = batch.five_tuple_of(flow)
        clone = runtime._compiled.get(five_tuple)
        if (
            clone is not None
            and clone.steady_report is not None
            # A sampled flow stays scalar for life so each packet keeps
            # producing spans; once capped (skip entry present) it earns
            # the fast lane back.
            and (spans is None or spans.skip.get(report.fid) is not None)
        ):
            self.fstat[flow] = 1
        else:
            self.fstat[flow] = 0
        if (
            self.template is None
            and bulk_shape
            and clone is not None
            and report.path is PathTaken.ORIGINAL
            and not report.closing
        ):
            self._try_capture_template(report, clone, pid)
        # The invalidation feed cannot see an NF *activating* an event
        # on a cached FID mid-traversal (registration bypasses the
        # compiled table).  Probe for it: active events on the FID kill
        # its cached closures, after flushing what logically preceded.
        if self._flows_of_fid and (
            report.events_fired
            or runtime.event_table.active_event_count(report.fid)
        ):
            self._flush()
            self._drain_fid(report.fid)

    # -- bulk admission: the flow table and the template ---------------------

    def _load_rows(self, flow: int) -> tuple:
        """Turn the flow table's slice from ``flow`` on into lists: the
        home FIDs, then the five-tuple fields, as plain ints (they flow
        into table keys, audit payloads and ``FlowEntry`` fields that
        must stay numpy-free).  Returns the lists; ``flow`` is row 0.

        The lane keeps no per-flow Python copy of the table.  When
        ``flow`` lies less than ``_ROWS`` past the slice it holds, the
        next ``_ROWS`` flows become the slice it holds: first packets
        come in flow order in a synthesized batch, so each flow is
        turned into Python ints once.  Any other flow is read alone and
        the slice kept, so an arbitrary order costs a one-row read per
        packet, never a large one.
        """
        batch = self.batch
        fids = self._fids
        if fids is None:
            fids = self._fids = fid_column(
                batch.flow_src_ip,
                batch.flow_dst_ip,
                batch.flow_src_port,
                batch.flow_dst_port,
                batch.flow_proto,
            )
        ahead = flow - self._rows_lo - len(self._rows[0])
        forward = 0 <= ahead < _ROWS
        hi = flow + (_ROWS if forward else 1)
        rows = tuple(
            column[flow:hi].tolist()
            for column in (
                fids,
                batch.flow_src_ip,
                batch.flow_dst_ip,
                batch.flow_src_port,
                batch.flow_dst_port,
                batch.flow_proto,
            )
        )
        if forward:
            self._rows_lo, self._rows = flow, rows
        return rows

    def _try_capture_template(self, report, clone, pid) -> None:
        """Capture the one-per-run bulk template from a scalar first packet.

        Every guard re-checks what bulk admission will assume: the flow
        really is brand new (one packet, at its home FID), its rule is the
        live compiled one, the recording was header-actions-only.  The
        template stays valid even after the template flow itself is
        evicted — the GlobalRule object and its shared artifacts are
        immutable once built (``install_prebuilt``'s contract).
        """
        runtime = self.runtime
        if clone.steady_report is None:
            return
        fid = clone.fid
        entry = runtime.classifier._flows.get(fid)
        if entry is not clone.entry or entry.packets != 1 or entry.probes:
            return
        if runtime.global_mat.peek(fid) is not clone.rule:
            return
        if report.events_fired:
            return
        ran = len(report.nf_meters)
        mat_plumbing = []
        for position, nf in enumerate(runtime.nfs):
            local_mat = runtime.local_mats[nf.name]
            actions = SharedActions()
            if position < ran:
                local_rule = local_mat.rule_for(fid)
                if local_rule is None or local_rule.sf_batch or local_rule.event_count:
                    return
                actions = SharedActions(local_rule.header_actions)
            mat_plumbing.append((local_mat, local_mat._rules, local_mat.no_functions, actions))
        self._steady_pid(clone.steady_report)
        self.template = BulkTemplate(
            rule=clone.rule,
            compiled=clone,
            ran=ran,
            mat_plumbing=mat_plumbing,
            first_report=report,
            original_pid=pid,
            plan_cache=clone.steady_report.plan_cache,
            waves=clone.rule.schedule.wave_count,
            drop_action=clone.rule.consolidated.drop,
        )

    def _variant(self, entry, rule) -> tuple:
        """The template for flows ``entry.probes`` past their home, cached
        per run: a compiled flow charging ``FID_HASH`` 1 + probes times, and
        the first-packet plan id and steady plan cache of meters so charged."""
        template = self.template
        probes = entry.probes
        compiled = template.compiled.clone_for(entry, rule)
        compiled._derive_template(0)  # rebuilt for this entry's probes
        first = template.first_report
        meter = CycleMeter()
        for operation, times in first.fixed_meter.counts.items():
            meter.charge(operation, 1 + probes if operation is _FID_HASH else times)
        report = ProcessReport(PathTaken.ORIGINAL, entry.fid, first.dropped,
                               fixed_meter=meter, nf_meters=first.nf_meters)
        platform = self.platform
        original_pid = platform._plan_id(self.table, platform._stage_plan(report), report)
        self._steady_pid(compiled.steady_report)
        variant = self._variants[probes] = (compiled, original_pid, compiled.steady_report.plan_cache)
        return variant

    # -- plan table ----------------------------------------------------------

    def _steady_pid(self, report) -> int:
        """Plan id of a steady (shared) report, memoized on the report.

        The marker slot guards cross-run staleness: a pid minted by an
        earlier run indexes *that* run's table, so only the plan object
        survives and the pid is re-derived for this table.
        """
        platform = self.platform
        table = self.table
        cached = report.plan_cache
        if cached is not None and cached[0] is platform:
            if cached[3] is table:
                return cached[2]
            plan = cached[1]
        else:
            plan = platform._stage_plan(report)
        pid = platform._plan_id(table, plan, report)
        report.plan_cache = (platform, plan, pid, table)
        return pid
