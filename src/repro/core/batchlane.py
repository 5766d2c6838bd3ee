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
  totals and Global-MAT LRU touches in last-occurrence order, all from
  one sort-free pass over the slices into two flow-indexed scratch
  columns — only when a scalar packet is about to run, and once at the
  end of the batch;
- a scalar packet — first packets, handshake and FIN/RST, fast-path
  misses, invalidated closures — flushes, then is materialized and
  handed to ``SpeedyBox.process``, the unmodified oracle;
- first packets of *flow-setup-oblivious* chains skip even that: after
  one scalar first packet establishes a template, subsequent new flows
  are **bulk admitted** — classifier entry, Local MAT records, Global
  MAT rule (:meth:`~repro.core.global_mat.GlobalMAT.install_prebuilt`)
  and the compiled closure (cloned straight from the template's) are
  installed directly, operation-for-operation what
  ``SpeedyBox.process`` does, without materializing a packet or
  running an NF.  A new flow whose home FID is taken is *displaced* by
  the classifier and pays probe charges the template's shared plans do
  not carry: its first packet goes to the oracle instead.

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
from repro.core.framework import PathTaken, SpeedyBox
from repro.core.global_mat import GlobalRule
from repro.core.local_mat import LocalRule
from repro.core.state_function import StateFunctionBatch
from repro.net.flow import FiveTuple, PROTO_UDP
from repro.obs.registry import NULL_INSTRUMENT
from repro.traffic.columnar import KIND_DATA, PacketBatch
from repro.vector import np

#: packets per chunk of the steady-mask walk
_CHUNK = 32768


class BulkTemplate:
    """Everything needed to admit a new flow without running the chain."""

    __slots__ = (
        "rule",
        "compiled",
        "ran",
        "mat_plumbing",
        "dropped",
        "original_pid",
        "steady_pid",
        "steady_plan",
        "waves",
        "drop_action",
    )

    def __init__(self, rule, compiled, ran, mat_plumbing, dropped, original_pid,
                 steady_pid, steady_plan, waves, drop_action):
        #: the template GlobalRule whose artifacts install_prebuilt shares
        self.rule = rule
        #: the template flow's compiled closure; admitted flows clone it
        #: (``clone_for``): observably what ``compile_flow`` would build
        #: for them, minus the construction
        self.compiled = compiled
        #: how many NFs ran before the chain ended (drop templates stop early)
        self.ran = ran
        #: per-NF ``(local_mat, actions_or_None, action_count)`` — the
        #: record state every admitted flow receives, prebound so the
        #: admission loop is free of name lookups
        self.mat_plumbing = mat_plumbing
        self.dropped = dropped
        #: plan-table id of the first-packet stage plan
        self.original_pid = original_pid
        #: plan-table id (and the shared plan object) of the steady plan
        self.steady_pid = steady_pid
        self.steady_plan = steady_plan
        #: audit payload constants (template-invariant by construction)
        self.waves = waves
        self.drop_action = drop_action


class BatchLane:
    """One batch run's lane state; construct per ``run_load`` call."""

    def __init__(self, platform, batch: PacketBatch):
        self.platform = platform
        self.batch = batch
        self.runtime = platform.runtime
        self.dropped = 0
        #: packets served by whole-run array ops (lane introspection)
        self.span_packets = 0
        #: flows installed by bulk admission (lane introspection)
        self.admitted = 0
        #: the stage-plan table the replay consumes; ``plan_ids[i]``
        #: indexes into it.  Plans are deduplicated by value, so the
        #: table stays tiny no matter how many flows the batch holds.
        self.table: List[list] = []
        self._pid_by_value: Dict[tuple, int] = {}
        #: ``id(plan) -> (plan, fid, is_fast, transfer_ns)`` for every
        #: table plan, from the report that minted it (the shape
        #: ``FunctionalRun.labels`` has), or None while no forensics
        #: engine listens.  A label is per flow, so a listening engine
        #: keys the table by (value, label) and turns bulk admission,
        #: which has no report per flow, off.
        forensics = platform.forensics
        self.labels: Optional[Dict[int, tuple]] = (
            {} if forensics is not None and forensics.enabled else None
        )
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
        #: lazily built fid-per-flow column (bulk admission only)
        self._fids = None
        #: the one bulk template per run; built from the first qualifying
        #: scalar first packet, then reused for every admitted flow
        self.template: Optional[BulkTemplate] = None
        self._admit_plan_cache: Optional[tuple] = None
        self._proto_of = batch.flow_proto.item
        runtime = self.runtime
        self._clear_nf_flow = runtime.event_table.clear_nf_flow
        self._events_by_fid = runtime.event_table._by_fid
        self._local_rule_dicts = [mat._rules for mat in runtime.local_mats.values()]
        #: the classifier's eviction callback is exactly SpeedyBox's own
        #: teardown (no subclass override, no external wrapper), so bulk
        #: admission may inline it — five dict pops instead of five
        #: method frames per eviction
        on_evict = runtime.classifier.on_evict
        self._plain_evict = (
            getattr(on_evict, "__self__", None) is runtime
            and getattr(on_evict, "__func__", None)
            is SpeedyBox._on_classifier_evicted
        )
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
        #: flow five-tuple columns as plain Python lists, built on first
        #: bulk admission: list indexing beats per-field ndarray .item()
        #: calls when admissions number in the hundreds of thousands
        self._ft_lists = None
        self.bulk_ok = (
            runtime.enable_consolidation
            and self.labels is None
            and batch._payloads is None
            and all(nf.setup_flow_oblivious for nf in runtime.nfs)
        )

    # -- driving the batch ---------------------------------------------------

    def run(self) -> Tuple[List[list], object, int]:
        """Process the whole batch; returns (plan table, plan ids, dropped)."""
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
                    scalar_positions = scalar_at.tolist()
                    flows_sc = flows_seg[scalar_at].tolist()
                    kinds_sc = kind_seg[scalar_at].tolist()
                    previous = 0
                    stale_at = -1
                    for order, position in enumerate(scalar_positions):
                        flow = flows_sc[order]
                        kind = kinds_sc[order]
                        if kind == KIND_DATA and fstat[flow] == 1:
                            stale_at = pos + position
                            break
                        index = pos + position
                        if position > previous:
                            self._append_run(pos + previous, index)
                        self._flush()
                        self._scalar_packet(index, flow, kind)
                        previous = position + 1
                    if stale_at >= 0:
                        if stale_at > pos + previous:
                            self._append_run(pos + previous, stale_at)
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
        self._publish_lane_metrics()
        return self.table, self.plan_ids, self.dropped

    def _publish_lane_metrics(self) -> None:
        """One registry update per batch (never per packet).

        Published into the *runtime's* registry — the platform registry
        must be off for the lane to engage at all, but a SpeedyBox may
        carry its own.  These are lane-only introspection series
        (``lane_*``); the per-flow/table metrics the oracle would have
        produced are kept in parity by the admission path itself.
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
        if clone.rules.get(fid) is not clone.rule:
            return False
        if clone.flows.get(fid) is not clone.entry:
            return False
        events = clone.events_by_fid.get(fid)
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
        # precedes it, then replay the run per packet in order (cached
        # flows stay on the closure bookkeeping, the rest go scalar).
        self._flush()
        inval = self._inval
        for offset, flow in enumerate(flows_run.tolist()):
            index = lo + offset
            if inval:
                self._drain(inval)
            if vmask[flow]:
                self._serve_cached(index, flow)
            else:
                self._scalar_packet(index, flow, KIND_DATA)

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
        clone.move_to_end(clone.fid)
        if clone.is_drop:
            self.dropped += 1
        self.plan_ids[index] = self.fplan[flow]
        self.span_packets += 1

    def _flush(self) -> None:
        """Apply the deferred region's per-flow effects in one pass.

        Counts, rule hits and drop totals are commutative; the LRU
        touches — one ``move_to_end`` per flow in last-occurrence order
        over the *whole region* — leave exactly the recency order the
        per-packet sequence would have.  Both come from two flow-indexed
        scratch columns in O(region) — no sort — and only the slots the
        region touched are reset, so a flush never costs O(flows).
        """
        deferred = self._deferred
        if not deferred:
            return
        self.flushes += 1
        flow_arr = self.flow_arr
        last = self._last
        counts = self._counts
        for lo, hi in deferred:
            flows = flow_arr[lo:hi]
            np.maximum.at(last, flows, np.arange(lo, hi))
            np.add.at(counts, flows, 1)
        # A flow's last occurrence is the one position where
        # ``last[flow] == position``, so the flows picked out in position
        # order are distinct and in ascending last-occurrence order.
        # Positions only grow over a run, so ``last`` never needs a reset.
        touched = []
        for lo, hi in deferred:
            flows = flow_arr[lo:hi]
            touched.append(flows[last[flows] == np.arange(lo, hi)])
        deferred.clear()
        order = np.concatenate(touched)
        order_counts = counts[order].tolist()
        counts[order] = 0
        vclone = self._vclone
        order = order.tolist()
        dropped = 0
        for flow, count in zip(order, order_counts):
            clone = vclone[flow]
            clone.entry.packets += count
            clone.rule.hits += count
            if clone.is_drop:
                dropped += count
        self.dropped += dropped
        move = vclone[order[0]].move_to_end
        for flow in order:
            move(vclone[flow].fid)

    # -- scalar packets ------------------------------------------------------

    def _scalar_packet(self, index: int, flow: int, kind: int) -> None:
        """One packet through the oracle (or bulk admission when eligible)."""
        batch = self.batch
        runtime = self.runtime
        bulk_shape = (
            self.bulk_ok
            and kind == KIND_DATA
            and self._proto_of(flow) == PROTO_UDP
        )
        spans = self.spans
        if bulk_shape and self.template is not None:
            fid = self._fid_of_flow(flow)
            classifier = runtime.classifier
            # Home FID free and the five-tuple not displaced elsewhere: a
            # new flow the classifier would place at home.  A taken home
            # means a tracked flow or one about to be displaced, and
            # both are the oracle's.
            if fid not in classifier._flows:
                ft_lists = self._ft_lists
                if ft_lists is None:
                    ft_lists = self._ft_lists = tuple(
                        col.tolist()
                        for col in (
                            batch.flow_src_ip,
                            batch.flow_dst_ip,
                            batch.flow_src_port,
                            batch.flow_dst_port,
                            batch.flow_proto,
                        )
                    )
                five_tuple = FiveTuple(
                    ft_lists[0][flow],
                    ft_lists[1][flow],
                    ft_lists[2][flow],
                    ft_lists[3][flow],
                    ft_lists[4][flow],
                )
                # The sampling decision must fall in first-packet order,
                # exactly where the per-packet path would take it.  A
                # sampled flow skips bulk admission — its first packet
                # (and every later one, via ``fstat`` staying 0) goes
                # through the oracle so the recorder sees real reports.
                if five_tuple not in classifier._displaced and (
                    spans is None or not spans.wants(fid)
                ):
                    self._admit(flow, fid, index, five_tuple)
                    return

        packet = batch.materialize(index)
        report = runtime.process(packet)
        if spans is not None and spans.skip.get(report.fid) is None:
            root = spans.record(report)
            if root is not None:
                self.roots[index] = root
        if report.dropped:
            self.dropped += 1
        if report.steady:
            pid = self._steady_pid(report)
        else:
            pid = self._pid_of(self.platform._stage_plan(report), report)
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

    def _fid_of_flow(self, flow: int) -> int:
        fids = self._fids
        if fids is None:
            batch = self.batch
            self._fids = fids = fid_column(
                batch.flow_src_ip,
                batch.flow_dst_ip,
                batch.flow_src_port,
                batch.flow_dst_port,
                batch.flow_proto,
            ).tolist()
        # Plain int: the fid flows into table keys, audit payloads and
        # FlowEntry fields that must stay numpy-free.
        return fids[flow]

    # -- bulk admission ------------------------------------------------------

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
            if position < ran:
                local_rule = local_mat.rule_for(fid)
                if local_rule is None or local_rule.sf_batch or local_rule.event_count:
                    return
                actions = tuple(local_rule.header_actions)
                mat_plumbing.append(
                    (local_mat, local_mat._rules, nf.name, actions, len(actions))
                )
            else:
                mat_plumbing.append((local_mat, local_mat._rules, nf.name, None, 0))
        steady_pid = self._steady_pid(clone.steady_report)
        steady_plan = self.table[steady_pid]
        self.template = BulkTemplate(
            rule=clone.rule,
            compiled=clone,
            ran=ran,
            mat_plumbing=mat_plumbing,
            dropped=report.dropped,
            original_pid=pid,
            steady_pid=steady_pid,
            steady_plan=steady_plan,
            waves=clone.rule.schedule.wave_count,
            drop_action=clone.rule.consolidated.drop,
        )
        # One shared, immutable plan-cache tuple for every admitted
        # clone's steady report (identical timing by meter identity).
        self._admit_plan_cache = (self.platform, steady_plan, steady_pid, self)

    def _admit(self, flow: int, fid: int, index: int, five_tuple: FiveTuple) -> None:
        """Install one new flow from the template, no packet materialized.

        Operation-for-operation what ``SpeedyBox.process`` does: same
        classifier insert (after the same capacity eviction), same Local
        MAT record state, same Global MAT install, an observably equal
        compiled closure, same audit events in the same order.  Meter charges are value-typical
        by the oblivious contract and live only in the (shared) template
        report, which is exactly what feeds the stage plan.
        """
        runtime = self.runtime
        template = self.template
        classifier = runtime.classifier
        classifier.packets_classified += 1
        flows = classifier._flows
        null_metrics = self._null_metrics
        gm = runtime.global_mat
        gm_rules = gm._rules
        if classifier.capacity is not None and len(flows) >= classifier.capacity:
            if self._plain_evict:
                # Inlined ``_evict_oldest`` + ``_on_classifier_evicted``:
                # the teardown is five dict pops, and the method frames
                # dominated eviction-heavy admission.  Same pops, same
                # invalidation-feed append, same audit events in order.
                vfid, victim = flows.popitem(last=False)
                if victim.probes:
                    del classifier._displaced[victim.five_tuple]
                classifier.evictions += 1
                if not null_metrics:
                    classifier._m_flows.set(len(flows))
                audit = runtime.audit
                key = runtime._compiled_fids.pop(vfid, None)
                if key is not None:
                    runtime._compiled.pop(key, None)
                    self._inval.append(vfid)
                    audit.emit(
                        "fastpath_invalidate", fid=vfid, reason="classifier_evict"
                    )
                if gm_rules.pop(vfid, None) is not None and not null_metrics:
                    gm._m_occupancy.set(len(gm_rules))
                for rules in self._local_rule_dicts:
                    rules.pop(vfid, None)
                self._events_by_fid.pop(vfid, None)
                audit.emit("classifier_evict", fid=vfid, packets=victim.packets)
            else:
                classifier._evict_oldest()
        entry = FlowEntry.__new__(FlowEntry)
        entry.fid = fid
        entry.five_tuple = five_tuple
        entry.established = True
        entry.closed = False
        entry.packets = 1
        entry.probes = 0
        flows[fid] = entry
        runtime.slow_packets += 1
        # Inlined ``begin_recording`` + recorded-action replay: same
        # event-table clear, same fresh LocalRule, same record counters —
        # minus three method frames per admission.  The event-table clear
        # is skipped entirely while no flow anywhere has events (the
        # common case for setup-oblivious chains): clearing an empty
        # table is a no-op by definition.  Rules are built field by field
        # (``__new__``) — at hundreds of thousands of admissions the
        # constructor frames alone are measurable.
        clear_nf_flow = self._clear_nf_flow if self._events_by_fid else None
        for local_mat, rules, nf_name, actions, n_actions in template.mat_plumbing:
            if clear_nf_flow is not None:
                clear_nf_flow(fid, nf_name)
            local_rule = LocalRule.__new__(LocalRule)
            local_rule.fid = fid
            local_rule.header_actions = [] if actions is None else list(actions)
            sf_batch = StateFunctionBatch.__new__(StateFunctionBatch)
            sf_batch.nf_name = nf_name
            sf_batch._functions = []
            local_rule.sf_batch = sf_batch
            local_rule.event_count = 0
            local_rule.hits = 0
            if actions is not None:
                local_mat.records_ha += n_actions
            rules[fid] = local_rule
        if fid in gm_rules:
            # A live rule under this FID (never on the bulk path in
            # practice — admission implies the classifier forgot the
            # flow, and that teardown removed the rule): take the full
            # reinstall with its version bump and rebuild audit.
            rule = gm.install_prebuilt(fid, template.rule)
        else:
            # Inlined ``install_prebuilt``, fresh-insert arm: identical
            # rule, counters and audit; ``move_to_end`` elided because a
            # fresh key is already youngest.
            t_rule = template.rule
            rule = GlobalRule.__new__(GlobalRule)
            rule.fid = fid
            rule.consolidated = t_rule.consolidated
            rule.schedule = t_rule.schedule
            rule.nf_names = t_rule.nf_names
            rule.raw_actions = t_rule.raw_actions
            rule.pre_drop = t_rule.pre_drop
            rule.dropper = t_rule.dropper
            rule.version = 1
            rule.hits = 0
            gm.consolidations += 1
            runtime.audit.emit(
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
        compiled = template.compiled.clone_for(entry, rule)
        runtime._compiled[five_tuple] = compiled
        runtime._compiled_fids[fid] = five_tuple
        runtime.audit.emit(
            "fastpath_compile",
            fid=fid,
            version=rule.version,
            waves=template.waves,
            drop=template.drop_action,
        )
        # Pre-seed the clone's steady plan: its report shares the
        # template's fixed meter by identity, so the plan (and timing)
        # are the template's to the bit — no per-flow stage_plan walk.
        compiled.steady_report.plan_cache = self._admit_plan_cache
        self.fstat[flow] = 1
        self.fplan[flow] = template.steady_pid
        if fid in self._flows_of_fid:
            # the FID's last owner died since the last steady run and its
            # invalidation still sits in the feed: drop that slot's clone now
            self._drain_fid(fid)
        self._flows_of_fid[fid] = flow
        self._vclone[flow] = compiled
        self._vmask[flow] = 1
        if template.dropped:
            self.dropped += 1
        self.plan_ids[index] = template.original_pid
        self.admitted += 1

    # -- plan table ----------------------------------------------------------

    def _pid_of(self, plan, report) -> int:
        key = tuple(plan)
        labels = self.labels
        if labels is not None:
            label = (report.fid, report.is_fast, self.platform._plan_transfer_ns(report))
            key = (key, label)
        pid = self._pid_by_value.get(key)
        if pid is None:
            if labels is not None:
                # the label hangs on the plan's identity, and a plan a
                # report cached in an earlier run may be shared
                plan = list(plan)
                labels[id(plan)] = (plan, *label)
            pid = len(self.table)
            self.table.append(plan)
            self._pid_by_value[key] = pid
        return pid

    def _steady_pid(self, report) -> int:
        """Plan id of a steady singleton report, memoized on the report.

        The ``lane`` slot guards cross-run staleness: a pid minted by a
        previous lane run indexes *that* run's table, so only the plan
        object survives and the pid is re-derived for this table.
        """
        cached = report.plan_cache
        if cached is not None and cached[0] is self.platform:
            if cached[3] is self:
                return cached[2]
            plan = cached[1]
        else:
            plan = self.platform._stage_plan(report)
        pid = self._pid_of(plan, report)
        report.plan_cache = (self.platform, plan, pid, self)
        return pid
