"""The flow-state migration protocol.

Moving a live flow between chain replicas is only correct if *all* of its
state moves as one unit (Khalid & Akella's correctness condition for
chained stateful NFs): the classifier's connection entry, every NF's
Local MAT rule, the consolidated Global MAT rule, the registered events,
and the NFs' own per-flow state (NAT mapping, Maglev conntrack, Snort
flowbits, monitor counters).  Leaving any piece behind silently forks the
flow's state; copying instead of moving double-counts it.

:class:`FlowMigrator` implements the transfer between two runtimes that
were built from the *same chain factory* (same NF types and names).  The
caller — :class:`repro.scale.ScaleCluster` — provides the atomicity: it
freezes the flow at the sharder and buffers its packets before calling
:meth:`FlowMigrator.migrate`, so no packet can observe a half-moved flow.

Two subtleties the implementation works around:

- **Observed keys.**  NFs key per-flow state by the five-tuple they see
  at their *chain position* — after every upstream rewrite.  The migrator
  first walks both directions of the flow down the chain through the
  read-only :meth:`~repro.nf.base.NetworkFunction.flow_through` hooks to
  derive each NF's observed tuple, and only then starts exporting (the
  walk needs the mappings that export detaches).
- **Recorded handlers.**  Local-MAT state functions, Global-MAT schedule
  batches and event conditions are bound methods of the *source*
  replica's NF instances.  The migrator rebinds each to the same-named NF
  on the target, in place — the schedule shares its
  :class:`~repro.core.state_function.StateFunction` objects with the
  local rules, so one mutation fixes both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple, Union

from repro.core.framework import FlowRecord, ServiceChain, SpeedyBox
from repro.net.flow import FiveTuple
from repro.nf.base import NetworkFunction
from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.obs.trace import NULL_TRACER, PacketTracer

Runtime = Union[ServiceChain, SpeedyBox]


class MigrationError(RuntimeError):
    """The flow cannot be moved between these runtimes."""


@dataclass
class MigrationReport:
    """What one migration transferred."""

    flow: FiveTuple
    fids: Tuple[int, ...] = ()
    nf_states_moved: int = 0
    local_rules_moved: int = 0
    global_rules_moved: int = 0
    events_moved: int = 0
    handlers_rebound: int = 0
    #: freeze-buffer packets the caller replays on the target
    packets_replayed: int = 0

    def total_items(self) -> int:
        return (
            self.nf_states_moved
            + self.local_rules_moved
            + self.global_rules_moved
            + self.events_moved
        )


def flow_walk(
    nfs: Sequence[NetworkFunction], flow: FiveTuple
) -> Dict[FiveTuple, List[FiveTuple]]:
    """Every wire-ingress five-tuple of the connection, each mapped to
    the tuple every NF observes at its position on that direction.

    For a header-preserving chain the directions are ``flow`` and its
    reverse.  But when an NF rewrites the tuple (NAT, load balancer), the
    peer's return traffic arrives addressed to the *translated* endpoint
    — i.e. the reverse of the direction's **egress** tuple, not of its
    ingress tuple.  Starting from ``flow`` and ``flow.reversed()``, each
    direction is walked down the chain once, and its egress-reverse is
    added until the set closes (at most eight directions, a cycle guard).
    """
    walk: Dict[FiveTuple, List[FiveTuple]] = {}
    pending: List[FiveTuple] = [flow, flow.reversed()]
    while pending and len(walk) < 8:
        direction = pending.pop(0)
        if direction in walk:
            continue
        observed = walk[direction] = []
        current = direction
        for nf in nfs:
            observed.append(current)
            current = nf.flow_through(current)
        returned = current.reversed()
        if returned not in walk and returned not in pending:
            pending.append(returned)
    return walk


def chain_state_snapshot(
    nfs: Sequence[NetworkFunction], flow: FiveTuple
) -> Dict[str, tuple]:
    """Comparable per-NF state of every direction of ``flow`` (oracle use)."""
    snapshot: Dict[str, tuple] = {}
    for observed_keys in flow_walk(nfs, flow).values():
        for nf, observed in zip(nfs, observed_keys):
            state = nf.state_snapshot(observed)
            if state is not None:
                snapshot.setdefault(nf.name, ())
                snapshot[nf.name] = snapshot[nf.name] + (state,)
    return snapshot


def check_same_shape(
    src_nfs: Sequence[NetworkFunction], dst_nfs: Sequence[NetworkFunction]
) -> None:
    """Raise :class:`MigrationError` unless the chains pair up NF for NF.

    Handlers are rebound position by position (:func:`rebind_record`), so
    a length, NF-type or NF-name mismatch would silently bind a flow's
    handlers to the wrong NF.
    """
    if [type(nf) for nf in src_nfs] != [type(nf) for nf in dst_nfs] or [
        nf.name for nf in src_nfs
    ] != [nf.name for nf in dst_nfs]:
        raise MigrationError(
            f"replica chains differ: {[nf.name for nf in src_nfs]} vs "
            f"{[nf.name for nf in dst_nfs]}"
        )


def rebind_record(
    record: FlowRecord,
    src_nfs: Sequence[NetworkFunction],
    dst_nfs: Sequence[NetworkFunction],
) -> int:
    """Re-home every recorded handler in ``record`` from src NFs to dst NFs.

    Local-MAT state functions, Global-MAT schedule batches and event
    conditions are bound methods of (and may take as arguments) the
    source chain's NF instances; importing the record anywhere else
    requires rebinding each to the same-positioned NF on the target.
    Used by the migrator and by checkpoint restore
    (:mod:`repro.ft.checkpoint`), where the "source" is a dead replica's
    still-live NF objects.  Returns the number of handlers rebound.
    """
    nf_map = {id(s): d for s, d in zip(src_nfs, dst_nfs)}
    rebound = 0

    def rebind(handler: Callable) -> Callable:
        nonlocal rebound
        owner = getattr(handler, "__self__", None)
        target = nf_map.get(id(owner)) if owner is not None else None
        if target is None:
            return handler
        rebound += 1
        return handler.__func__.__get__(target)

    def rebind_args(args: tuple) -> tuple:
        return tuple(
            nf_map.get(id(arg), arg) if isinstance(arg, NetworkFunction) else arg
            for arg in args
        )

    def rebind_functions(functions) -> None:
        for fn in functions:
            fn.handler = rebind(fn.handler)
            fn.args = rebind_args(fn.args)

    for rule in record.local_rules.values():
        rebind_functions(rule.sf_batch)
    if record.global_rule is not None:
        # Usually the same StateFunction objects as the local rules
        # (build_rule shares batches); rebinding is idempotent.
        for wave in record.global_rule.schedule.waves:
            for batch in wave:
                rebind_functions(batch)
    for event in record.events:
        event.condition = rebind(event.condition)
        event.args = rebind_args(event.args)
        if event.update_function is not None:
            event.update_function = rebind(event.update_function)
        if event.update_state_functions is not None:
            rebind_functions(event.update_state_functions)
    return rebound


class FlowMigrator:
    """Atomic flow-state transfer between same-shape chain runtimes."""

    def __init__(
        self,
        metrics: MetricsRegistry = NULL_REGISTRY,
        tracer: PacketTracer = NULL_TRACER,
        audit: AuditLog = NULL_AUDIT,
    ):
        self.tracer = tracer
        self.audit = audit
        self.migrations = 0
        self._m_migrations = metrics.counter(
            "flow_migrations_total", "flows moved between chain replicas"
        )
        self._m_items = metrics.counter(
            "migrated_state_items_total", "state items (rules, events, NF states) moved"
        )

    # -- the protocol ---------------------------------------------------------

    def migrate(
        self, src: Runtime, dst: Runtime, flow: FiveTuple, replayed: int = 0
    ) -> MigrationReport:
        """Move every trace of ``flow`` (both directions) from src to dst.

        The caller must have frozen the flow's traffic first, and passes
        ``replayed`` — the freeze-buffer packet count it will replay on
        the target — so the audit trail records how much traffic each
        transfer displaced (comparable to the recovery trail's replay
        counts).  Raises :class:`MigrationError` when the chains are not
        the same shape or exactly one side is a SpeedyBox runtime.
        """
        src_nfs, dst_nfs = self._paired_nfs(src, dst)
        report = MigrationReport(flow=flow, packets_replayed=replayed)

        # Phase 1: derive the flow's wire directions (a NAT'd flow's
        # return traffic arrives on the *translated* tuple) and each NF's
        # observed tuple per direction — all *before* any state detaches,
        # since the walk reads the mappings that export removes.
        walk = flow_walk(src_nfs, flow)

        # Phase 2: move SpeedyBox table state (classifier entry, Local
        # MAT rules, Global MAT rule, events), one FID per direction —
        # the FID the flow owns on ``dst``, which places it afresh.
        if isinstance(src, SpeedyBox):
            for direction in walk:
                fid = src.classifier.fid_for(direction)
                if fid is None:
                    continue
                record = src.export_flow(fid)
                report.local_rules_moved += len(record.local_rules)
                report.global_rules_moved += int(record.global_rule is not None)
                report.events_moved += len(record.events)
                report.handlers_rebound += rebind_record(record, src_nfs, dst_nfs)
                dst.import_flow(record)
                report.fids = report.fids + (record.fid,)

        # Phase 3: move the NFs' own per-flow state at each observed key.
        for observed in walk.values():
            for src_nf, dst_nf, key in zip(src_nfs, dst_nfs, observed):
                state = src_nf.export_flow_state(key)
                if state is None:
                    continue
                dst_nf.import_flow_state(key, state)
                report.nf_states_moved += 1

        self.migrations += 1
        self._m_migrations.inc()
        self._m_items.inc(report.total_items())
        self.audit.emit(
            "migration_transfer",
            flow=str(flow),
            fids=list(report.fids),
            items=report.total_items(),
            rebound=report.handlers_rebound,
            replayed=replayed,
        )
        if self.tracer.enabled:
            self.tracer.instant(
                f"migrate {flow}",
                "scale:migrations",
                0.0,
                items=report.total_items(),
                fids=list(report.fids),
            )
        return report

    # -- helpers --------------------------------------------------------------

    def _paired_nfs(
        self, src: Runtime, dst: Runtime
    ) -> Tuple[List[NetworkFunction], List[NetworkFunction]]:
        if isinstance(src, SpeedyBox) != isinstance(dst, SpeedyBox):
            raise MigrationError(
                "cannot migrate between a SpeedyBox runtime and a plain chain"
            )
        src_nfs, dst_nfs = list(src.nfs), list(dst.nfs)
        check_same_shape(src_nfs, dst_nfs)
        return src_nfs, dst_nfs
