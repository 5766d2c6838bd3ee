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
- **Recorded handlers.**  A record names each handler (NF name + method
  name); :meth:`~repro.core.framework.SpeedyBox.import_flow` resolves
  the names against the target's own NFs, so nothing moves code.
  :func:`install_flow` is the one install step a migration and a
  checkpoint restore (:mod:`repro.ft.checkpoint`) share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.core.framework import FlowRecord, ServiceChain, SpeedyBox
from repro.net.flow import FiveTuple
from repro.nf.base import NetworkFunction
from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.obs.trace import NULL_TRACER, PacketTracer

Runtime = Union[ServiceChain, SpeedyBox]

#: (NF type name, NF name) per chain position
ChainSignature = Tuple[Tuple[str, str], ...]

#: (nf name, observed five-tuple, opaque NF state)
NFStateItem = Tuple[str, FiveTuple, object]


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


def chain_signature(nfs: Sequence[NetworkFunction]) -> ChainSignature:
    """The chain's shape as plain data: (NF type name, NF name) per position."""
    return tuple((type(nf).__name__, nf.name) for nf in nfs)


def check_same_shape(shape: ChainSignature, dst_nfs: Sequence[NetworkFunction]) -> None:
    """Raise :class:`MigrationError` unless ``dst_nfs`` has this shape.

    Handlers resolve by NF name and NF state installs by NF name, so a
    length, NF-type or NF-name mismatch would hand a flow to the wrong
    NF, or to none.
    """
    if chain_signature(dst_nfs) != shape:
        raise MigrationError(
            f"replica chains differ: {[name for __, name in shape]} vs "
            f"{[nf.name for nf in dst_nfs]}"
        )


def install_flow(
    runtime: Runtime,
    records: Sequence[FlowRecord],
    nf_states: Sequence[NFStateItem],
    reason: str,
) -> List[int]:
    """Install one flow's records and NF states; returns its FIDs here.

    Each record is copied first (the caller's stays as it was), then
    imported — which resolves its handlers on ``runtime``'s NFs — and
    each NF state goes to the same-named NF.
    """
    fids: List[int] = []
    if isinstance(runtime, SpeedyBox):
        for stored in records:
            record = stored.copy()
            runtime.import_flow(record, reason=reason)
            fids.append(record.fid)
    nf_by_name = {nf.name: nf for nf in runtime.nfs}
    for name, observed_key, state in nf_states:
        nf_by_name[name].import_flow_state(observed_key, state)
    return fids


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
        if isinstance(src, SpeedyBox) != isinstance(dst, SpeedyBox):
            raise MigrationError(
                "cannot migrate between a SpeedyBox runtime and a plain chain"
            )
        src_nfs = list(src.nfs)
        check_same_shape(chain_signature(src_nfs), dst.nfs)
        report = MigrationReport(flow=flow, packets_replayed=replayed)

        # Phase 1: derive the flow's wire directions (a NAT'd flow's
        # return traffic arrives on the *translated* tuple) and each NF's
        # observed tuple per direction — all *before* any state detaches,
        # since the walk reads the mappings that export removes.
        walk = flow_walk(src_nfs, flow)

        # Phase 2: detach SpeedyBox table state (classifier entry, Local
        # MAT rules, Global MAT rule, events), one record per direction,
        # and the NFs' own per-flow state at each observed key.
        records = []
        if isinstance(src, SpeedyBox):
            for direction in walk:
                fid = src.classifier.fid_for(direction)
                if fid is not None:
                    records.append(src.export_flow(fid))
        nf_states = [
            (nf.name, key, state)
            for observed in walk.values()
            for nf, key in zip(src_nfs, observed)
            if (state := nf.export_flow_state(key)) is not None
        ]
        for record in records:
            report.local_rules_moved += len(record.local_rules)
            report.global_rules_moved += int(record.global_rule is not None)
            report.events_moved += len(record.events)
        report.nf_states_moved = len(nf_states)

        # Phase 3: install it all on ``dst`` — each record under the FID
        # the flow owns there, which places it afresh.
        report.fids = tuple(install_flow(dst, records, nf_states, reason="flow_import"))

        self.migrations += 1
        self._m_migrations.inc()
        self._m_items.inc(report.total_items())
        self.audit.emit(
            "migration_transfer",
            flow=str(flow),
            fids=list(report.fids),
            items=report.total_items(),
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
