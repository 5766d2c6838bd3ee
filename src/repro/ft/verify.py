"""§VII-C equivalence methodology, extended across a replica failure.

:func:`verify_equivalence_failover` runs the same packet stream through
a single reference SpeedyBox runtime and through a
:class:`~repro.scale.cluster.ScaleCluster` with fault tolerance armed to
kill one replica mid-stream — then checks the three recovery-correctness
properties:

- **loss-free**: every offered packet produced exactly one live outcome
  — processed normally, or buffered against the dead replica and
  delivered by failover (migration freezes included);
- **duplicate-free**: live outcomes sum to exactly the stream length —
  recovery *replays* are state reconstruction, never extra deliveries;
- **state-identical**: every live flow's per-NF state on whichever
  replica now homes it matches the uninterrupted reference run, and
  forwarded wire bytes match per packet index.

Unlike :func:`~repro.core.verification.verify_equivalence_migration`,
fast/slow-path and event counter totals are deliberately **not**
compared: log replay re-runs packets through the pipeline, inflating
those counters on the cluster side by design.  (The audit log's
``ft_replay`` events carry the exact inflation for anyone attributing
counter deltas.)

When the chain holds a NAT, the cluster's replicas must draw ports from
one :class:`~repro.ft.txstate.SharedPortPool` (pass a dedicated
``cluster_chain_factory``) — the reference keeps its private sequential
allocator, which assigns the same ports in the same global arrival
order, so wire bytes still compare exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core.framework import SpeedyBox
from repro.core.verification import (
    Divergence,
    VerificationReport,
    cluster_counters,
    diff_flow_state,
    diff_outputs,
)
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.scale.cluster import ScaleCluster
from repro.ft.failover import FaultTolerance, RecoveryReport
from repro.ft.faults import FaultInjector

ChainFactory = Callable[[], Sequence[NetworkFunction]]


@dataclass
class FailoverVerificationReport(VerificationReport):
    """Outcome of the failover variant of the equivalence methodology."""

    killed_replica: Optional[int] = None
    buffered_packets: int = 0  # held against the dead replica
    delivered_packets: int = 0  # buffered packets delivered by recovery
    replayed_packets: int = 0  # log entries re-run (state rebuild only)
    flows_restored: int = 0
    flows_rebuilt: int = 0
    charged_packets: int = 0  # deliveries whose latency carries the stall
    stall_charged_ns: float = 0.0  # failover stall charged onto them, total
    recoveries: List[RecoveryReport] = field(default_factory=list, repr=False)

    @property
    def recovery_ms(self) -> float:
        return sum(r.duration_s for r in self.recoveries) * 1000.0

    def summary(self) -> str:
        lines = [super().summary()]
        lines.append(
            f"failover of replica {self.killed_replica}: "
            f"{self.buffered_packets} buffered / {self.delivered_packets} delivered, "
            f"{self.flows_restored} flows restored + {self.flows_rebuilt} rebuilt, "
            f"{self.replayed_packets} log packets replayed, "
            f"{self.recovery_ms:.2f} ms recovery"
        )
        if self.charged_packets:
            lines.append(
                f"stall charged: {self.stall_charged_ns / 1e6:.2f} ms over "
                f"{self.charged_packets} buffered deliveries"
            )
        return "\n".join(lines)


def verify_equivalence_failover(
    chain_factory: ChainFactory,
    packets: Sequence[Packet],
    kill_at: int,
    cluster_chain_factory: Optional[ChainFactory] = None,
    replicas: int = 4,
    checkpoint_interval: int = 16,
    recover_after: Optional[int] = None,
    kill_replica: Optional[int] = None,
    churn: int = 0,
    churn_at: Optional[int] = None,
    speedybox_kwargs: Optional[dict] = None,
    platform: str = "bess",
    charge_recovery: bool = True,
    audit: AuditLog = NULL_AUDIT,
) -> FailoverVerificationReport:
    """Kill a replica mid-stream; prove recovery was invisible.

    ``chain_factory`` builds the reference chain; ``cluster_chain_factory``
    (defaulting to the same) builds each replica's — pass a distinct one
    when replicas must share transactional state (NAT port pool).
    ``recover_after`` arms auto-recovery that many packets after the
    kill; ``None`` recovers whatever is still dead at end of stream.
    ``churn`` flows are forcibly re-homed just before packet
    ``churn_at`` (default: halfway to the kill), putting migrated state
    and migration pins in the blast radius.  ``audit`` becomes the
    cluster's journal (replica runtimes, migrator and the fault-tolerance
    coordinator all write to it), for callers that want to count what the
    run decided — compiles, invalidations, checkpoints.

    The byte-identity claim covers flows established before the kill.
    A flow whose *first* packet arrives during the outage is still
    served loss-free, but any order-sensitive shared allocation it
    triggers (a NAT port draw) happens at recovery-delivery time, after
    peers' later arrivals — so its external port may permute relative
    to the never-failed reference.  That is the counterfactual changing,
    not state being lost.
    """
    if not 0 <= kill_at < len(packets):
        raise ValueError(f"kill_at must index into the packet stream, got {kill_at!r}")
    reference = SpeedyBox(chain_factory(), **(speedybox_kwargs or {}))
    cluster = ScaleCluster(
        cluster_chain_factory or chain_factory,
        platform=platform,
        replicas=replicas,
        speedybox=True,
        speedybox_kwargs=speedybox_kwargs,
        audit=audit,
    )
    ft = FaultTolerance(
        cluster,
        checkpoint_interval=checkpoint_interval,
        injector=FaultInjector(
            kill_at=kill_at, replica=kill_replica, recover_after=recover_after
        ),
        charge_recovery=charge_recovery,
    )

    ref_stream = [packet.clone() for packet in packets]
    cluster_stream = [packet.clone() for packet in packets]
    for packet in ref_stream:
        reference.process(packet)

    report = FailoverVerificationReport(packets=len(packets))
    if churn and churn_at is None:
        churn_at = kill_at // 2
    live_outcomes = 0
    for index, packet in enumerate(cluster_stream):
        if churn and index == churn_at:
            cluster.churn_flows(churn, seed=7)
        outcome = cluster.process(packet)
        if outcome is not None:
            live_outcomes += 1
    report.killed_replica = ft.injector.replica
    report.buffered_packets = ft.packets_buffered
    if ft.dead:
        ft.recover_all()
    report.recoveries = list(ft.recoveries)
    report.delivered_packets = sum(r.packets_delivered for r in ft.recoveries)
    report.replayed_packets = sum(r.packets_replayed for r in ft.recoveries)
    report.flows_restored = sum(r.flows_restored for r in ft.recoveries)
    report.flows_rebuilt = sum(r.flows_rebuilt for r in ft.recoveries)
    report.charged_packets = sum(r.packets_charged for r in ft.recoveries)
    report.stall_charged_ns = sum(r.stall_charged_ns for r in ft.recoveries)

    # Loss- and duplicate-freedom in one equation: every packet got
    # exactly one live outcome, either in-stream or via recovery delivery.
    if live_outcomes + report.delivered_packets != len(packets):
        report.divergences.append(
            Divergence(
                -1,
                "loss",
                f"{live_outcomes} in-stream + {report.delivered_packets} "
                f"delivered != {len(packets)} offered",
            )
        )

    report.divergences.extend(diff_outputs(ref_stream, cluster_stream))
    # The reference chain vs whichever replica now homes each flow
    # (failover re-homed the dead replica's flows).
    report.divergences.extend(diff_flow_state(reference, cluster))

    totals = cluster_counters(cluster)
    report.fast_packets = totals["fast_packets"]
    report.slow_packets = totals["slow_packets"]
    report.events_triggered = totals["events_triggered"]
    return report
