"""Equivalence verification as a library feature.

The paper's §VII-C methodology — inject packets, compare outputs and
state between the original chain and SpeedyBox — is how NF authors gain
confidence in their instrumentation.  :func:`verify_equivalence` packages
it: give it a chain *factory* (fresh NF instances per run, since NFs hold
state) and a packet list, and it runs both configurations in lockstep,
returning a :class:`VerificationReport` of every divergence.

Typical use, from an NF author's test suite::

    report = verify_equivalence(lambda: [MyNF(), Monitor("m")], packets)
    assert report.equivalent, report.summary()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.core.framework import ServiceChain, SpeedyBox
from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction

if TYPE_CHECKING:  # pragma: no cover - avoids repro.scale import cycle at runtime
    from repro.scale.migration import MigrationReport

ChainFactory = Callable[[], Sequence[NetworkFunction]]
Intervention = Callable[[ServiceChain, SpeedyBox], None]


@dataclass
class Divergence:
    """One observed difference between the two configurations."""

    index: int
    kind: str  # "drop" | "bytes"
    detail: str

    def __str__(self) -> str:
        return f"packet {self.index}: {self.kind} mismatch — {self.detail}"


@dataclass
class VerificationReport:
    """Outcome of a lockstep equivalence run."""

    packets: int
    divergences: List[Divergence] = field(default_factory=list)
    fast_packets: int = 0
    slow_packets: int = 0
    events_triggered: int = 0

    @property
    def equivalent(self) -> bool:
        return not self.divergences

    @property
    def fast_path_rate(self) -> float:
        total = self.fast_packets + self.slow_packets
        return self.fast_packets / total if total else 0.0

    def summary(self) -> str:
        verdict = "EQUIVALENT" if self.equivalent else f"{len(self.divergences)} DIVERGENCES"
        lines = [
            f"{verdict} over {self.packets} packets "
            f"(fast path {100 * self.fast_path_rate:.1f}%, "
            f"{self.events_triggered} events)"
        ]
        lines.extend(str(divergence) for divergence in self.divergences[:10])
        if len(self.divergences) > 10:
            lines.append(f"... and {len(self.divergences) - 10} more")
        return "\n".join(lines)


def diff_outputs(
    ref_stream: Sequence[Packet],
    other_stream: Sequence[Packet],
    ref_name: str = "reference",
    other_name: str = "cluster",
) -> List[Divergence]:
    """Per packet index: same drop decision, same bytes on the wire."""
    divergences = []
    for index, (ref_pkt, other_pkt) in enumerate(zip(ref_stream, other_stream)):
        if ref_pkt.dropped != other_pkt.dropped:
            divergences.append(
                Divergence(
                    index,
                    "drop",
                    f"{ref_name}={'dropped' if ref_pkt.dropped else 'forwarded'}, "
                    f"{other_name}={'dropped' if other_pkt.dropped else 'forwarded'}",
                )
            )
        elif not ref_pkt.dropped and ref_pkt.serialize() != other_pkt.serialize():
            divergences.append(Divergence(index, "bytes", f"{ref_pkt!r} vs {other_pkt!r}"))
    return divergences


def diff_flow_state(reference: SpeedyBox, cluster) -> List[Divergence]:
    """Per-flow NF state (NAT mappings, LB conntrack, IDS flowbits,
    monitor counters, ...): the reference chain against whichever
    replica now homes each flow."""
    # Imported lazily: repro.scale imports repro.core at module load.
    from repro.scale.migration import chain_state_snapshot

    divergences = []
    for key, home in sorted(cluster.flow_homes().items()):
        ref_state = chain_state_snapshot(reference.nfs, key)
        cluster_state = chain_state_snapshot(cluster.replica(home).runtime.nfs, key)
        if ref_state != cluster_state:
            divergences.append(
                Divergence(
                    -1,
                    "state",
                    f"flow {key} on replica {home}: "
                    f"reference={ref_state!r} vs cluster={cluster_state!r}",
                )
            )
    return divergences


def cluster_counters(cluster) -> Dict[str, int]:
    """Fast/slow-path and event totals over a cluster's live replicas."""
    runtimes = [cluster.replica(rid).runtime for rid in sorted(cluster.replicas)]
    return {
        "fast_packets": sum(runtime.fast_packets for runtime in runtimes),
        "slow_packets": sum(runtime.slow_packets for runtime in runtimes),
        "events_triggered": sum(
            runtime.event_table.total_triggered for runtime in runtimes
        ),
    }


def verify_equivalence(
    chain_factory: ChainFactory,
    packets: Sequence[Packet],
    interventions: Optional[Dict[int, Intervention]] = None,
    speedybox_kwargs: Optional[dict] = None,
) -> VerificationReport:
    """Run baseline and SpeedyBox over ``packets`` and diff the outputs.

    ``interventions[i]`` (if given) runs against both runtimes right
    before packet ``i`` — the hook for mid-stream scenario changes such
    as failing a load-balancer backend.

    Only packet-level effects are compared (drop decisions and wire
    bytes); NF-internal state is the author's to assert on the returned
    runtimes' NFs — which is why the factory pattern is required.
    """
    interventions = interventions or {}
    baseline = ServiceChain(chain_factory())
    speedybox = SpeedyBox(chain_factory(), **(speedybox_kwargs or {}))

    report = VerificationReport(packets=len(packets))
    base_stream = [packet.clone() for packet in packets]
    sbox_stream = [packet.clone() for packet in packets]

    for index, (base_pkt, sbox_pkt) in enumerate(zip(base_stream, sbox_stream)):
        if index in interventions:
            interventions[index](baseline, speedybox)
        baseline.process(base_pkt)
        speedybox.process(sbox_pkt)
    report.divergences.extend(diff_outputs(base_stream, sbox_stream, "baseline", "speedybox"))

    report.fast_packets = speedybox.fast_packets
    report.slow_packets = speedybox.slow_packets
    report.events_triggered = speedybox.event_table.total_triggered
    return report


@dataclass
class MigrationVerificationReport(VerificationReport):
    """Outcome of the migration variant of the equivalence methodology."""

    migrated_flow: Optional[FiveTuple] = None
    migration: Optional["MigrationReport"] = None
    buffered_packets: int = 0

    def summary(self) -> str:
        lines = [super().summary()]
        if self.migration is not None:
            lines.append(
                f"migration moved {self.migration.total_items()} state item(s) "
                f"for {self.migrated_flow}; {self.buffered_packets} packet(s) "
                f"buffered during the freeze"
            )
        return "\n".join(lines)


def verify_equivalence_migration(
    chain_factory: ChainFactory,
    packets: Sequence[Packet],
    migrate_at: int,
    freeze_for: int = 0,
    flow: Optional[FiveTuple] = None,
    speedybox_kwargs: Optional[dict] = None,
    platform: str = "bess",
) -> MigrationVerificationReport:
    """§VII-C equivalence across a mid-life flow migration.

    Runs the same packets through a single SpeedyBox runtime (reference)
    and through a :class:`~repro.scale.cluster.ScaleCluster` that starts
    with one replica and, just before packet ``migrate_at``, adds an
    *empty* replica (no sharder buckets) and migrates ``flow`` onto it —
    so any divergence is attributable to the migration itself, not to
    resharding.  The flow stays frozen for ``freeze_for`` further packets
    to exercise the buffer-and-replay path; buffered packets are replayed
    on the target replica and still compared byte-for-byte.

    ``flow`` defaults to the five-tuple of ``packets[migrate_at]``.
    Besides drop decisions and wire bytes, the report diffs per-flow NF
    state snapshots (NAT mappings, LB conntrack, IDS flowbits, monitor
    counters, ...) and the runtime counters (fast/slow path totals and
    events triggered) — migration must be invisible to all of them.
    """
    # Imported lazily: repro.scale imports repro.core at module load.
    from repro.scale.cluster import ScaleCluster

    if not 0 <= migrate_at < len(packets):
        raise ValueError(
            f"migrate_at must index into the packet stream, got {migrate_at!r}"
        )
    flow = flow or packets[migrate_at].five_tuple()
    reference = SpeedyBox(chain_factory(), **(speedybox_kwargs or {}))
    cluster = ScaleCluster(
        chain_factory,
        platform=platform,
        replicas=1,
        speedybox=True,
        speedybox_kwargs=speedybox_kwargs,
    )

    ref_stream = [packet.clone() for packet in packets]
    cluster_stream = [packet.clone() for packet in packets]
    for packet in ref_stream:
        reference.process(packet)

    report = MigrationVerificationReport(packets=len(packets), migrated_flow=flow)
    freeze_until = min(migrate_at + max(0, freeze_for), len(packets) - 1)
    dst_rid: Optional[int] = None
    for index, packet in enumerate(cluster_stream):
        if index == migrate_at:
            dst_rid = cluster.scale_out(rebalance=False)
            cluster.begin_migration(flow)
        outcome = cluster.process(packet)
        if outcome is None:
            report.buffered_packets += 1
        if index == freeze_until and dst_rid is not None:
            report.migration, __ = cluster.complete_migration(flow, dst_rid)

    report.divergences.extend(diff_outputs(ref_stream, cluster_stream))
    report.divergences.extend(diff_flow_state(reference, cluster))

    # Runtime counters: a complete migration leaves the fast path intact
    # on the target, so the cluster-wide totals must equal the reference.
    totals = cluster_counters(cluster)
    expected = {
        "fast_packets": reference.fast_packets,
        "slow_packets": reference.slow_packets,
        "events_triggered": reference.event_table.total_triggered,
    }
    for name, want in expected.items():
        if totals[name] != want:
            report.divergences.append(
                Divergence(
                    -1, "counters", f"{name}: reference={want} vs cluster={totals[name]}"
                )
            )

    report.fast_packets = totals["fast_packets"]
    report.slow_packets = totals["slow_packets"]
    report.events_triggered = totals["events_triggered"]
    return report
