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
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.framework import ServiceChain, SpeedyBox
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction

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
