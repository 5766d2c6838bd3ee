"""Equivalence verification: one differential runner, one reference.

The paper's §VII-C methodology held to CHC's bar: output *and* per-flow
NF state equal those of the original chain (a :class:`ServiceChain`) that
never failed, moved or scaled.  :func:`differential` drives a SpeedyBox,
or a :class:`Cluster` of them, through steps keyed by packet index; its
chain *factory* gives each side fresh NFs.  A flow born during an outage
draws shared allocations (a NAT port) at recovery delivery, after peers'
later arrivals, so its port may permute: the identity claim covers flows
established before a kill.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.framework import ServiceChain, SpeedyBox
from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.obs.audit import AuditLog, NULL_AUDIT

ChainFactory = Callable[[], Sequence[NetworkFunction]]


@dataclass(frozen=True)
class Cluster:
    """System under test: SpeedyBox replicas behind a ``ScaleCluster``, with
    fault tolerance when a step kills.  ``chain_factory`` builds replicas
    that share state (a NAT's ``SharedPortPool``)."""
    replicas: int
    chain_factory: Optional[ChainFactory] = None
    platform: str = "bess"
    checkpoint_interval: int = 16
    charge_recovery: bool = True
    audit: AuditLog = NULL_AUDIT


@dataclass(frozen=True)
class Churn:
    """Re-home ``count`` live connections, each moved whole."""
    count: int
    seed: int = 7


@dataclass(frozen=True)
class Migrate:
    """Add an empty replica; move ``flow`` (default: the step packet's) onto
    it, frozen for ``freeze_for`` more packets.  Keeps a plain SpeedyBox's
    counters."""
    flow: Optional[FiveTuple] = None
    freeze_for: int = 0


@dataclass(frozen=True)
class Kill:
    """Kill a replica (default: the one homing the most flows)."""
    replica: Optional[int] = None


@dataclass(frozen=True)
class Recover:
    """Recover every dead replica (all recover at the stream's end)."""


@dataclass
class Divergence:
    """One difference between the reference and the system."""

    index: int  # packet index; -1 for a flow- or run-level difference
    kind: str  # "drop" | "bytes" | "state" | "loss" | "counters"
    detail: str

    def __str__(self) -> str:
        where = f"packet {self.index}: " if self.index >= 0 else ""
        return f"{where}{self.kind} mismatch — {self.detail}"


def _recovered(attribute: str) -> property:
    return property(lambda self: sum(getattr(r, attribute) for r in self.recoveries))


@dataclass
class VerificationReport:
    """Outcome of a differential run."""

    packets: int
    divergences: List[Divergence] = field(default_factory=list)
    fast_packets: int = 0
    slow_packets: int = 0
    events_triggered: int = 0
    buffered_packets: int = 0  # held mid-run: frozen or addressed to a dead replica
    killed_replica: Optional[int] = None
    migration: Optional[object] = None  # the last Migrate step's MigrationReport
    recoveries: List[object] = field(default_factory=list, repr=False)

    delivered_packets = _recovered("packets_delivered")  # buffered, delivered by recovery
    replayed_packets = _recovered("packets_replayed")  # log entries re-run (state only)
    flows_restored = _recovered("flows_restored")
    flows_rebuilt = _recovered("flows_rebuilt")
    charged_packets = _recovered("packets_charged")  # deliveries carrying the stall
    stall_charged_ns = _recovered("stall_charged_ns")

    recovery_ms = property(lambda self: sum(r.duration_ns for r in self.recoveries) / 1e6)

    equivalent = property(lambda self: not self.divergences)

    @property
    def fast_path_rate(self) -> float:
        total = self.fast_packets + self.slow_packets
        return self.fast_packets / total if total else 0.0

    def summary(self) -> str:
        verdict = "EQUIVALENT" if self.equivalent else f"{len(self.divergences)} DIVERGENCES"
        lines = [f"{verdict} over {self.packets} packets (fast path "
                 f"{100 * self.fast_path_rate:.1f}%, {self.events_triggered} events)"]
        lines.extend(str(divergence) for divergence in self.divergences[:10])
        if len(self.divergences) > 10:
            lines.append(f"... and {len(self.divergences) - 10} more")
        if self.migration is not None:
            lines.append(f"migration moved {self.migration.total_items()} state item(s) for "
                         f"{self.migration.flow}; {self.buffered_packets} packet(s) buffered")
        if self.recoveries:
            lines.append(
                f"failover of replica {self.killed_replica}: {self.buffered_packets} buffered / "
                f"{self.delivered_packets} delivered, {self.flows_restored} flows restored + "
                f"{self.flows_rebuilt} rebuilt, {self.replayed_packets} log packets replayed, "
                f"{self.recovery_ms:.2f} ms recovery, stall {self.stall_charged_ns / 1e6:.2f} ms "
                f"over {self.charged_packets} deliveries")
        return "\n".join(lines)


def _counters(runtimes) -> Dict[str, int]:
    stats = [runtime.stats() for runtime in runtimes]
    return {k: sum(s[k] for s in stats) for k in ("fast_packets", "slow_packets", "events_triggered")}


def differential(
    chain_factory: ChainFactory, packets: Sequence[Packet], system: Optional[Cluster] = None,
    steps: Optional[Dict[int, object]] = None, speedybox_kwargs: Optional[dict] = None,
) -> VerificationReport:
    """Run ``packets`` through the original chain and the system in lockstep.

    ``steps[i]`` (a step or a list) runs before packet ``i``; a callable
    gets ``(reference, system)``.  A step outside the stream, or a cluster
    step without a :class:`Cluster`, is a ``ValueError``.  The report holds
    the output diff, the per-NF state diff of each flow of the stream (each
    homed key on a cluster), conservation (one outcome per packet: in
    stream, or delivered by a migration or a recovery) and the counters.
    """
    steps = {i: list(s) if isinstance(s, (list, tuple)) else [s] for i, s in (steps or {}).items()}
    scripted = [step for todo in steps.values() for step in todo]
    for index, todo in sorted(steps.items()):
        if not 0 <= index < len(packets):
            raise ValueError(f"step {todo!r} at {index} is outside the {len(packets)}-packet stream")
        if system is None and not all(callable(step) for step in todo):
            raise ValueError(f"step {todo!r} at {index} needs system=Cluster(...)")
    kwargs = speedybox_kwargs or {}
    reference = ServiceChain(chain_factory())
    report = VerificationReport(packets=len(packets))
    ft = None
    if system is None:
        sut = SpeedyBox(chain_factory(), **kwargs)
    else:
        # Lazy: repro.scale and repro.ft import repro.core.
        from repro.scale.cluster import ScaleCluster

        sut = ScaleCluster(system.chain_factory or chain_factory, platform=system.platform,
                           replicas=system.replicas, speedybox_kwargs=kwargs, audit=system.audit)
        if any(isinstance(step, Kill) for step in scripted):
            from repro.ft.failover import FaultTolerance

            ft = FaultTolerance(sut, checkpoint_interval=system.checkpoint_interval,
                                charge_recovery=system.charge_recovery)

    ref_stream, sut_stream = ([packet.clone() for packet in packets] for __ in range(2))
    completions: Dict[int, list] = {}
    live = replayed = 0
    for index, (ref_pkt, packet) in enumerate(zip(ref_stream, sut_stream)):
        for step in steps.get(index, ()):
            if isinstance(step, Churn):
                sut.churn_flows(step.count, seed=step.seed)
            elif isinstance(step, Migrate):
                flow = step.flow or packet.five_tuple()
                target = sut.scale_out()
                sut.begin_migration(flow)
                done = min(index + max(0, step.freeze_for), len(packets) - 1)
                completions.setdefault(done, []).append((flow, target))
            elif isinstance(step, Kill):
                report.killed_replica = ft.kill(step.replica)
            elif isinstance(step, Recover):
                if ft is None or not ft.dead:
                    raise ValueError(f"Recover at {index} finds no dead replica")
                ft.recover_all()
            else:
                step(reference, sut)
        reference.process(ref_pkt)
        live += sut.process(packet) is not None
        for flow, target in completions.pop(index, ()):
            report.migration, outcomes = sut.complete_migration(flow, target)
            replayed += len(outcomes)
    if ft is not None:
        ft.recover_all()
        report.recoveries = list(ft.recoveries)
    report.buffered_packets = len(packets) - live
    recovered = sum(len(r.outcomes) for r in report.recoveries)  # delivered or dropped
    if live + replayed + recovered != len(packets):
        report.divergences.append(Divergence(-1, "loss", f"{live} in-stream + {replayed} migration"
                                             f" replays + {recovered} recovered "
                                             f"!= {len(packets)} offered"))

    for index, (want, got) in enumerate(zip(ref_stream, sut_stream)):  # drop decision, wire bytes
        if want.dropped != got.dropped:
            report.divergences.append(Divergence(index, "drop", f"dropped by the reference: "
                                                 f"{want.dropped}, by the system: {got.dropped}"))
        elif not want.dropped and want.serialize() != got.serialize():
            report.divergences.append(Divergence(index, "bytes", f"{want!r} vs {got!r}"))
    if system is None:
        runtimes = [sut]
        homes = [(key, sut, "") for key in sorted({p.five_tuple().canonical() for p in packets})]
    else:
        runtimes = [sut.replica(rid).runtime for rid in sorted(sut.replicas)]
        homes = [(key, sut.replica(home).runtime, f" on replica {home}")
                 for key, home in sorted(sut.flow_homes().items())]
    from repro.scale.migration import chain_state_snapshot

    for key, runtime, where in homes:
        want = chain_state_snapshot(reference.nfs, key)
        got = chain_state_snapshot(runtime.nfs, key)
        for name in [nf.name for nf in reference.nfs if want.get(nf.name) != got.get(nf.name)]:
            report.divergences.append(Divergence(-1, "state", (
                f"flow {key}{where}, {name}: reference={want.get(name)!r} "
                f"vs system={got.get(name)!r}")))

    counters = _counters(runtimes)
    if any(isinstance(step, Migrate) for step in scripted):
        plain = SpeedyBox(chain_factory(), **kwargs)
        for packet in packets:
            plain.process(packet.clone())
        for name, want in _counters([plain]).items():
            if counters[name] != want:
                report.divergences.append(Divergence(
                    -1, "counters", f"{name}: plain SpeedyBox={want} vs system={counters[name]}"))
    report.fast_packets, report.slow_packets, report.events_triggered = counters.values()
    return report


def verify_equivalence(
    chain_factory: ChainFactory, packets: Sequence[Packet],
    interventions: Optional[Dict[int, Callable]] = None, speedybox_kwargs: Optional[dict] = None,
) -> VerificationReport:
    """The original chain against one SpeedyBox runtime, output and state;
    ``interventions[i]`` (e.g. failing a backend) runs before packet ``i``."""
    return differential(chain_factory, packets, steps=interventions,
                        speedybox_kwargs=speedybox_kwargs)


def verify_equivalence_failover(
    chain_factory: ChainFactory, packets: Sequence[Packet], kill_at: int,
    cluster_chain_factory: Optional[ChainFactory] = None, replicas: int = 4,
    checkpoint_interval: int = 16, recover_after: Optional[int] = None,
    kill_replica: Optional[int] = None, churn: int = 0, churn_at: Optional[int] = None,
    speedybox_kwargs: Optional[dict] = None, platform: str = "bess",
    charge_recovery: bool = True, audit: AuditLog = NULL_AUDIT,
) -> VerificationReport:
    """Kill a replica before packet ``kill_at``, recover ``recover_after``
    packets later (``None``, or past the stream: at its end), churn
    ``churn`` connections before ``churn_at`` (default: halfway to the
    kill).  Log replay re-runs packets: counters are reported only."""
    steps: Dict[int, list] = {kill_at: [Kill(kill_replica)]}
    if recover_after is not None and kill_at + max(1, recover_after) < len(packets):
        steps[kill_at + max(1, recover_after)] = [Recover()]
    if churn:
        steps.setdefault(kill_at // 2 if churn_at is None else churn_at, []).insert(0, Churn(churn))
    cluster = Cluster(replicas, cluster_chain_factory, platform, checkpoint_interval,
                      charge_recovery, audit)
    return differential(chain_factory, packets, cluster, steps, speedybox_kwargs)
