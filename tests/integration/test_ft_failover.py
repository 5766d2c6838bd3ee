"""Failover end to end: kill a replica mid-run, recover, lose nothing.

Drives the whole ``repro.ft`` stack through the cluster's public
surface: the equivalence oracle under churn, the crash-during-migration
guard, cross-replica port-pool safety under concurrent failures, and
the migration audit trail's replay counts.
"""

import pytest

from repro.ft import (
    FailoverError,
    FaultTolerance,
    SharedAggregate,
    SharedPortPool,
    TransactionalStore,
    verify_equivalence_failover,
)
from repro.net.headers import TCP_FIN
from repro.obs.audit import AuditLog
from repro.scale import MigrationError, ScaleCluster
from repro.traffic import FlowSpec, TrafficGenerator, packets_for_flow
from repro.nf import IPFilter, MazuNAT, Monitor

PORTS = (20000, 60000)
EXTERNAL_IP = "203.0.113.80"


def reference_chain():
    return [
        MazuNAT("nat", external_ip=EXTERNAL_IP, port_range=PORTS),
        Monitor("mon"),
        IPFilter("fw"),
    ]


def shared_state():
    store = TransactionalStore()
    pool = SharedPortPool(store, port_range=PORTS)
    aggregate = SharedAggregate(store, name="mon_total")
    return store, pool, aggregate


def cluster_chain_factory(pool, aggregate):
    def chain():
        return [
            MazuNAT("nat", external_ip=EXTERNAL_IP, port_range=PORTS, port_pool=pool),
            Monitor("mon", aggregate=aggregate),
            IPFilter("fw"),
        ]

    return chain


def workload(flows=24, packets_per_flow=10, fin_every=3, seed=9):
    specs = [
        FlowSpec.tcp(
            f"10.3.{i // 200}.{i % 200 + 1}",
            f"99.2.0.{i % 20 + 1}",
            6000 + i,
            80,
            packets=packets_per_flow,
            handshake=True,
            fin=(fin_every is not None and i % fin_every == 0),
        )
        for i in range(flows)
    ]
    return TrafficGenerator(specs, interleave="round_robin", seed=seed).packets()


class TestFailoverOracle:
    def test_kill_one_of_four_under_churn_is_equivalent(self):
        """The acceptance scenario: 4 replicas, churned flows, one dies
        mid-run — recovery is loss-free, duplicate-free, state-identical."""
        __, pool, aggregate = shared_state()
        packets = workload()
        report = verify_equivalence_failover(
            reference_chain,
            packets,
            kill_at=len(packets) // 2,
            cluster_chain_factory=cluster_chain_factory(pool, aggregate),
            replicas=4,
            checkpoint_interval=16,
            recover_after=24,
            churn=4,
        )
        assert report.equivalent, report.summary()
        assert report.buffered_packets == report.delivered_packets
        assert report.flows_restored + report.flows_rebuilt > 0
        # the shared aggregate counted every offered packet exactly once
        assert aggregate.packets == len(packets)

    def test_flows_born_after_last_checkpoint_rebuild_from_log(self):
        """An interval larger than the stream means no flow ever got a
        snapshot — recovery is pure log replay, and still equivalent."""
        __, pool, aggregate = shared_state()
        packets = workload(flows=12, packets_per_flow=6)
        report = verify_equivalence_failover(
            reference_chain,
            packets,
            kill_at=len(packets) // 3,
            cluster_chain_factory=cluster_chain_factory(pool, aggregate),
            replicas=2,
            checkpoint_interval=10 * len(packets),
            recover_after=10,
        )
        assert report.equivalent, report.summary()
        assert report.flows_restored == 0
        assert report.flows_rebuilt > 0

    def test_completed_flows_are_not_resurrected_by_replay(self):
        """A flow that FINished before the kill must stay finished.

        Its teardown released the shared NAT port (and the per-flow
        idempotency record with it), so rebuilding it from the log
        would re-draw a *different* port from the freed list and leave
        resurrected state under a permuted post-NAT key — the reference
        run has no such flow. Recovery must skip it entirely: killing
        the replica on the stream's last packet, with an interval too
        large for any checkpoint, forces the pure-replay path that used
        to hit this.
        """
        __, pool, aggregate = shared_state()
        specs = [
            FlowSpec.tcp(
                f"10.7.{i}.9",
                f"99.4.0.{i + 1}",
                7000 + i,
                443,
                packets=[2, 3, 8, 8][i],
                handshake=False,
                # the two early-FIN flows release their pool ports
                fin=(i in (1, 2)),
            )
            for i in range(4)
        ]
        packets = TrafficGenerator(specs, interleave="round_robin", seed=0).packets()
        report = verify_equivalence_failover(
            reference_chain,
            packets,
            kill_at=len(packets) - 1,
            cluster_chain_factory=cluster_chain_factory(pool, aggregate),
            replicas=2,
            checkpoint_interval=10 * len(packets),
        )
        assert report.equivalent, report.summary()
        # only flows still live at the kill were rebuilt
        assert report.flows_rebuilt <= 2

    @pytest.mark.parametrize("interval", [8, 10**6])
    @pytest.mark.parametrize("bound", [2, 4])
    def test_an_evicted_flow_is_not_a_closed_flow(self, bound, interval):
        """Regression: recovery used to read the dead replica's
        classifier to decide which flows had closed, so under a bounded
        flow table a flow it had merely evicted lost its checkpoint and
        its log replay (the monitor counted 5 packets of 10).  UDP flows
        never close; only a FIN or RST in the log closes a direction."""
        specs = [
            FlowSpec.udp(f"10.7.{i}.9", f"99.4.0.{i + 1}", 7000 + i, 53, packets=10)
            for i in range(12)
        ]
        packets = TrafficGenerator(specs, interleave="round_robin").packets()
        report = verify_equivalence_failover(
            lambda: [Monitor("mon"), IPFilter("fw")],
            packets,
            kill_at=len(packets) // 2,
            replicas=2,
            checkpoint_interval=interval,
            speedybox_kwargs={"max_tracked_flows": bound},
        )
        assert report.equivalent, report.summary()
        assert report.buffered_packets == report.delivered_packets

    @pytest.mark.parametrize("interval", [1, 8, 10**6])
    def test_a_half_closed_flow_is_live(self, interval):
        """Only the forward side sends FIN; the reverse talked before it
        and talks again after the kill.  One closed direction does not
        finish the flow — also when the reverse was silent between the
        last checkpoint and the FIN (interval 1) — so recovery restores
        and replays it."""
        forward, reverse = [], []
        for i in range(6):
            spec = FlowSpec.tcp(
                f"10.6.{i}.2", f"99.6.0.{i + 1}", 8000 + i, 80, packets=3, fin=True
            )
            forward.append(packets_for_flow(spec))
            reverse.append(
                packets_for_flow(FlowSpec(spec.five_tuple.reversed(), packets=6, payload=b"re"))
            )
        talk = [
            packet
            for step in range(3)
            for i in range(6)
            for packet in (reverse[i][step], forward[i][step])
        ]
        fins = [packets[-1] for packets in forward]
        replies = [packets[step] for step in range(3, 6) for packets in reverse]
        assert all(packet.l4.has_flag(TCP_FIN) for packet in fins)
        report = verify_equivalence_failover(
            lambda: [Monitor("mon"), IPFilter("fw")],
            talk + fins + replies,
            kill_at=len(talk) + len(fins),
            replicas=2,
            checkpoint_interval=interval,
        )
        assert report.equivalent, report.summary()
        assert report.buffered_packets == report.delivered_packets > 0

    def test_recovery_at_end_of_stream(self):
        """recover_after=None leaves the replica dead until the caller
        recovers — buffered traffic is delivered then, still loss-free."""
        __, pool, aggregate = shared_state()
        packets = workload(flows=16, packets_per_flow=8)
        report = verify_equivalence_failover(
            reference_chain,
            packets,
            kill_at=int(len(packets) * 0.75),
            cluster_chain_factory=cluster_chain_factory(pool, aggregate),
            replicas=3,
            checkpoint_interval=8,
        )
        assert report.equivalent, report.summary()
        assert report.buffered_packets > 0


class TestCrashDuringMigration:
    def test_freeze_buffer_is_absorbed_and_delivered_once(self):
        """Killing a replica while one of its flows is frozen mid-migration
        must deliver that freeze buffer exactly once (via recovery) and
        cancel the migration."""
        cluster = ScaleCluster(reference_chain, replicas=4)
        ft = FaultTolerance(cluster, checkpoint_interval=8)
        packets = workload(flows=8, packets_per_flow=8, fin_every=None)
        half = len(packets) // 2
        for packet in packets[:half]:
            cluster.process(packet)

        key = sorted(cluster.flow_homes())[0]
        home = cluster.home_of(key)
        cluster.begin_migration(key)
        frozen = [
            p for p in packets[half:] if p.five_tuple().canonical() == key
        ][:2]
        for packet in frozen:
            assert cluster.process(packet) is None  # buffered by the freeze

        ft.kill(home)
        assert ft.dead[home].frozen_absorbed == len(frozen)
        assert not cluster._freeze_groups  # migration cancelled

        # completing the cancelled migration must refuse, not double-replay
        survivor = sorted(cluster.replicas)[0]
        with pytest.raises(MigrationError):
            cluster.complete_migration(key, survivor)

        report = ft.recover(home)
        assert report.packets_delivered >= len(frozen)
        total = sum(
            replica.runtime.nfs[1].total_packets()
            for replica in cluster.replicas.values()
        )
        assert total == half + len(frozen)  # exactly once, no double delivery

    def test_begin_migration_refuses_dead_home(self):
        cluster = ScaleCluster(reference_chain, replicas=2)
        ft = FaultTolerance(cluster, checkpoint_interval=8)
        packets = workload(flows=4, packets_per_flow=4, fin_every=None)
        for packet in packets:
            cluster.process(packet)
        key = sorted(cluster.flow_homes())[0]
        ft.kill(cluster.home_of(key))
        with pytest.raises(MigrationError):
            cluster.begin_migration(key)


class TestSharedPoolUnderFailover:
    def test_no_port_double_allocation_across_concurrent_failovers(self):
        """Two replicas die back to back; the survivors rebuild their
        flows by replay.  Every flow keeps its original port and no port
        serves two flows — the pinned acceptance property."""
        store, pool, aggregate = shared_state()
        cluster = ScaleCluster(cluster_chain_factory(pool, aggregate), replicas=4)
        ft = FaultTolerance(cluster, checkpoint_interval=12)
        packets = workload(flows=20, packets_per_flow=8, fin_every=None)
        two_thirds = 2 * len(packets) // 3
        for packet in packets[:two_thirds]:
            cluster.process(packet)

        before = pool.allocated()
        victims = sorted(cluster.replicas)[:2]
        for rid in victims:
            ft.kill(rid)
        for packet in packets[two_thirds:]:
            cluster.process(packet)  # buffers against both dead replicas
        reports = ft.recover_all()
        assert len(reports) == 2

        after = pool.allocated()
        assert after == before  # replay re-acquired, never re-allocated
        ports = list(after.values())
        assert len(ports) == len(set(ports))  # no port serves two flows
        # every offered packet went through exactly once
        total = sum(
            replica.runtime.nfs[1].total_packets()
            for replica in cluster.replicas.values()
        )
        assert total == len(packets)
        assert aggregate.packets == len(packets)

    def test_cannot_kill_the_last_replica(self):
        cluster = ScaleCluster(reference_chain, replicas=1)
        ft = FaultTolerance(cluster, checkpoint_interval=8)
        with pytest.raises(FailoverError):
            ft.kill(0)


class TestAuditTrail:
    def test_migration_transfer_records_replayed_count(self):
        """Satellite fix: the migrator's audit event carries how many
        freeze-buffered packets the caller replays on the target."""
        audit = AuditLog()
        cluster = ScaleCluster(reference_chain, replicas=2, audit=audit)
        packets = workload(flows=4, packets_per_flow=6, fin_every=None)
        half = len(packets) // 2
        for packet in packets[:half]:
            cluster.process(packet)
        key = sorted(cluster.flow_homes())[0]
        src = cluster.home_of(key)
        dst = next(rid for rid in cluster.replicas if rid != src)
        cluster.begin_migration(key)
        held = [p for p in packets[half:] if p.five_tuple().canonical() == key][:3]
        for packet in held:
            cluster.process(packet)
        cluster.complete_migration(key, dst)

        transfer = audit.last("migration_transfer")
        assert transfer["replayed"] == len(held)
        replay = audit.last("migration_replay")
        assert replay["buffered"] == replay["replayed"] == len(held)

    def test_failover_emits_the_full_event_sequence(self):
        audit = AuditLog()
        cluster = ScaleCluster(reference_chain, replicas=3, audit=audit)
        ft = FaultTolerance(cluster, checkpoint_interval=8)
        packets = workload(flows=9, packets_per_flow=8, fin_every=None)
        for packet in packets[: 2 * len(packets) // 3]:
            cluster.process(packet)
        victim = ft.kill()
        for packet in packets[2 * len(packets) // 3:]:
            cluster.process(packet)
        ft.recover(victim)

        counts = audit.counts()
        for kind in ("ft_checkpoint", "ft_kill", "ft_buffer", "ft_restore",
                     "ft_replay", "ft_failover_complete"):
            assert counts.get(kind, 0) > 0, f"missing {kind} events"
        complete = audit.last("ft_failover_complete")
        assert complete["replica"] == victim
        assert complete["delivered"] == ft.packets_buffered
