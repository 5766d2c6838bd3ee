"""A checkpoint round tries only the flows that can have state.

The cluster never forgets where a flow was homed, also after the flow
closed with a FIN, so a round that tried every homed key would grow
with the run's history.  :class:`~repro.ft.checkpoint.CheckpointManager`
skips a key it found without state until the key is dispatched again
(a recovery's replays and deliveries included).  Under connection churn
— sequential four-packet TCP flows with handshake and FIN through
NAT → Monitor → IPFilter on four ONVM replicas, 32-packet checkpointing,
and a replica killed while a closed tuple opens again on it — this file
checks, by counts, that

1. per round, the keys tried are at most the flows captured plus the
   keys dispatched to that replica since its last round;
2. after every round the stored snapshots, the ``ft_checkpoint`` audit
   events and the counts equal those of the exhaustive round, which
   tries every homed key with a full ``capture_flow`` — also for a flow
   whose one packet starts a round, a skipped key another connection
   revives, and ``repro scale`` with migration churn and a kill over
   NATs that share no port pool.
"""

from __future__ import annotations

import pytest

from repro.ft import (
    FaultInjector,
    FaultTolerance,
    SharedAggregate,
    SharedPortPool,
    TransactionalStore,
    capture_flow,
)
from repro.ft.checkpoint import CheckpointManager, _checkpoint_of
from repro.nf import IPFilter, MazuNAT, Monitor
from repro.obs.audit import AuditLog
from repro.scale import ScaleCluster
from repro.traffic import FlowSpec, TrafficGenerator
from tests.property.test_checkpoint_refresh_oracle import checkpoint_view

INTERVAL = 32
REPLICAS = 4


PORTS = (20000, 60000)


def chain_factory():
    """Replica chains over one transactional store: NAT ports from a
    shared pool (no two replicas hand out one port), monitor totals in
    a shared aggregate."""
    store = TransactionalStore()
    pool = SharedPortPool(store, port_range=PORTS)
    aggregate = SharedAggregate(store, name="mon_total")

    def chain():
        return [
            MazuNAT("nat", external_ip="203.0.113.80", port_range=PORTS, port_pool=pool),
            Monitor("mon", aggregate=aggregate),
            IPFilter("fw"),
        ]

    return chain


class ExhaustiveManager(CheckpointManager):
    """The round as it was: a full capture of every homed key."""

    attempts = 0

    def snapshot_replica(self, replica_id, log_seq, cause="interval"):
        runtime = self.cluster.replicas[replica_id].runtime
        seen = set()
        captured = 0
        for key in sorted(self.cluster.flows_homed_on(replica_id)):
            if key in seen:
                continue
            self.attempts += 1
            checkpoint = capture_flow(runtime, key, replica_id=replica_id, log_seq=log_seq)
            if checkpoint is None:
                self.drop_flow(key)
                seen.add(key)
                continue
            seen.update(direction.canonical() for direction in checkpoint.directions)
            self.store(checkpoint)
            captured += 1
        self.checkpoints_taken += 1
        self.audit.emit(
            "ft_checkpoint", replica=replica_id, flows=captured, log_seq=log_seq, cause=cause
        )
        return captured


class Run:
    """One cluster under fault tolerance, every round recorded."""

    def __init__(
        self, exhaustive: bool, injector: FaultInjector, factory=None, interval=INTERVAL
    ):
        self.cluster = ScaleCluster(
            factory or chain_factory(), platform="onvm", replicas=REPLICAS
        )
        self.ft = FaultTolerance(
            self.cluster,
            checkpoint_interval=interval,
            injector=injector,
            audit=AuditLog(),
        )
        if exhaustive:
            self.ft.checkpoints = ExhaustiveManager(self.cluster, audit=self.ft.audit)
        manager = self.manager = self.ft.checkpoints
        #: capture attempts (a refresh or a full capture of one key)
        manager.attempts = 0
        if not exhaustive:
            real_capture = manager._capture

            def counted_capture(*args):
                manager.attempts += 1
                return real_capture(*args)

            manager._capture = counted_capture
        #: replica -> keys dispatched to it since its last round
        self.dispatched = {rid: set() for rid in range(REPLICAS)}
        #: per round: (replica, attempts, flows captured, keys dispatched)
        self.rounds = []
        #: per round: every stored snapshot, by value
        self.stored = []

        real_dispatch = self.ft.note_dispatch
        real_round = self.ft.checkpoint_replica

        def note_dispatch(packet, key, replica_id):
            self.dispatched[replica_id].add(key)
            real_dispatch(packet, key, replica_id)

        def checkpoint_replica(replica_id, cause="manual"):
            before = manager.attempts
            captured = real_round(replica_id, cause=cause)
            attempts = manager.attempts - before
            self.rounds.append(
                (replica_id, attempts, captured, len(self.dispatched[replica_id]))
            )
            self.dispatched[replica_id] = set()
            self.stored.append(
                {
                    key: checkpoint_view(_checkpoint_of(filed))
                    for key, filed in sorted(manager._snapshots.items())
                }
            )
            return captured

        self.ft.note_dispatch = note_dispatch
        self.ft.checkpoint_replica = checkpoint_replica

    def run(self, packets) -> None:
        for packet in packets:
            self.cluster.process(packet.clone())


def churn(flows: int):
    """Sequential short connections, each closed by its FIN."""
    specs = [
        FlowSpec.tcp(
            f"10.3.{i // 250}.{i % 250 + 1}",
            f"99.2.{i // 250}.{i % 250 + 1}",
            6000 + i,
            80,
            packets=2,
            handshake=True,
            fin=True,
        )
        for i in range(flows)
    ]
    return TrafficGenerator(specs, interleave="sequential").packets()


def reopened_during_outage(flows: int):
    """Churn, then a replica dies; while it is dead one of its tuples
    that closed long ago opens again, and recovery delivers it."""
    packets = churn(flows)
    probe = ScaleCluster(chain_factory(), platform="onvm", replicas=REPLICAS)
    reused = packets[4 * 3].five_tuple()  # flow 3: closed in the first round's era
    victim = probe.sharder.replica_for(reused)
    kill_at = len(packets)
    again = TrafficGenerator(
        [FlowSpec(reused, packets=3, payload=b"again")], interleave="sequential"
    ).packets()
    # A longer flow opens first and holds the NAT port every churned flow
    # took in turn until after recovery, so the reopened tuple egresses
    # on a port of its own.
    holder = TrafficGenerator(
        [FlowSpec.tcp("10.4.0.1", "99.4.0.1", 7000, 80, packets=12, handshake=True, fin=True)]
    ).packets()
    tail = churn(flows + 40)[4 * flows :]

    def injector():
        armed = FaultInjector(kill_at=kill_at, recover_after=len(again) + 6)
        armed.replica = victim
        return armed

    return packets + holder[:2] + again + holder[2:] + tail, injector


def run_both(packets, injector_factory):
    refreshing = Run(exhaustive=False, injector=injector_factory())
    exhaustive = Run(exhaustive=True, injector=injector_factory())
    refreshing.run(packets)
    exhaustive.run(packets)
    return refreshing, exhaustive


def assert_same_as_exhaustive(refreshing: Run, exhaustive: Run) -> None:
    assert len(refreshing.stored) == len(exhaustive.stored) > 0
    for index, (ours, theirs) in enumerate(zip(refreshing.stored, exhaustive.stored)):
        assert ours == theirs, f"round {index}"
    assert [
        (replica, captured) for replica, __, captured, __ in refreshing.rounds
    ] == [(replica, captured) for replica, __, captured, __ in exhaustive.rounds]
    assert refreshing.ft.audit.events("ft_checkpoint") == exhaustive.ft.audit.events(
        "ft_checkpoint"
    )


def assert_bounded(run: Run) -> None:
    for replica, attempts, captured, dispatched in run.rounds:
        assert attempts <= captured + dispatched, (replica, attempts, captured, dispatched)


@pytest.mark.parametrize("flows", [120, 240])
def test_a_round_tries_only_keys_that_can_have_state(flows):
    refreshing, exhaustive = run_both(churn(flows), FaultInjector)
    assert_same_as_exhaustive(refreshing, exhaustive)
    assert_bounded(refreshing)
    # the exhaustive round retries every closed key, every round
    assert refreshing.manager.attempts < exhaustive.manager.attempts


def test_a_flow_whose_only_packet_starts_a_round_is_captured_later():
    """The round runs when a packet is dispatched, before the packet is
    processed: a new flow's key is found without state then, and must
    not be skipped for it.  (No NAT: no egress key covers the flow.)"""
    specs = [
        FlowSpec.udp(f"10.6.{i // 250}.{i % 250 + 1}", "99.6.0.1", 5000 + i, 53, packets=1)
        for i in range(160)
    ]
    packets = TrafficGenerator(specs, interleave="sequential").packets()
    runs = []
    for exhaustive in (False, True):
        run = Run(
            exhaustive, FaultInjector(), factory=lambda: [Monitor("mon"), IPFilter("fw")], interval=8
        )
        run.run(packets)
        runs.append(run)
    refreshing, exhaustive = runs
    assert_same_as_exhaustive(refreshing, exhaustive)
    assert_bounded(refreshing)


def test_attempts_that_find_nothing_do_not_grow_with_history():
    """Doubling the run doubles the exhaustive round's attempts that find
    no state, per round; the skipping round's stay flat.  (Closed flows
    whose monitor counters remain still have state, so the flows
    captured per round grow in both.)"""
    wasted = {}
    for flows in (120, 240):
        refreshing, exhaustive = run_both(churn(flows), FaultInjector)
        wasted[flows] = [
            sum(attempts - captured for __, attempts, captured, __ in run.rounds) / len(run.rounds)
            for run in (refreshing, exhaustive)
        ]
    assert wasted[240][1] > 1.5 * wasted[120][1]
    assert wasted[240][0] < 1.2 * wasted[120][0]


def test_a_closed_tuple_reused_during_an_outage_is_captured_after_recovery():
    packets, injector = reopened_during_outage(80)
    refreshing, exhaustive = run_both(packets, injector)
    assert refreshing.ft.recoveries and refreshing.ft.packets_buffered > 0
    assert_same_as_exhaustive(refreshing, exhaustive)
    assert_bounded(refreshing)
    reused = packets[4 * 3].five_tuple().canonical()
    stored = refreshing.manager.snapshot_for(reused)
    assert stored is not None and stored.records
    causes = [event["cause"] for event in refreshing.ft.audit.events("ft_checkpoint")]
    assert causes.count("post_recovery") == REPLICAS - 1


def test_a_skipped_key_revived_by_another_connection_keeps_its_round_order():
    """A closed connection's return key stays homed after a recovery
    restored it; the next connection on that replica that draws the same
    NAT port revives the key, which sorts before the new connection's
    own.  The round then takes every key in order, as the exhaustive
    round does, so the flow is stored under the same primary key."""

    def nat_only():
        pool = SharedPortPool(TransactionalStore(), port_range=PORTS)
        return lambda: [MazuNAT("nat", external_ip="9.9.9.9", port_range=PORTS, port_pool=pool)]

    def connection(host: int):
        spec = FlowSpec.tcp(f"10.3.0.{host}", "99.2.0.1", 6000 + host, 80, packets=3,
                            handshake=True, fin=True)
        return TrafficGenerator([spec]).packets()

    closing = connection(1)
    runs = []
    for exhaustive in (False, True):
        run = Run(exhaustive, FaultInjector(), factory=nat_only(), interval=10**9)
        run.run(closing[:3])
        home = run.cluster.home_of(closing[0].five_tuple())
        run.ft.checkpoint_replica(home)
        run.ft.kill(home)
        run.ft.recover(home)  # restores every direction's home
        survivor = run.cluster.home_of(closing[0].five_tuple())
        run.run(closing[3:])
        run.ft.checkpoint_replica(survivor)  # both keys found without state
        reviving = next(
            packets
            for packets in map(connection, range(2, 250))
            if run.cluster.sharder.replica_for(packets[0].five_tuple()) == survivor
        )
        run.run(reviving[:3])
        run.ft.checkpoint_replica(survivor)
        runs.append(run)
    refreshing, exhaustive = runs
    assert_same_as_exhaustive(refreshing, exhaustive)
    (checkpoint,) = refreshing.manager._snapshots.values()
    assert checkpoint.flow < reviving[0].five_tuple().canonical()


def test_scale_churn_and_kill_checkpoint_like_the_exhaustive_round(tmp_path, monkeypatch):
    """``repro scale`` with migration churn and a kill, whose NATs share
    no port pool: migrated connections collide on a NAT port, and one
    connection's teardown on the fast path changes another's walk.  The
    refreshing rounds leave the audit journal the exhaustive rounds do."""
    import json

    import repro.ft.failover as failover
    from repro.cli import main

    argv = ["scale", "--replicas", "4", "--kill-at", "500", "--checkpoint-every", "8",
            "--churn", "6", "--seed", "11"]

    def journal(name):
        assert main(argv + ["--obs-out", str(tmp_path / name)]) == 0
        lines = (tmp_path / name / "audit.jsonl").read_text().splitlines()
        return [event for event in map(json.loads, lines) if event["kind"] == "ft_checkpoint"]

    refreshing = journal("refreshing")
    monkeypatch.setattr(failover, "CheckpointManager", ExhaustiveManager)
    assert journal("exhaustive") == refreshing
