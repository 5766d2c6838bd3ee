"""The differential runner: one reference, steps that fire or are rejected,
and churn that moves a connection whole."""

import pytest

from repro.cli import build_chain, make_trace_packets, pooled_chain_factory
from repro.core import ServiceChain, verify_equivalence
from repro.core.verification import (
    Churn,
    Cluster,
    Kill,
    Migrate,
    Recover,
    differential,
)
from repro.ft import verify_equivalence_failover
from repro.nf import IPFilter, MazuNAT, Monitor
from repro.scale import ScaleCluster, chain_state_snapshot
from repro.traffic import FlowSpec, TrafficGenerator


def stream(flows=3, packets=11):
    specs = [
        FlowSpec.tcp(f"10.2.{i}.7", f"99.7.0.{i + 1}", 4100 + i, 80, packets=packets,
                     payload=b"d%d" % i, handshake=True)
        for i in range(flows)
    ]
    return TrafficGenerator(specs, interleave="round_robin").packets()


def chain():
    return [Monitor("mon"), IPFilter("fw")]


class TestStepsFireOrAreRejected:
    """A step at an index the stream never reaches used to be dropped
    silently, and the run still reported EQUIVALENT."""

    def test_an_intervention_past_the_stream(self):
        packets = stream()
        called = []
        with pytest.raises(ValueError, match=f"outside the {len(packets)}-packet stream"):
            verify_equivalence(chain, packets, interventions={len(packets) + 2: called.append})
        assert not called

    def test_a_churn_past_the_stream(self):
        packets = stream()
        with pytest.raises(ValueError, match="outside"):
            verify_equivalence_failover(chain, packets, kill_at=20, replicas=2, churn=2,
                                        churn_at=len(packets) + 10)

    def test_a_migration_past_the_stream(self):
        with pytest.raises(ValueError, match="outside"):
            differential(chain, stream(), Cluster(1), {-1: Migrate()})

    def test_a_kill_past_the_stream(self):
        packets = stream()
        with pytest.raises(ValueError, match="outside"):
            differential(chain, packets, Cluster(2), {len(packets): Kill()})

    def test_a_recovery_past_the_stream(self):
        packets = stream()
        with pytest.raises(ValueError, match="outside"):
            differential(chain, packets, Cluster(2), {5: Kill(), len(packets) + 3: Recover()})

    def test_a_recovery_with_nothing_dead(self):
        with pytest.raises(ValueError, match="no dead replica"):
            differential(chain, stream(), Cluster(2), {5: Recover(), 9: Kill()})

    def test_a_cluster_step_without_a_cluster(self):
        with pytest.raises(ValueError, match="needs system=Cluster"):
            differential(chain, stream(), steps={5: Churn(2)})

    def test_each_step_of_a_list_fires_in_order(self):
        fired = []
        packets = stream()
        report = differential(chain, packets, Cluster(2), {
            3: [lambda *_: fired.append("a"), lambda *_: fired.append("b")],
            10: Kill(), 20: [Churn(2), Recover()],
        })
        assert report.equivalent, report.summary()
        assert fired == ["a", "b"] and report.killed_replica is not None
        assert report.buffered_packets == report.delivered_packets > 0


class TestTheReferenceIsTheOriginalChain:
    def test_the_failover_oracle_sees_a_fault_the_fast_path_shares(self):
        """Monitor upstream of a NAT counts the rewritten tuple on every
        SpeedyBox (ROADMAP item 17); a SpeedyBox reference shared it."""
        packets = stream()
        report = verify_equivalence_failover(
            lambda: [Monitor("mon"), MazuNAT("nat")], packets, kill_at=20, replicas=2,
        )
        assert {d.kind for d in report.divergences} == {"state"}
        assert all(", mon: " in d.detail for d in report.divergences)

    def test_a_migration_keeps_the_counters_of_a_plain_speedybox(self):
        packets = stream()
        report = differential(chain, packets, Cluster(1), {12: Migrate(freeze_for=4)})
        assert report.equivalent, report.summary()
        assert report.migration is not None and report.buffered_packets > 0
        plain = verify_equivalence(chain, packets)
        assert (report.fast_packets, report.slow_packets) == (plain.fast_packets, plain.slow_packets)


CHURNED = ["maglev,monitor", "nat,maglev", "nat,maglev,monitor,firewall"]


@pytest.mark.parametrize("replicas", [2, 4])
@pytest.mark.parametrize("spec", CHURNED)
def test_churn_moves_a_rewritten_connection_whole(spec, replicas):
    """Behind Maglev, a churned egress alias used to migrate on its own
    (no FIDs, one NF state), splitting the connection's state across two
    replicas: Monitor read 4 + 4 packets where the original chain read 8."""
    packets = make_trace_packets(40, 1)
    reference = ServiceChain(build_chain(spec))
    cluster = ScaleCluster(pooled_chain_factory(spec), replicas=replicas)
    for index, packet in enumerate(packets):
        if index == 150:
            assert cluster.churn_flows(8, seed=7)
        reference.process(packet.clone())
        cluster.process(packet.clone())
    for key, home in sorted(cluster.flow_homes().items()):
        assert chain_state_snapshot(cluster.replica(home).runtime.nfs, key) == \
            chain_state_snapshot(reference.nfs, key), key
