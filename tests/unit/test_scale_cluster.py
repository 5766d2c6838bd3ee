"""Unit tests for the scale layer: merge semantics and the cluster's
dispatch, freeze and scale-out mechanics."""

import pytest

import repro.platform.base as platform_base
from repro.core.actions import Modify
from repro.ft import FaultInjector, FaultTolerance
from repro.nf import IPFilter, MazuNAT, Monitor, SyntheticNF
from repro.obs import AuditLog, ForensicsEngine, PacketTracer
from repro.platform.base import LoadResult
from repro.scale import MigrationError, ScaleCluster
from repro.stats.summary import percentile
from repro.traffic import FlowSpec, TrafficGenerator


def build_chain():
    return [
        MazuNAT("nat", external_ip="203.0.113.50", port_range=(30000, 60000)),
        Monitor("mon"),
        IPFilter("fw"),
    ]


def trace(flows=16, packets=6, seed=5):
    specs = [
        FlowSpec.tcp(
            f"10.9.{i}.4", f"99.1.0.{i + 1}", 5000 + i, 443, packets=packets
        )
        for i in range(flows)
    ]
    return TrafficGenerator(specs, interleave="round_robin", seed=seed).packets()


class TestLoadResultMerge:
    def test_counts_add_and_samples_concatenate(self):
        a = LoadResult(offered=4, delivered=3, dropped=1, makespan_ns=100.0,
                       latencies_ns=[10.0, 20.0, 30.0])
        b = LoadResult(offered=2, delivered=2, dropped=0, makespan_ns=250.0,
                       latencies_ns=[500.0, 600.0])
        total = LoadResult.merged([a, b])
        assert total.offered == 6
        assert total.delivered == 5
        assert total.dropped == 1
        assert total.makespan_ns == 250.0
        assert total.latencies_ns.tolist() == [10.0, 20.0, 30.0, 500.0, 600.0]

    def test_equal_length_columns_concatenate_not_add(self):
        """Two columns of one length: ``+`` on ndarrays would add them
        element-wise and still have the right length."""
        a = LoadResult(2, 2, 0, 10.0, [1.0, 2.0])
        b = LoadResult(2, 2, 0, 20.0, [30.0, 40.0])
        total = LoadResult.merged([a, b])
        assert total.latencies_ns.tolist() == [1.0, 2.0, 30.0, 40.0]
        assert total.offered == 4 and total.makespan_ns == 20.0
        assert a.latencies_ns.tolist() == [1.0, 2.0]

    def test_percentiles_come_from_the_merged_population(self):
        """The merged p99 is computed over the concatenated samples — it
        is *not* any combination of the parts' own percentiles."""
        fast = LoadResult(1, 1, 0, 100.0, [1.0] * 99)
        slow = LoadResult(1, 1, 0, 100.0, [1000.0])
        total = LoadResult.merged([fast, slow])
        assert total.latency_percentile(0.99) == percentile([1.0] * 99 + [1000.0], 0.99)
        # Averaging the parts' p99s (500.5) would be wrong; the merged
        # population's p99 is still a fast sample.
        assert total.latency_percentile(0.99) == 1.0

    def test_merged_folds_many(self):
        parts = [LoadResult(1, 1, 0, float(i), [float(i)]) for i in range(1, 5)]
        total = LoadResult.merged(parts)
        assert total.offered == 4
        assert total.makespan_ns == 4.0
        assert total.latencies_ns.tolist() == [1.0, 2.0, 3.0, 4.0]
        folded = parts[0]
        for part in parts[1:]:
            folded = LoadResult.merged([folded, part])
        assert total == folded

    def test_merged_of_nothing_is_the_empty_result(self):
        total = LoadResult.merged([])
        assert total == LoadResult(0, 0, 0, 0.0, [])
        assert total.latencies_ns.dtype.name == "float64"
        assert total.latency_percentile(0.99) is None

    def test_merge_matches_concatenated_run(self):
        """Sharding a stream over two replicas and merging equals one
        run over the same packets, sample-for-sample (same functional
        work, populations equal as multisets)."""
        packets = trace(flows=8)
        single = ScaleCluster(build_chain, platform="onvm", replicas=1)
        sharded = ScaleCluster(build_chain, platform="onvm", replicas=2)
        one = single.run_load(packets_clone(packets), inter_arrival_ns=500.0)
        two = sharded.run_load(packets_clone(packets), inter_arrival_ns=500.0)
        assert two.total.offered == one.total.offered == len(packets)
        assert two.total.delivered + two.total.dropped == len(packets)
        assert len(two.total.latencies_ns) == len(one.total.latencies_ns)
        assert two.total.offered == sum(r.offered for r in two.per_replica.values())


def packets_clone(packets):
    return [packet.clone() for packet in packets]


class TestScaleCluster:
    def test_flows_spread_across_replicas(self):
        cluster = ScaleCluster(build_chain, replicas=4, buckets=128)
        for packet in trace(flows=32):
            cluster.process(packet)
        homes = set(cluster.flow_homes().values())
        assert len(homes) >= 3  # 32 flows over 4 replicas: all but luck

    def test_same_flow_always_same_replica(self):
        cluster = ScaleCluster(build_chain, replicas=3)
        packets = trace(flows=6)
        first = {}
        for packet in packets:
            key = packet.five_tuple().canonical()
            cluster.process(packet)
            home = cluster.flow_homes()[key]
            assert first.setdefault(key, home) == home

    def test_freeze_buffers_and_replay_loses_nothing(self):
        cluster = ScaleCluster(build_chain, replicas=2)
        packets = trace(flows=4, packets=8)
        frozen_flow = packets[0].five_tuple()
        outcomes = [cluster.process(p) for p in packets[:8]]
        assert all(o is not None for o in outcomes)
        cluster.begin_migration(frozen_flow)
        frozen_key = frozen_flow.canonical()
        buffered_now = 0
        for packet in packets[8:24]:
            outcome = cluster.process(packet)
            if packet.five_tuple().canonical() == frozen_key:
                assert outcome is None
                buffered_now += 1
            else:
                assert outcome is not None
        assert buffered_now > 0
        assert cluster.packets_buffered == buffered_now
        dst = 1 - cluster.home_of(frozen_flow)
        report, replayed = cluster.complete_migration(frozen_flow, dst)
        assert len(replayed) == buffered_now
        assert all(outcome is not None for outcome in replayed)
        assert cluster.home_of(frozen_flow) == dst

    def test_run_load_refuses_while_frozen(self):
        cluster = ScaleCluster(build_chain, replicas=2)
        packets = trace(flows=2)
        cluster.process(packets[0])
        cluster.begin_migration(packets[0].five_tuple())
        with pytest.raises(MigrationError):
            cluster.run_load(packets[1:])

    def test_double_freeze_rejected(self):
        cluster = ScaleCluster(build_chain, replicas=2)
        flow = trace(flows=1)[0].five_tuple()
        cluster.begin_migration(flow)
        with pytest.raises(MigrationError):
            cluster.begin_migration(flow.reversed())

    def test_scale_out_adds_an_empty_replica(self):
        """The new replica owns no bucket: no live flow moves, and a flow
        reaches it only by migration."""
        cluster = ScaleCluster(build_chain, replicas=2, buckets=64, audit=AuditLog())
        for packet in trace(flows=24):
            cluster.process(packet)
        homes = cluster.flow_homes()
        buckets = tuple(cluster.sharder.table._buckets)
        rid = cluster.scale_out()
        assert rid == 2 and len(cluster.replicas) == 3
        assert cluster.flow_homes() == homes
        assert tuple(cluster.sharder.table._buckets) == buckets
        event = cluster.audit.last("scale_out")
        assert (event["replica"], event["replicas"]) == (rid, 3)
        key = sorted(homes)[0]
        cluster.migrate_flow(key, rid)
        assert cluster.home_of(key) == rid

    def test_migration_preserves_functional_results(self):
        """Post-migration packets through the cluster match a never-
        migrated cluster byte for byte."""
        packets = trace(flows=6, packets=10)
        plain = ScaleCluster(build_chain, replicas=2)
        churned = ScaleCluster(build_chain, replicas=2)
        plain_stream = packets_clone(packets)
        churn_stream = packets_clone(packets)
        half = len(packets) // 2
        for packet in plain_stream:
            plain.process(packet)
        for packet in churn_stream[:half]:
            churned.process(packet)
        reports = churned.churn_flows(4, seed=3)
        assert reports, "churn should have migrated at least one flow"
        for packet in churn_stream[half:]:
            churned.process(packet)
        for index, (a, b) in enumerate(zip(plain_stream, churn_stream)):
            assert a.dropped == b.dropped, index
            if not a.dropped:
                assert a.serialize() == b.serialize(), index

    def test_churn_skips_flows_homed_on_a_dead_replica(self):
        """A flow whose home was killed and not yet recovered stays put
        (its recovery re-homes it): churning used to raise ``ValueError:
        <rid> is not in list`` looking the dead home up among the live
        replicas."""
        cluster = ScaleCluster(build_chain, replicas=3)
        ft = FaultTolerance(cluster, checkpoint_interval=8)
        for packet in trace(flows=12, packets=4):
            cluster.process(packet)
        dead = ft.kill(0)
        orphans = set(cluster.flows_homed_on(dead))
        assert orphans and dead not in cluster.replicas
        reports = cluster.churn_flows(12, seed=1)
        assert reports, "the live replicas' flows still churn"
        assert set(cluster.flows_homed_on(dead)) == orphans
        ft.recover(dead)
        assert not cluster.flows_homed_on(dead)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ScaleCluster(build_chain, platform="dpdk")
        with pytest.raises(ValueError):
            ScaleCluster(build_chain, replicas=0)
        with pytest.raises(ValueError, match="timeseries"):
            ScaleCluster(build_chain, forensics=ForensicsEngine())

    @pytest.mark.parametrize("gap", [-1, float("nan"), float("inf")])
    def test_run_load_rejects_a_bad_gap_before_any_packet(self, gap):
        """A negative gap used to run as saturation, silently."""
        cluster = ScaleCluster(build_chain, replicas=2)
        with pytest.raises(ValueError, match="inter_arrival_ns"):
            cluster.run_load(trace(flows=4), inter_arrival_ns=gap)
        assert not cluster.flow_homes()
        assert all(r.platform.packets == 0 for r in cluster.replicas.values())


class TestClusterOffersThroughThePlatformsPass:
    """``run_load`` is a router in front of each replica's per-packet
    pass (``Platform._begin_pass``) — counted, not timed."""

    FLOWS, PACKETS_PER_FLOW, REPLICAS = 64, 30, 4

    @staticmethod
    def rewrite_chain():
        return [
            SyntheticNF("ttl", action=Modify.ttl_dec(), sf_payload_class=None),
            SyntheticNF("mark", action=Modify.set(dst_port=8080), sf_payload_class=None),
            SyntheticNF("port", action=Modify.set(src_port=4040), sf_payload_class=None),
        ]

    def steady_packets(self):
        specs = [
            FlowSpec.udp(f"10.3.{i}.1", "20.0.0.1", 6000 + i, 53, packets=self.PACKETS_PER_FLOW)
            for i in range(self.FLOWS)
        ]
        return TrafficGenerator(specs, interleave="round_robin").packets()

    def counted(self, cluster, attribute):
        """Wrap ``platform.<attribute>`` on every replica; returns the
        per-replica call counts, kept up to date as the cluster runs."""
        calls = {rid: 0 for rid in cluster.replicas}

        def wrap(rid, original):
            def counting(*args, **kwargs):
                calls[rid] += 1
                return original(*args, **kwargs)

            return counting

        for rid, replica in cluster.replicas.items():
            setattr(replica.platform, attribute, wrap(rid, getattr(replica.platform, attribute)))
        return calls

    def test_steady_flows_build_one_plan_each_not_one_per_packet(self):
        cluster = ScaleCluster(self.rewrite_chain, replicas=self.REPLICAS)
        plan_calls = self.counted(cluster, "_stage_plan")
        packets = self.steady_packets()
        result = cluster.run_load(packets)
        assert result.total.delivered == len(packets)
        # one plan per report shape across the cluster (its replicas
        # price alike and share what one of them priced): every flow's
        # first packet has one slow-path shape and every steady packet
        # one fast-path shape, so no flow builds a plan of its own
        assert sum(plan_calls.values()) == 2
        assert {rid: r.platform.packets for rid, r in cluster.replicas.items()} == {
            rid: part.offered for rid, part in result.per_replica.items()
        }

    def test_recovery_interleaves_with_the_open_passes(self, monkeypatch):
        """A kill and a recovery mid-window: recovery's replays and
        deliveries are ``cluster.process`` calls made while every
        survivor's pass is open.  Nothing is lost, every platform counts
        exactly the packets it handled, and the tracer numbers them
        without a repeat."""
        cluster = ScaleCluster(self.rewrite_chain, replicas=self.REPLICAS, tracer=PacketTracer())
        platforms = {rid: replica.platform for rid, replica in cluster.replicas.items()}
        process_calls = self.counted(cluster, "process")
        packets = self.steady_packets()
        ft = FaultTolerance(
            cluster,
            checkpoint_interval=32,
            injector=FaultInjector(kill_at=len(packets) // 2, recover_after=len(packets) // 8),
            charge_recovery=False,
        )
        numbers = {rid: [] for rid in platforms}
        by_platform = {id(platform): rid for rid, platform in platforms.items()}
        trace_unloaded = platform_base.trace_unloaded

        def numbered(tracer, platform, report, start_ns, number):
            numbers[by_platform[id(platform)]].append(number)
            return trace_unloaded(tracer, platform, report, start_ns, number)

        monkeypatch.setattr(platform_base, "trace_unloaded", numbered)
        result = cluster.run_load(packets, inter_arrival_ns=200.0)

        (recovery,) = ft.recoveries
        total = result.total
        assert recovery.packets_delivered == ft.packets_buffered > 0
        assert len(packets) == total.delivered + total.dropped + recovery.packets_delivered
        assert recovery.packets_replayed + recovery.packets_delivered == sum(process_calls.values())
        assert process_calls[recovery.replica] == 0
        for rid, platform in platforms.items():
            assert platform.packets == result.per_replica[rid].offered + process_calls[rid]
            assert len(numbers[rid]) == platform.packets
        # the replicas share the tracer and so its one packet count
        assert sorted(n for ns in numbers.values() for n in ns) == list(
            range(sum(platform.packets for platform in platforms.values()))
        )
