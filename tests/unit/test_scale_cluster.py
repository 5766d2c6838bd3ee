"""Unit tests for the scale layer: merge semantics, the cluster's
dispatch/freeze/elasticity mechanics, and the autoscaler's watermarks."""

import pytest

import repro.platform.base as platform_base
from repro.core.actions import Modify
from repro.ft import FaultInjector, FaultTolerance
from repro.nf import IPFilter, MazuNAT, Monitor, SyntheticNF
from repro.obs import PacketTracer
from repro.obs.registry import MetricsRegistry
from repro.obs.signals import ClusterSignals, SignalSample
from repro.platform.base import LoadResult
from repro.scale import Autoscaler, AutoscalerConfig, MigrationError, ScaleCluster
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
        total = a.merge(b)
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
        for total in (a.merge(b), LoadResult.merged([a, b])):
            assert total.latencies_ns.tolist() == [1.0, 2.0, 30.0, 40.0]
            assert total.offered == 4 and total.makespan_ns == 20.0
        assert a.latencies_ns.tolist() == [1.0, 2.0]

    def test_percentiles_come_from_the_merged_population(self):
        """The merged p99 is computed over the concatenated samples — it
        is *not* any combination of the parts' own percentiles."""
        fast = LoadResult(1, 1, 0, 100.0, [1.0] * 99)
        slow = LoadResult(1, 1, 0, 100.0, [1000.0])
        total = fast.merge(slow)
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
        folded = parts[0].merge(parts[1]).merge(parts[2]).merge(parts[3])
        assert total == folded

    def test_merged_of_nothing_is_the_empty_result(self):
        total = LoadResult.merged([])
        assert total == LoadResult(0, 0, 0, 0.0, [])
        assert total.latencies_ns.dtype.name == "float64"
        assert total.latency_percentile(0.99) == 0.0

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

    def test_scale_out_rehomes_to_match_table(self):
        cluster = ScaleCluster(build_chain, replicas=2, buckets=64)
        for packet in trace(flows=24):
            cluster.process(packet)
        rid = cluster.scale_out()
        assert cluster.replica_count == 3
        for key, home in cluster.flow_homes().items():
            assert cluster.sharder.replica_for(key) == home
        assert any(home == rid for home in cluster.flow_homes().values())

    def test_scale_in_drains_the_retired_replica(self):
        cluster = ScaleCluster(build_chain, replicas=3, buckets=64)
        for packet in trace(flows=24):
            cluster.process(packet)
        retired = cluster.scale_in()
        assert retired == 2
        assert cluster.replica_count == 2
        assert all(home != retired for home in cluster.flow_homes().values())

    def test_scale_in_below_one_rejected(self):
        cluster = ScaleCluster(build_chain, replicas=1)
        with pytest.raises(MigrationError):
            cluster.scale_in()

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

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ScaleCluster(build_chain, platform="dpdk")
        with pytest.raises(ValueError):
            ScaleCluster(build_chain, replicas=0)
        for cores in (0, -2):
            with pytest.raises(ValueError, match="physical_cores"):
                ScaleCluster(build_chain, physical_cores=cores)

    @pytest.mark.parametrize("gap", [-1, float("nan"), float("inf")])
    def test_run_load_rejects_a_bad_gap_before_any_packet(self, gap):
        """A negative gap used to run as saturation, silently."""
        cluster = ScaleCluster(build_chain, replicas=2)
        with pytest.raises(ValueError, match="inter_arrival_ns"):
            cluster.run_load(trace(flows=4), inter_arrival_ns=gap)
        assert not cluster.flow_homes()
        assert all(r.platform.packets == 0 for r in cluster.replicas.values())


def sample(ring=0.0, cores=0.0, p99=0.0, mpps=1.0, replicas=2):
    return SignalSample(
        ring_occupancy=ring,
        core_utilisation=cores,
        p99_latency_ns=p99,
        throughput_mpps=mpps,
        replicas=replicas,
    )


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
        # per flow: its first packet's slow-path plan, its steady plan
        assert sum(plan_calls.values()) == 2 * self.FLOWS
        assert all(calls > 0 for calls in plan_calls.values())
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
            assert numbers[rid] == list(range(platform.packets))


class TestAutoscalerDecisions:
    def make(self, replicas=2, **cfg):
        cluster = ScaleCluster(lambda: [Monitor("mon")], replicas=replicas)
        return Autoscaler(cluster, AutoscalerConfig(**cfg))

    def test_high_ring_occupancy_scales_out(self):
        scaler = self.make()
        decision = scaler.evaluate(sample(ring=0.9))
        assert decision.action == +1
        assert "ring occupancy" in decision.reason

    def test_high_core_utilisation_scales_out(self):
        decision = self.make().evaluate(sample(cores=0.95))
        assert decision.action == +1
        assert "core utilisation" in decision.reason

    def test_p99_slo_trigger_only_when_configured(self):
        assert self.make().evaluate(sample(ring=0.3, cores=0.5, p99=9e9)).action == 0
        decision = self.make(high_p99_ns=1e6).evaluate(
            sample(ring=0.3, cores=0.5, p99=2e6)
        )
        assert decision.action == +1
        assert "p99" in decision.reason

    def test_idle_scales_in_only_when_all_signals_low(self):
        scaler = self.make()
        assert scaler.evaluate(sample(ring=0.05, cores=0.05)).action == -1
        # One low signal alone is not idleness.
        assert scaler.evaluate(sample(ring=0.05, cores=0.5)).action == 0

    def test_bounds_respected(self):
        at_max = self.make(replicas=2, max_replicas=2)
        decision = at_max.evaluate(sample(ring=0.9))
        assert decision.action == 0
        assert "at max_replicas" in decision.reason
        at_min = self.make(replicas=1, min_replicas=1)
        assert at_min.evaluate(sample(ring=0.0, cores=0.0)).action == 0

    def test_cooldown_suppresses_action(self):
        scaler = self.make(cooldown_windows=2)
        scaler._windows_since_action = 0
        decision = scaler.evaluate(sample(ring=0.9))
        assert decision.action == 0
        assert decision.reason == "cooldown"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_replicas=3, max_replicas=2)


class TestAutoscalerLoop:
    def test_step_scales_out_under_pressure_then_cools_down(self):
        metrics = MetricsRegistry()
        cluster = ScaleCluster(
            build_chain, platform="onvm", replicas=1, metrics=metrics
        )
        scaler = Autoscaler(
            cluster,
            AutoscalerConfig(high_core_utilisation=0.0, cooldown_windows=1),
        )
        packets = trace(flows=8)
        first = scaler.step(packets_clone(packets), inter_arrival_ns=10.0)
        assert first.action == +1
        assert cluster.replica_count == 2
        second = scaler.step(packets_clone(packets), inter_arrival_ns=10.0)
        assert second.action == 0
        assert second.reason == "cooldown"
        third = scaler.step(packets_clone(packets), inter_arrival_ns=10.0)
        assert third.action == +1
        assert cluster.replica_count == 3
        assert [d.replicas_after for d in scaler.decisions] == [2, 2, 3]

    def test_step_scales_in_when_idle(self):
        cluster = ScaleCluster(build_chain, platform="bess", replicas=3)
        scaler = Autoscaler(
            cluster,
            AutoscalerConfig(
                low_ring_occupancy=1.0,
                low_core_utilisation=1.0,
                high_ring_occupancy=1.1,
                high_core_utilisation=1.1,
                cooldown_windows=0,
            ),
        )
        packets = trace(flows=4, packets=2)
        scaler.step(packets_clone(packets), inter_arrival_ns=1e6)
        assert cluster.replica_count == 2
        scaler.step(packets_clone(packets), inter_arrival_ns=1e6)
        assert cluster.replica_count == 1

    def test_signal_sample_describe(self):
        text = sample(ring=0.5, cores=0.25, p99=1500.0).describe()
        assert "50%" in text and "25%" in text and "1.5us" in text

    def test_cluster_signals_validation(self):
        with pytest.raises(ValueError):
            ClusterSignals(MetricsRegistry(), ring_capacity=0)


class TestAutoscalerHealth:
    """Health-aware decisions: critical pressure and the scale-in veto."""

    def feed(self, ts, replica=0, drops=0):
        for i in range(16):
            ts.record(
                float(i),
                latency_ns=None if i < drops else 100.0,
                replica=replica,
                dropped=(i < drops),
            )

    def make(self, replicas=3, drops_by_replica=(), **cfg):
        from repro.obs import HealthModel, TimeSeries

        ts = TimeSeries(window_packets=16)
        health = HealthModel(timeseries=ts)
        for replica, drops in enumerate(drops_by_replica):
            self.feed(ts, replica=replica, drops=drops)
        cluster = ScaleCluster(lambda: [Monitor("mon")], replicas=replicas)
        return Autoscaler(cluster, AutoscalerConfig(**cfg), health=health)

    def test_critical_replica_is_scale_out_pressure(self):
        scaler = self.make(drops_by_replica=(0, 4))  # 25% drops -> CRITICAL
        decision = scaler.evaluate(sample(ring=0.3, cores=0.5, replicas=3))
        assert decision.action == +1
        assert "critical replicas: 1" in decision.reason

    def test_degraded_replica_vetoes_scale_in_without_pressure(self):
        scaler = self.make(drops_by_replica=(0, 1))  # 6% drops -> DEGRADED
        decision = scaler.evaluate(sample(ring=0.05, cores=0.05, replicas=3))
        assert decision.action == 0
        assert "scale-in vetoed: unhealthy replicas 1" in decision.reason

    def test_healthy_cluster_scales_in_normally(self):
        scaler = self.make(drops_by_replica=(0, 0))
        decision = scaler.evaluate(sample(ring=0.05, cores=0.05, replicas=3))
        assert decision.action == -1

    def test_step_audits_cluster_health(self):
        from repro.obs import HealthModel, TimeSeries
        from repro.obs.health import DEGRADED

        ts = TimeSeries(window_packets=16)
        health = HealthModel(timeseries=ts)
        from repro.obs.audit import AuditLog

        self.feed(ts, replica=0, drops=1)  # DEGRADED before the window runs
        cluster = ScaleCluster(build_chain, replicas=2, audit=AuditLog())
        scaler = Autoscaler(
            cluster,
            AutoscalerConfig(
                low_ring_occupancy=0.0, low_core_utilisation=0.0, cooldown_windows=0
            ),
            health=health,
        )
        scaler.step(packets_clone(trace(flows=4, packets=2)), inter_arrival_ns=1e6)
        events = cluster.audit.events("autoscale_decision")
        assert len(events) == 1
        assert events[0]["cluster_health"] == DEGRADED
