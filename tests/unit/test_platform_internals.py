"""Unit tests for platform timing internals (repro.platform.base/bess/onvm)."""

import pytest

from repro.core.framework import ServiceChain, SpeedyBox
from repro.core.state_function import PayloadClass
from repro.nf import Monitor, SyntheticNF
from repro.obs import MetricsRegistry, PacketTracer
from repro.platform import BessPlatform, CostModel, OpenNetVMPlatform, PlatformConfig
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.columnar import uniform_batch
from repro.traffic.generator import clone_packets


def packets(n=4):
    spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000, 80, packets=n, payload=b"x" * 16)
    return TrafficGenerator([spec]).packets()


def parallel_chain(width=3, cycles=1000.0):
    return [
        SyntheticNF(f"s{i}", sf_payload_class=PayloadClass.READ, sf_work_cycles=cycles)
        for i in range(width)
    ]


class TestCycleAccountingInvariants:
    def fast_outcome(self, platform):
        return platform.process_all(clone_packets(packets()))[-1]

    def test_bess_fast_path_work_vs_latency_vs_main(self):
        platform = BessPlatform(SpeedyBox(parallel_chain()))
        outcome = self.fast_outcome(platform)
        # With a parallel wave: total work > wall latency > main-core work.
        assert outcome.work_cycles > outcome.latency_cycles > outcome.main_core_cycles

    def test_slow_path_all_three_equal(self):
        platform = BessPlatform(ServiceChain(parallel_chain()))
        outcome = self.fast_outcome(platform)
        assert outcome.work_cycles == outcome.latency_cycles == outcome.main_core_cycles

    def test_single_batch_wave_runs_inline(self):
        platform = BessPlatform(SpeedyBox([SyntheticNF("only", sf_work_cycles=1000)]))
        outcome = self.fast_outcome(platform)
        # One batch: no fork/join, all three metrics coincide.
        assert outcome.work_cycles == outcome.latency_cycles == outcome.main_core_cycles

    def test_latency_ns_matches_cycles(self):
        platform = BessPlatform(ServiceChain([Monitor("m")]))
        outcome = platform.process(packets(1)[0])
        assert outcome.latency_ns == pytest.approx(
            platform.costs.cycles_to_ns(outcome.latency_cycles)
        )


class TestStagePlans:
    def test_bess_single_stage(self):
        platform = BessPlatform(SpeedyBox(parallel_chain()))
        outcome = platform.process(packets(1)[0])
        plan = platform._stage_plan(outcome.report)
        assert len(plan) == 1
        assert plan[0][0] == 0

    def test_onvm_slow_path_visits_every_nf_stage(self):
        platform = OpenNetVMPlatform(ServiceChain(parallel_chain(3)))
        outcome = platform.process(packets(1)[0])
        plan = platform._stage_plan(outcome.report)
        assert [stage for stage, __ in plan] == [0, 1, 2, 3]

    def test_onvm_fast_path_manager_plus_worker_delay(self):
        platform = OpenNetVMPlatform(SpeedyBox(parallel_chain(3)))
        outcomes = platform.process_all(clone_packets(packets()))
        plan = platform._stage_plan(outcomes[-1].report)
        assert plan[0][0] == 0  # manager
        assert plan[1][0] == 1 + 3  # the worker stage after the NF stages
        assert plan[1][1] > 0

    def test_onvm_fast_path_without_parallel_wave_is_manager_only(self):
        platform = OpenNetVMPlatform(SpeedyBox([Monitor("m")]))
        outcomes = platform.process_all(clone_packets(packets()))
        plan = platform._stage_plan(outcomes[-1].report)
        assert [stage for stage, __ in plan] == [0]

    def test_onvm_drop_truncates_plan(self):
        from repro.nf.ipfilter import AclRule, IPFilter, Verdict

        chain = [IPFilter("fw", rules=[AclRule.make(verdict=Verdict.DROP)]), Monitor("m")]
        platform = OpenNetVMPlatform(ServiceChain(chain))
        outcome = platform.process(packets(1)[0])
        plan = platform._stage_plan(outcome.report)
        assert [stage for stage, __ in plan] == [0, 1]  # monitor never ran


class TestFastPathExtra:
    def test_onvm_charges_tx_ring(self):
        model = CostModel()
        bess = BessPlatform(SpeedyBox([Monitor("m")]))
        onvm = OpenNetVMPlatform(SpeedyBox([Monitor("m")]))
        bess_out = bess.process_all(clone_packets(packets()))[-1]
        onvm_out = onvm.process_all(clone_packets(packets()))[-1]
        assert onvm_out.work_cycles - bess_out.work_cycles == pytest.approx(
            model.ring_enqueue + model.ring_dequeue
        )


class TestDelayStageReplay:
    def test_onvm_fast_rate_not_limited_by_offloaded_waves_alone(self):
        # The manager pipelines while workers run waves: the achieved rate
        # must exceed 1/(manager + wave) even though latency includes both.
        platform = OpenNetVMPlatform(SpeedyBox(parallel_chain(3, cycles=3000)))
        stream = clone_packets(packets(40))
        result = platform.run_load(stream)
        outcome_latency_ns = platform.process_all(clone_packets(packets()))[-1].latency_ns
        rate_bound_by_latency = 1000.0 / outcome_latency_ns  # Mpps if serialised
        assert result.throughput_mpps > rate_bound_by_latency

    def test_run_load_conserves_packets(self):
        platform = OpenNetVMPlatform(SpeedyBox(parallel_chain(2)))
        result = platform.run_load(clone_packets(packets(25)))
        assert result.offered == 25
        assert len(result.latencies_ns) == 25
        assert all(latency > 0 for latency in result.latencies_ns)


class TestTimestampValidation:
    @pytest.mark.parametrize("attached", ["nothing", "registry", "tracer"])
    def test_decreasing_timestamp_raises_before_any_packet_is_processed(self, attached):
        """Arrival gaps are validated up front on every route: a bad
        trace must not leave a half-run behind in the runtime's tables
        or the registry's counters."""
        registry = MetricsRegistry(enabled=attached == "registry")
        tracer = PacketTracer(enabled=attached == "tracer")
        runtime = SpeedyBox([Monitor("mon")], metrics=registry)
        platform = BessPlatform(runtime, metrics=registry, tracer=tracer)
        stream = packets(10)
        for index, packet in enumerate(stream):
            packet.timestamp_ns = index * 100.0
        stream[6].timestamp_ns = 50.0  # the 7th timestamp decreases
        before = registry.snapshot()
        with pytest.raises(ValueError, match="non-decreasing"):
            platform.run_load(stream, use_timestamps=True)
        assert runtime.stats()["packets"] == 0
        assert platform.packets == 0
        assert registry.snapshot() == before
        assert len(tracer) == 0

    @pytest.mark.parametrize("gap", [-500.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("offered", ["packets", "registry", "batch"])
    def test_bad_gap_raises_before_any_packet_is_processed(self, offered, gap):
        """Neither route lets a negative or non-finite ``inter_arrival_ns``
        reach a packet: the per-packet pass checks it with the gaps, the
        lane (which builds its gaps after serving) at its entry."""
        registry = MetricsRegistry(enabled=offered == "registry")
        runtime = SpeedyBox([Monitor("mon")], metrics=registry)
        platform = BessPlatform(runtime, metrics=registry)
        load = uniform_batch(4, 3) if offered == "batch" else packets(10)
        before = registry.snapshot()
        with pytest.raises(ValueError, match="inter_arrival_ns"):
            platform.run_load(load, inter_arrival_ns=gap)
        assert runtime.stats()["packets"] == 0
        assert platform.packets == 0 and platform.last_lane_stats is None
        assert registry.snapshot() == before

