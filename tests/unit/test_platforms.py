"""Unit tests for the BESS and OpenNetVM platform models (repro.platform)."""

import pytest

import repro.platform.base as platform_base
import repro.sim.analytic as sim_analytic
import repro.sim.engine as sim_engine
from repro.core.framework import PathTaken, ServiceChain, SpeedyBox
from repro.nf import IPFilter, Monitor, SyntheticNF
from repro.obs import MetricsRegistry
from repro.platform import BessPlatform, CostModel, OpenNetVMPlatform, PlatformConfig
from repro.platform.base import makespan_with_workers
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets
from tests.integration.helpers import des_run_load


def packets(count=4, sport=1000):
    spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", sport, 80, packets=count, payload=b"abcdef")
    return TrafficGenerator([spec]).packets()


class TestMakespanWithWorkers:
    def test_single_worker_is_sum(self):
        assert makespan_with_workers([3, 2, 1], workers=1) == 6

    def test_enough_workers_is_max(self):
        assert makespan_with_workers([3, 2, 1], workers=3) == 3

    def test_two_workers_balances(self):
        # LPT: [4] vs [3, 2] -> makespan 5
        assert makespan_with_workers([4, 3, 2], workers=2) == 5

    def test_empty(self):
        assert makespan_with_workers([], workers=4) == 0.0


class TestBessTiming:
    def test_chain_latency_scales_with_length(self):
        def latency(n):
            chain = ServiceChain([IPFilter(f"fw{i}") for i in range(n)])
            platform = BessPlatform(chain)
            return platform.process(packets(1)[0]).latency_cycles

        assert latency(1) < latency(2) < latency(3)

    def test_per_nf_increment_is_constant(self):
        def latency(n):
            chain = ServiceChain([IPFilter(f"fw{i}") for i in range(n)])
            platform = BessPlatform(chain)
            outcomes = platform.process_all(packets(2))
            return outcomes[1].latency_cycles  # subsequent packet (cached verdicts)

        delta21 = latency(2) - latency(1)
        delta32 = latency(3) - latency(2)
        assert delta21 == pytest.approx(delta32)

    def test_fast_path_latency_flat_vs_chain_length(self):
        def fast_latency(n):
            sbox = SpeedyBox([IPFilter(f"fw{i}") for i in range(n)])
            platform = BessPlatform(sbox)
            outcomes = platform.process_all(packets(3))
            assert outcomes[-1].path is PathTaken.FAST
            return outcomes[-1].latency_cycles

        assert fast_latency(4) == pytest.approx(fast_latency(2), rel=0.01)

    def test_parallel_waves_cheaper_than_sequential(self):
        def chain():
            return [SyntheticNF(f"s{i}", sf_work_cycles=2000) for i in range(3)]

        parallel = BessPlatform(SpeedyBox(chain(), enable_parallelism=True))
        sequential = BessPlatform(SpeedyBox(chain(), enable_parallelism=False))
        p_out = parallel.process_all(packets(2))
        s_out = sequential.process_all(clone_packets(packets(2)))
        assert p_out[1].latency_cycles < s_out[1].latency_cycles
        # Work (total CPU) is *higher* with parallelism (fork/join overhead).
        assert p_out[1].work_cycles >= s_out[1].work_cycles

    def test_work_equals_latency_without_parallel_waves(self):
        platform = BessPlatform(ServiceChain([Monitor("m")]))
        outcome = platform.process(packets(1)[0])
        assert outcome.work_cycles == pytest.approx(outcome.latency_cycles)


class TestOnvmTiming:
    def test_hop_cost_exceeds_bess(self):
        bess = BessPlatform(ServiceChain([IPFilter("a"), IPFilter("b")]))
        onvm = OpenNetVMPlatform(ServiceChain([IPFilter("a"), IPFilter("b")]))
        bess_latency = bess.process(packets(1)[0]).latency_cycles
        onvm_latency = onvm.process(packets(1)[0]).latency_cycles
        # Default costs: ring enq+deq+cache sync > in-process dispatch.
        model = CostModel()
        assert (
            model.ring_enqueue + model.ring_dequeue + model.cross_core_sync
            <= onvm_latency - bess_latency + model.nf_dispatch * 2
        )

    def test_core_limit_enforced(self):
        nfs = [IPFilter(f"fw{i}") for i in range(6)]
        with pytest.raises(ValueError):
            OpenNetVMPlatform(ServiceChain(nfs))


class TestThroughput:
    def test_bess_rate_drops_with_chain_length(self):
        def rate(n):
            chain = ServiceChain([SyntheticNF(f"s{i}", sf_work_cycles=1500) for i in range(n)])
            platform = BessPlatform(chain)
            return platform.run_load(packets(30)).throughput_mpps

        assert rate(1) > rate(2) > rate(3)

    def test_onvm_rate_stays_flat_with_chain_length(self):
        def rate(n):
            chain = ServiceChain([SyntheticNF(f"s{i}", sf_work_cycles=1500) for i in range(n)])
            platform = OpenNetVMPlatform(chain)
            return platform.run_load(packets(30)).throughput_mpps

        r1, r3 = rate(1), rate(3)
        assert r3 > 0.7 * r1  # pipelining: no 1/N collapse

    def test_speedybox_improves_bess_rate(self):
        def rate(runtime):
            return BessPlatform(runtime).run_load(packets(40)).throughput_mpps

        def chain():
            return [SyntheticNF(f"s{i}", sf_work_cycles=1800) for i in range(3)]

        assert rate(SpeedyBox(chain())) > 1.3 * rate(ServiceChain(chain()))

    def test_load_result_accounting(self):
        platform = BessPlatform(ServiceChain([Monitor("m")]))
        result = platform.run_load(packets(10))
        assert result.offered == 10
        assert result.delivered == 10
        assert result.dropped == 0
        assert len(result.latencies_ns) == 10
        assert result.makespan_ns > 0
        assert result.latency_percentile(0.5) > 0

    def test_paced_arrivals_reduce_queueing(self):
        def p99(inter_arrival):
            platform = BessPlatform(ServiceChain([SyntheticNF("s", sf_work_cycles=2000)]))
            result = platform.run_load(packets(30), inter_arrival_ns=inter_arrival)
            return result.latency_percentile(0.99)

        assert p99(10000.0) < p99(0.0)

    def test_drops_counted(self):
        from repro.nf.ipfilter import AclRule, Verdict

        fw = IPFilter("fw", rules=[AclRule.make(verdict=Verdict.DROP)])
        platform = BessPlatform(ServiceChain([fw]))
        result = platform.run_load(packets(5))
        assert result.dropped == 5
        assert result.delivered == 0


class TestPlatformLifecycle:
    def test_reset_resets_runtime(self):
        platform = BessPlatform(SpeedyBox([Monitor("m")]))
        platform.process_all(packets(3))
        platform.reset()
        assert platform.packets == 0
        assert platform.runtime.fast_packets == 0

    def test_config_cost_model_override(self):
        config = PlatformConfig(cost_model=CostModel().with_overrides(parse=10000.0))
        cheap = BessPlatform(ServiceChain([Monitor("m")]))
        pricey = BessPlatform(ServiceChain([Monitor("m")]), config)
        assert pricey.process(packets(1)[0]).latency_cycles > cheap.process(packets(1)[0]).latency_cycles


#: route -> (platform keyword arguments, run_load keyword arguments)
ROUTES = {
    "vector": ({}, {}),
    "analytic": ({}, {"inter_arrival_ns": 50.0}),
    "des": ({"metrics": MetricsRegistry()}, {}),
}


class TestRingCapacity:
    """A ring holds at least one descriptor.  The three replays used to
    disagree below that — the vector recursion returned a timeline, the
    closed form raised ``IndexError``, the DES ``SimulationError`` — so
    the config refuses it, and at one slot, the tightest ring, every
    route replays what the DES does."""

    @pytest.mark.parametrize("capacity", [0, -3])
    def test_a_ring_below_one_slot_is_refused(self, capacity):
        with pytest.raises(ValueError, match=rf"ring_capacity .*got {capacity}$"):
            PlatformConfig(ring_capacity=capacity)

    def test_unbounded_rings_stay_valid(self):
        assert PlatformConfig(ring_capacity=None).ring_capacity is None

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_a_one_slot_ring_replays_like_the_des(self, route, monkeypatch):
        platform_kwargs, load_kwargs = ROUTES[route]

        def build():
            return BessPlatform(
                SpeedyBox([Monitor("mon"), IPFilter("fw")]),
                config=PlatformConfig(ring_capacity=1),
                **platform_kwargs,
            )

        stream = packets(30)
        reference = des_run_load(build(), clone_packets(stream), **load_kwargs)
        taken = []

        def counted(owner, attribute, name):
            original = getattr(owner, attribute)

            def wrapper(*args, **kwargs):
                taken.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attribute, wrapper)

        counted(sim_analytic, "analytic_replay_vector", "vector")
        counted(platform_base, "analytic_replay", "analytic")
        counted(sim_engine.Engine, "run", "des")
        result = build().run_load(clone_packets(stream), **load_kwargs)
        assert taken == [route]
        assert result == reference
        assert result.latency_percentile(0.99) > result.latency_percentile(0.01)
