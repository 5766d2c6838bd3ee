"""Cross-check: the event-driven replay agrees with closed-form queueing.

For uniform traffic the platforms have analytic throughput: BESS is one
server (rate = 1/service time), ONVM a tandem line (rate = 1/bottleneck
stage).  The simulator must reproduce those within the pipeline-drain
epsilon — if it drifts, the replay machinery (rings, last-hop finish stamps,
delay stages) is broken, not the model.
"""

import pytest

from repro.core.framework import ServiceChain
from repro.nf import SyntheticNF
from repro.platform import BessPlatform, OpenNetVMPlatform
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets

N_PACKETS = 200


def chain(lengths_cycles):
    return ServiceChain(
        [SyntheticNF(f"s{i}", sf_work_cycles=c) for i, c in enumerate(lengths_cycles)]
    )


def uniform_packets():
    spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000, 80, packets=N_PACKETS, payload=b"u")
    return TrafficGenerator([spec]).packets()


class TestBessClosedForm:
    @pytest.mark.parametrize("work", [200.0, 1000.0, 4000.0])
    def test_rate_is_inverse_service_time(self, work):
        platform = BessPlatform(chain([work]))
        packets = uniform_packets()
        outcomes = platform.process_all(clone_packets(packets))
        # Steady-state service time = subsequent-packet latency.
        service_ns = outcomes[-1].latency_ns
        platform.reset()
        measured = platform.run_load(clone_packets(packets)).throughput_mpps
        # One expensive initial packet amortised over N: allow 3%.
        analytic = 1000.0 / service_ns
        assert measured == pytest.approx(analytic, rel=0.03)


class TestOnvmClosedForm:
    def test_rate_is_inverse_bottleneck(self):
        works = [500.0, 3000.0, 800.0]  # middle stage dominates
        platform = OpenNetVMPlatform(chain(works))
        packets = uniform_packets()
        outcomes = platform.process_all(clone_packets(packets))
        report = outcomes[-1].report
        model = platform.costs
        hop = platform._transport_cycles_per_hop()
        stage_ns = [
            model.cycles_to_ns(meter.cycles(model) + hop) for __, meter in report.nf_meters
        ]
        stage_ns[-1] += model.cycles_to_ns(model.nic_tx)
        bottleneck_ns = max(stage_ns)
        platform.reset()
        measured = platform.run_load(clone_packets(packets)).throughput_mpps
        analytic = 1000.0 / bottleneck_ns
        assert measured == pytest.approx(analytic, rel=0.05)

    def test_latency_is_sum_of_stages_unloaded(self):
        works = [500.0, 900.0]
        platform = OpenNetVMPlatform(chain(works))
        outcome = platform.process(uniform_packets()[0])
        model = platform.costs
        hop = platform._transport_cycles_per_hop()
        expected = platform._nic_cycles()
        expected += outcome.report.fixed_meter.cycles(model)
        for __, meter in outcome.report.nf_meters:
            expected += meter.cycles(model) + hop
        assert outcome.latency_cycles == pytest.approx(expected)


class TestLittlesLawSanity:
    def test_paced_below_capacity_latency_near_unloaded(self):
        platform = BessPlatform(chain([1000.0]))
        packets = uniform_packets()
        unloaded_ns = platform.process_all(clone_packets(packets[:3]))[-1].latency_ns
        platform.reset()
        # Offer at 40% of capacity: negligible queueing.
        service_ns = unloaded_ns
        result = platform.run_load(
            clone_packets(packets), inter_arrival_ns=service_ns / 0.4
        )
        assert result.latency_percentile(0.5) == pytest.approx(unloaded_ns, rel=0.15)
