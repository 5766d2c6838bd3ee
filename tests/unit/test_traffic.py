"""Unit tests for traffic generation (repro.traffic)."""

import pytest

from repro.net.headers import TCP_ACK, TCP_FIN, TCP_SYN
from repro.nf.snort.rules import RuleAction, parse_rules
from repro.traffic import (
    DatacenterTraceConfig,
    DatacenterTraceGenerator,
    FlowSpec,
    PayloadSynthesizer,
    TrafficGenerator,
    packets_for_flow,
)
from tests.property.test_payload_stream_exactness import PerByteSynthesizer
from tests.integration.helpers import matching_action, mixed_stream, near_miss, rule_with_action

RULES = parse_rules(
    """
alert tcp any any -> any 80 (msg:"evil"; content:"evil"; sid:1;)
log tcp any any -> any 80 (msg:"spam"; content:"spam"; sid:2;)
pass tcp any any -> any 80 (msg:"ok"; sid:3;)
"""
)


def synthesize(synth, method, length):
    """``benign`` takes a length; ``matching`` / ``near_miss`` a rule first."""
    if method == "near_miss":
        return near_miss(synth, RULES[0], length)
    args = () if method == "benign" else (RULES[0],)
    return getattr(synth, method)(*args, length)


class TestFlowSpec:
    def test_tcp_constructor(self):
        spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2, packets=5)
        assert spec.total_packets == 5

    def test_handshake_and_fin_add_packets(self):
        spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2, packets=5, handshake=True, fin=True)
        assert spec.total_packets == 7

    def test_payload_policy_fixed(self):
        spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"abc")
        assert spec.payload_for(0) == b"abc"
        assert spec.payload_for(9) == b"abc"

    def test_payload_policy_callable(self):
        spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=lambda i: bytes([i]))
        assert spec.payload_for(3) == b"\x03"


class TestPacketsForFlow:
    def test_handshake_first_fin_last(self):
        spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2, packets=2, handshake=True, fin=True)
        pkts = packets_for_flow(spec)
        assert pkts[0].l4.has_flag(TCP_SYN)
        assert pkts[-1].l4.has_flag(TCP_FIN)
        assert all(p.l4.has_flag(TCP_ACK) for p in pkts[1:-1])

    def test_sequence_numbers_advance(self):
        spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2, packets=3, payload=b"xyz")
        pkts = packets_for_flow(spec)
        seqs = [p.l4.seq for p in pkts]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 3

    def test_handshake_on_udp_rejected(self):
        spec = FlowSpec.udp("10.0.0.1", "10.0.0.2", 1, 2)
        spec.handshake = True
        with pytest.raises(ValueError):
            packets_for_flow(spec)

    def test_negative_count_rejected(self):
        spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2, packets=1)
        spec.packets = -1
        with pytest.raises(ValueError):
            packets_for_flow(spec)


class TestTrafficGenerator:
    def make_specs(self):
        return [
            FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000, 80, packets=2),
            FlowSpec.tcp("10.0.0.3", "10.0.0.4", 2000, 80, packets=2),
        ]

    def test_sequential_ordering(self):
        generator = TrafficGenerator(self.make_specs(), interleave="sequential")
        sports = [p.l4.src_port for p in generator]
        assert sports == [1000, 1000, 2000, 2000]

    def test_round_robin_ordering(self):
        generator = TrafficGenerator(self.make_specs(), interleave="round_robin")
        sports = [p.l4.src_port for p in generator]
        assert sports == [1000, 2000, 1000, 2000]

    def test_total_packets(self):
        generator = TrafficGenerator(self.make_specs())
        assert generator.total_packets == 4
        assert len(generator.packets()) == 4

    def test_unknown_interleave_rejected(self):
        with pytest.raises(ValueError):
            TrafficGenerator([], interleave="zigzag")


class TestPayloadSynthesizer:
    def test_benign_payload_matches_nothing(self):
        synth = PayloadSynthesizer(RULES)
        payload = synth.benign(64)
        assert len(payload) == 64
        for rule in RULES:
            if rule.contents:
                assert not rule.payload_matches(payload)

    def test_matching_payload_hits_the_rule(self):
        synth = PayloadSynthesizer(RULES)
        rule = RULES[0]
        payload = synth.matching(rule, 64)
        assert rule.payload_matches(payload)
        assert len(payload) >= 64

    def test_matching_action_lookup(self):
        synth = PayloadSynthesizer(RULES)
        payload = matching_action(synth, RuleAction.LOG)
        assert RULES[1].payload_matches(payload)

    def test_missing_action_raises(self):
        synth = PayloadSynthesizer(RULES[:1])
        with pytest.raises(LookupError):
            rule_with_action(synth, RuleAction.LOG)

    def test_mixed_stream_fraction(self):
        synth = PayloadSynthesizer(RULES, seed=3)
        payloads = mixed_stream(synth, 200, malicious_fraction=0.3, length=32)
        hits = sum(1 for p in payloads if RULES[0].payload_matches(p))
        assert 35 <= hits <= 85  # ~30% of 200, with sampling slack

    def test_deterministic_with_seed(self):
        a = PayloadSynthesizer(RULES, seed=5).benign(32)
        b = PayloadSynthesizer(RULES, seed=5).benign(32)
        assert a == b

    @pytest.mark.parametrize("method", ["benign", "matching", "near_miss"])
    def test_negative_length_rejected(self, method):
        with pytest.raises(ValueError, match="length"):
            synthesize(PayloadSynthesizer(RULES), method, -5)


class TestPayloadStreamExactness:
    """The public methods against the per-byte ``choice`` reference:
    same bytes out, same generator state left behind."""

    LENGTHS = (0, 1, 5, 26, 64, 1400, 3000)

    def pair(self, seed):
        return PayloadSynthesizer(RULES, seed=seed), PerByteSynthesizer(RULES, seed=seed)

    @pytest.mark.parametrize("method", ["benign", "matching", "near_miss"])
    def test_single_payloads(self, method):
        kernel, oracle = self.pair(seed=11)
        for length in self.LENGTHS:
            assert synthesize(kernel, method, length) == synthesize(oracle, method, length)
            assert kernel._random.getstate() == oracle._random.getstate()

    @pytest.mark.parametrize("length", [0, 26, 1400])
    def test_mixed_stream(self, length):
        kernel, oracle = self.pair(seed=2020)
        assert mixed_stream(kernel, 60, 0.3, length) == mixed_stream(oracle, 60, 0.3, length)
        assert kernel._random.getstate() == oracle._random.getstate()

    def test_benign_retry_path(self):
        # a rule the filler alphabet hits in ~43 % of 20-byte drafts, so
        # benign() discards drafts and draws again
        rules = parse_rules('alert tcp any any -> any any (msg:"a"; content:"A"; sid:1;)')
        kernel = PayloadSynthesizer(rules, seed=4)
        oracle = PerByteSynthesizer(rules, seed=4)
        for __ in range(20):
            assert kernel.benign(20) == oracle.benign(20)
            assert kernel._random.getstate() == oracle._random.getstate()


def flow_size_histogram(flows) -> dict:
    """Bucketised flow sizes."""
    buckets = {"1-2": 0, "3-9": 0, "10-99": 0, "100+": 0}
    for spec in flows:
        if spec.packets <= 2:
            buckets["1-2"] += 1
        elif spec.packets <= 9:
            buckets["3-9"] += 1
        elif spec.packets <= 99:
            buckets["10-99"] += 1
        else:
            buckets["100+"] += 1
    return buckets


class TestDatacenterTrace:
    def test_flow_count(self):
        config = DatacenterTraceConfig(flows=50, seed=1)
        flows = DatacenterTraceGenerator(config, RULES).generate_flows()
        assert len(flows) == 50

    def test_deterministic(self):
        config = DatacenterTraceConfig(flows=20, seed=9)
        a = DatacenterTraceGenerator(config, RULES).generate_flows()
        b = DatacenterTraceGenerator(config, RULES).generate_flows()
        assert [f.five_tuple for f in a] == [f.five_tuple for f in b]
        assert [f.packets for f in a] == [f.packets for f in b]

    def test_unique_five_tuples(self):
        config = DatacenterTraceConfig(flows=100, seed=2)
        flows = DatacenterTraceGenerator(config, RULES).generate_flows()
        tuples = [f.five_tuple for f in flows]
        assert len(set(tuples)) == len(tuples)

    def test_heavy_tail_shape(self):
        config = DatacenterTraceConfig(flows=400, seed=3)
        generator = DatacenterTraceGenerator(config, RULES)
        flows = generator.generate_flows()
        histogram = flow_size_histogram(flows)
        mice = histogram["1-2"] + histogram["3-9"]
        elephants = histogram["100+"]
        assert mice > 0.5 * len(flows)  # mostly mice
        assert elephants < 0.15 * len(flows)  # few elephants

    def test_sizes_clipped(self):
        config = DatacenterTraceConfig(flows=300, seed=4, max_packets_per_flow=50)
        flows = DatacenterTraceGenerator(config, RULES).generate_flows()
        assert max(f.packets for f in flows) <= 50

    def test_malicious_fraction_zero_without_rules(self):
        config = DatacenterTraceConfig(flows=10, seed=5)
        flows = DatacenterTraceGenerator(config, rules=()).generate_flows()
        # No rules: all payloads synthesised benign, nothing to match.
        assert all(f.packets >= 1 for f in flows)

    def test_handshake_and_fin_present(self):
        config = DatacenterTraceConfig(flows=5, seed=6)
        flows = DatacenterTraceGenerator(config, RULES).generate_flows()
        assert all(f.handshake and f.fin for f in flows)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("flows", -1),
            ("server_count", 0),
            ("service_ports", ()),
            ("max_packets_per_flow", 0),
            ("elephant_fraction", 1.5),
            ("large_packet_fraction", -0.1),
            ("malicious_fraction", 2.0),
        ],
    )
    def test_degenerate_config_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            DatacenterTraceConfig(**{field: value})

    def test_boundary_config_accepted(self):
        config = DatacenterTraceConfig(
            flows=0, server_count=1, service_ports=[53], max_packets_per_flow=1,
            elephant_fraction=0.0, large_packet_fraction=1.0, malicious_fraction=1.0,
        )
        assert DatacenterTraceGenerator(config, RULES).generate_flows() == []
