"""Extra traffic-generation coverage: timestamped traces, cloning, payload
policies."""

import pytest

from repro.traffic import DatacenterTraceConfig, DatacenterTraceGenerator, FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets, packets_for_flow


class TestClonePackets:
    def test_clones_are_deeply_independent(self):
        spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2, packets=2, payload=b"orig")
        originals = packets_for_flow(spec)
        clones = clone_packets(originals)
        clones[0].payload = b"mutated"
        clones[0].metadata["x"] = 1
        clones[0].drop()
        assert originals[0].payload == b"orig"
        assert "x" not in originals[0].metadata
        assert not originals[0].dropped

    def test_clone_preserves_wire_bytes(self):
        spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2, packets=3, payload=b"abc")
        originals = packets_for_flow(spec)
        for original, clone in zip(originals, clone_packets(originals)):
            assert original.serialize() == clone.serialize()


class TestPayloadPolicies:
    def test_callable_policy_indexes_data_packets_only(self):
        seen = []

        def policy(index):
            seen.append(index)
            return bytes([index])

        spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2, packets=3,
                            payload=policy, handshake=True, fin=True)
        packets = packets_for_flow(spec)
        # SYN and FIN carry no payload; data packets index 0..2.
        assert seen == [0, 1, 2]
        assert packets[1].payload == b"\x00"
        assert packets[3].payload == b"\x02"
        assert packets[0].payload == b""
        assert packets[-1].payload == b""


class TestTimestampedTraceShape:
    def make(self):
        config = DatacenterTraceConfig(flows=8, seed=4)
        return DatacenterTraceGenerator(config).timestamped_packets()

    def test_burst_structure(self):
        packets = self.make()
        by_flow = {}
        for packet in packets:
            by_flow.setdefault(packet.five_tuple(), []).append(packet.timestamp_ns)
        # Within a flow, intra-burst gaps are the small constant; OFF gaps
        # are much larger.
        small, large = 0, 0
        for stamps in by_flow.values():
            for gap in (b - a for a, b in zip(stamps, stamps[1:])):
                if gap == pytest.approx(1_000.0):
                    small += 1
                elif gap > 10_000:
                    large += 1
        assert small > 0
        assert large > 0

    def test_total_packet_count_matches_specs(self):
        config = DatacenterTraceConfig(flows=8, seed=4)
        generator = DatacenterTraceGenerator(config)
        specs = generator.generate_flows()
        expected = sum(spec.total_packets for spec in specs)
        fresh = DatacenterTraceGenerator(config)
        assert len(fresh.timestamped_packets()) == expected


class TestFlowSpecEdge:
    def test_zero_data_packets_with_fin_only(self):
        spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2, packets=0, fin=True)
        packets = packets_for_flow(spec)
        assert len(packets) == 1
        from repro.net.headers import TCP_FIN

        assert packets[0].l4.has_flag(TCP_FIN)

    def test_total_packets_accounting(self):
        spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2, packets=7, handshake=True)
        assert spec.total_packets == 8
        assert len(packets_for_flow(spec)) == 8

    def test_generator_total_matches_emission(self):
        flows = [
            FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000 + i, 2, packets=i + 1)
            for i in range(4)
        ]
        generator = TrafficGenerator(flows, interleave="shuffled", seed=3)
        assert len(generator.packets()) == generator.total_packets == 1 + 2 + 3 + 4
