"""Scale smoke: hundreds of concurrent flows through a real chain.

Not a microbenchmark — a correctness check that the tables, the 20-bit
FID space, FIN cleanup and LRU capacity behave at a scale where sloppy
bookkeeping (leaks, stale rules, cross-flow bleed) would show.
"""

from repro.core.framework import ServiceChain, SpeedyBox
from repro.nf import IPFilter, MaglevLoadBalancer, MazuNAT, Monitor
from repro.nf.maglev import Backend
from repro.traffic import DatacenterTraceConfig, DatacenterTraceGenerator, TrafficGenerator
from repro.traffic.generator import clone_packets
from tests.integration.helpers import nf_by_name


def build_chain():
    backends = [Backend.make(f"b{i}", f"192.168.200.{i + 1}", 8000) for i in range(6)]
    return [
        MazuNAT("nat", external_ip="203.0.113.200", port_range=(10000, 60000)),
        MaglevLoadBalancer("lb", backends=backends, table_size=521),
        Monitor("mon"),
        IPFilter("fw"),
    ]


def big_trace(flows=400, seed=31):
    config = DatacenterTraceConfig(flows=flows, seed=seed, max_packets_per_flow=30)
    specs = DatacenterTraceGenerator(config).generate_flows()
    return specs, TrafficGenerator(specs, interleave="round_robin").packets()


class TestScale:
    def test_400_flows_stay_equivalent(self):
        specs, packets = big_trace()
        baseline = ServiceChain(build_chain())
        speedybox = SpeedyBox(build_chain())
        base_stream = clone_packets(packets)
        sbox_stream = clone_packets(packets)
        for packet in base_stream:
            baseline.process(packet)
        for packet in sbox_stream:
            speedybox.process(packet)

        mismatches = sum(
            1
            for a, b in zip(base_stream, sbox_stream)
            if a.dropped != b.dropped or (not a.dropped and a.serialize() != b.serialize())
        )
        assert mismatches == 0
        assert nf_by_name(baseline, "mon").counters == nf_by_name(speedybox, "mon").counters

    def test_fin_cleanup_leaves_no_residue(self):
        specs, packets = big_trace(flows=300, seed=32)
        speedybox = SpeedyBox(build_chain())
        for packet in clone_packets(packets):
            speedybox.process(packet)
        # Every flow FINs in this trace: all tables must drain.
        stats = speedybox.stats()
        assert stats["active_rules"] == 0
        assert stats["tracked_flows"] == 0
        assert len(speedybox.event_table) == 0
        for local_mat in speedybox.local_mats.values():
            assert len(local_mat) == 0
        # NAT mappings released back to the pool, firewall cache drained.
        nat = nf_by_name(speedybox, "nat")
        assert not nat.mappings
        assert not nat.reverse
        assert not nf_by_name(speedybox, "fw")._verdict_cache
        # (Maglev conntrack is keyed by its position-local five-tuple and
        # relies on timeouts in the real system; not asserted here.)

    def test_capacity_pressure_preserves_equivalence(self):
        specs, packets = big_trace(flows=250, seed=33)
        baseline = ServiceChain(build_chain())
        speedybox = SpeedyBox(build_chain(), max_flows=16)  # heavy eviction
        base_stream = clone_packets(packets)
        sbox_stream = clone_packets(packets)
        for packet in base_stream:
            baseline.process(packet)
        for packet in sbox_stream:
            speedybox.process(packet)
        assert speedybox.global_mat.evictions > 0
        mismatches = sum(
            1
            for a, b in zip(base_stream, sbox_stream)
            if a.dropped != b.dropped or (not a.dropped and a.serialize() != b.serialize())
        )
        assert mismatches == 0

    def test_fast_path_dominates_at_scale(self):
        specs, packets = big_trace(flows=400, seed=34)
        speedybox = SpeedyBox(build_chain())
        for packet in clone_packets(packets):
            speedybox.process(packet)
        stats = speedybox.stats()
        slow_floor = sum(1 for spec in specs) * 2  # SYN + initial per flow
        assert stats["slow_packets"] <= slow_floor
        assert stats["fast_path_rate"] > 0.5
