"""Unit tests for multi-chain service direction (repro.core.director)."""

import pytest

from repro.core.director import ServiceDirector, SteeringRule
from repro.core.framework import PathTaken, SpeedyBox
from repro.nf import IPFilter, Monitor, SnortIDS
from repro.nf.ipfilter import AclRule
from repro.traffic import FlowSpec, TrafficGenerator


def chains():
    return {
        "web": [Monitor("web-mon"), IPFilter("web-fw")],
        "dns": [Monitor("dns-mon")],
    }


def rules():
    return [
        SteeringRule(AclRule.make(dst_ports=(80, 443)), "web"),
        SteeringRule(AclRule.make(dst_ports=(53, 53)), "dns"),
    ]


def flow_packets(dport, packets=3, sport=1000):
    spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", sport, dport, packets=packets, payload=b"x")
    return TrafficGenerator([spec]).packets()


class TestConstruction:
    def test_needs_chains(self):
        with pytest.raises(ValueError):
            ServiceDirector({}, [])

    def test_rule_must_target_known_chain(self):
        with pytest.raises(ValueError):
            ServiceDirector(chains(), [SteeringRule(AclRule.make(), "nope")])

    def test_default_chain_validated(self):
        with pytest.raises(ValueError):
            ServiceDirector(chains(), [], default_chain="nope")

    def test_speedybox_per_chain(self):
        director = ServiceDirector(chains(), rules())
        assert isinstance(director.runtime("web"), SpeedyBox)


class TestSteering:
    def test_rules_route_by_port(self):
        director = ServiceDirector(chains(), rules())
        web = director.process(flow_packets(80)[0])
        dns = director.process(flow_packets(53, sport=2000)[0])
        assert web.chain == "web"
        assert dns.chain == "dns"

    def test_unmatched_goes_to_default(self):
        director = ServiceDirector(chains(), rules(), default_chain="web")
        other = director.process(flow_packets(9999)[0])
        assert other.chain == "web"

    def test_first_rule_wins(self):
        overlapping = [
            SteeringRule(AclRule.make(dst_ports=(0, 65535)), "dns"),
            SteeringRule(AclRule.make(dst_ports=(80, 80)), "web"),
        ]
        director = ServiceDirector(chains(), overlapping)
        assert director.process(flow_packets(80)[0]).chain == "dns"

    def test_flow_pinned_across_rule_edits(self):
        director = ServiceDirector(chains(), rules())
        packets = flow_packets(80, packets=4)
        first = director.process(packets[0])
        assert first.chain == "web"
        # Re-steer port 80 to the dns chain mid-flow: the live flow must
        # stay pinned to its original chain.
        director.add_rule(SteeringRule(AclRule.make(dst_ports=(80, 80)), "dns"))
        for packet in packets[1:]:
            assert director.process(packet).chain == "web"
        # A brand new flow follows the new rule.
        assert director.process(flow_packets(80, sport=7000)[0]).chain == "dns"

    def test_fin_unpins(self):
        director = ServiceDirector(chains(), rules())
        packets = flow_packets(80, packets=2) + TrafficGenerator(
            [FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000, 80, packets=0, fin=True)]
        ).packets()
        for packet in packets:
            director.process(packet)
        assert not director._pins


class TestIsolation:
    def test_chains_consolidate_independently(self):
        director = ServiceDirector(chains(), rules())
        for packet in flow_packets(80, packets=3):
            director.process(packet)
        for packet in flow_packets(53, packets=3, sport=2000):
            director.process(packet)
        web_runtime = director.runtime("web")
        dns_runtime = director.runtime("dns")
        assert len(web_runtime.global_mat) == 1
        assert len(dns_runtime.global_mat) == 1
        # MATs are per-chain: the web chain never saw the dns flow.
        assert web_runtime.classifier.packets_classified == 3
        assert dns_runtime.classifier.packets_classified == 3

    def test_per_chain_fast_paths(self):
        director = ServiceDirector(chains(), rules())
        web_reports = [director.process(p).report for p in flow_packets(80, packets=3)]
        assert [r.path for r in web_reports] == [
            PathTaken.ORIGINAL, PathTaken.FAST, PathTaken.FAST,
        ]

    def test_stats_per_chain(self):
        director = ServiceDirector(chains(), rules())
        for packet in flow_packets(80, packets=2):
            director.process(packet)
        stats = director.stats()
        assert stats["web"]["packets"] == 2
        assert stats["dns"]["packets"] == 0

    def test_reset(self):
        director = ServiceDirector(chains(), rules())
        for packet in flow_packets(80, packets=2):
            director.process(packet)
        director.reset()
        assert director.per_chain_packets == {"web": 0, "dns": 0}
        assert len(director.runtime("web").global_mat) == 0
