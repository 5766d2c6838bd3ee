"""Unit tests for the MAT inspector (repro.core.inspector)."""

from repro.core.framework import SpeedyBox
from repro.core.inspector import (
    describe_action,
    describe_rule,
    dump_global_mat,
)
from repro.core.consolidation import consolidate_header_actions
from repro.core.actions import Decap, Drop, Encap, Forward, Modify
from repro.net import AuthenticationHeader
from repro.net.addresses import ip_to_int
from repro.nf import DosPrevention, IPFilter, Monitor
from repro.traffic import FlowSpec, TrafficGenerator
from tests.integration.helpers import FID23_PAIR


def run_flow(sbox, packets=3, sport=1000):
    spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", sport, 80, packets=packets, payload=b"x")
    fid = None
    for packet in TrafficGenerator([spec]).packets():
        fid = sbox.process(packet).fid
    return fid


class TestDescribeAction:
    def test_forward(self):
        assert describe_action(consolidate_header_actions([Forward()])) == "forward"

    def test_drop(self):
        assert describe_action(consolidate_header_actions([Drop()])) == "drop"

    def test_modify_renders_ips(self):
        action = consolidate_header_actions([Modify.set(dst_ip=ip_to_int("9.9.9.9"))])
        assert "set dst_ip=9.9.9.9" in describe_action(action)

    def test_modify_renders_ports_and_adjusts(self):
        action = consolidate_header_actions([Modify.set(dst_port=8080), Modify.adjust(ttl=-2)])
        text = describe_action(action)
        assert "set dst_port=8080" in text
        assert "adjust ttl-2" in text

    def test_encap_decap(self):
        action = consolidate_header_actions([Decap(AuthenticationHeader)])
        assert "decap x1" in describe_action(action)
        action = consolidate_header_actions([Encap(AuthenticationHeader(spi=1))])
        assert "encap AuthenticationHeader" in describe_action(action)


class TestDescribeRule:
    def test_unknown_fid(self):
        sbox = SpeedyBox([Monitor("m")])
        assert "no consolidated rule" in describe_rule(sbox, 12345)

    def test_rule_block_contains_flow_action_schedule(self):
        sbox = SpeedyBox([Monitor("m"), IPFilter("fw")])
        fid = run_flow(sbox)
        text = describe_rule(sbox, fid)
        assert f"fid={fid}" in text
        assert "action  : forward" in text
        assert "m.count_packet" in text

    def test_events_listed(self):
        sbox = SpeedyBox([DosPrevention("dos", threshold=100, mode="packets")])
        fid = run_flow(sbox)
        text = describe_rule(sbox, fid)
        assert "event   : dos/exceeded (armed)" in text

    def test_fired_event_shown(self):
        sbox = SpeedyBox([DosPrevention("dos", threshold=2, mode="packets")])
        fid = run_flow(sbox, packets=6)
        text = describe_rule(sbox, fid)
        assert "fired x1" in text
        assert "action  : drop" in text


class TestDump:
    def test_empty(self):
        sbox = SpeedyBox([Monitor("m")])
        assert "empty" in dump_global_mat(sbox)

    def test_dump_lists_all_flows(self):
        sbox = SpeedyBox([Monitor("m")])
        for sport in (1000, 2000, 3000):
            run_flow(sbox, sport=sport)
        text = dump_global_mat(sbox)
        assert text.count("fid=") == 3
        assert "3 rules shown" in text
        assert "fast-path rate" in text

    def test_limit(self):
        sbox = SpeedyBox([Monitor("m")])
        for sport in (1000, 2000, 3000):
            run_flow(sbox, sport=sport)
        text = dump_global_mat(sbox, limit=1)
        assert text.count("fid=") == 1

    def test_describe_rule_names_the_flow_that_owns_the_fid(self):
        """The second flow on one home FID probes to the next FID; its
        rule block names that flow, not the one holding the home."""
        first, second = FID23_PAIR
        sbox = SpeedyBox([Monitor("m"), IPFilter("fw")])
        for flow, packets in ((first, 2), (second, 5)):
            for packet in TrafficGenerator([FlowSpec(flow, packets=packets)]).packets():
                sbox.process(packet)
        assert f"{first} (2 pkts)" in describe_rule(sbox, sbox.classifier.fid_for(first))
        text = describe_rule(sbox, sbox.classifier.fid_for(second))
        assert text.startswith("fid=24 ") and f"{second} (5 pkts)" in text
