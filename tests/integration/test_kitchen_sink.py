"""The kitchen-sink chain: every NF family in one service chain.

DoS → NAT → VXLAN gateway → Maglev → VPN encap → VPN decap → Snort →
Monitor → terminator → Firewall.  If equivalence survives this, the
consolidation engine handles arbitrary compositions of all five header
actions and all three payload classes at once.
"""

import pytest

from repro.core.framework import SpeedyBox
from repro.nf import (
    DosPrevention,
    IPFilter,
    MaglevLoadBalancer,
    MazuNAT,
    Monitor,
    SnortIDS,
    VniMap,
    VpnDecap,
    VpnEncap,
    VxlanGateway,
    VxlanTerminator,
)
from repro.nf.maglev import Backend
from repro.traffic import FlowSpec, TrafficGenerator
from tests.integration.helpers import nf_by_name, run_lockstep, schedule_batches

RULES_TEXT = 'alert tcp any any -> any any (msg:"sink"; content:"needle"; sid:1;)'


def build_chain():
    backends = [Backend.make(f"b{i}", f"192.168.77.{i + 1}", 7000) for i in range(3)]
    return [
        DosPrevention("dos", threshold=500, mode="packets"),
        MazuNAT("nat", external_ip="203.0.113.99"),
        MaglevLoadBalancer("maglev", backends=backends, table_size=131),
        # After Maglev the destination is a 192.168.77.x backend, which
        # the gateway's VNI map tunnels into the backend overlay.
        VxlanGateway("gateway", VniMap([("192.168.0.0/16", 55)]), underlay_dscp=18),
        VpnEncap("vpnenc", spi=0x77, key=11),
        VpnDecap("vpndec", key=11),
        SnortIDS("snort", RULES_TEXT),
        VxlanTerminator("terminator"),
        # Monitor sits after the last header-rewriting NF: its byte
        # counters must observe the final header state on both paths
        # (the positional caveat documented in repro.nf.monitor).
        Monitor("monitor"),
        IPFilter("firewall"),
    ]


def traffic(packets=6, flows=4, payload=b"clean traffic", fin=True):
    specs = [
        FlowSpec.tcp(
            f"10.0.{i}.1", "100.0.0.1", 5000 + i, 80,
            packets=packets, payload=payload, handshake=True, fin=fin,
        )
        for i in range(flows)
    ]
    return TrafficGenerator(specs, interleave="round_robin").packets()


class TestKitchenSink:
    def test_outputs_identical(self):
        run_lockstep(build_chain, traffic())

    def test_outputs_identical_with_needle_payloads(self):
        run_lockstep(build_chain, traffic(payload=b"a needle in the haystack"))

    def test_all_nf_state_identical(self):
        baseline, speedybox, *_ = run_lockstep(build_chain, traffic())
        assert nf_by_name(baseline, "monitor").counters == nf_by_name(speedybox, "monitor").counters
        assert nf_by_name(baseline, "nat").mappings == nf_by_name(speedybox, "nat").mappings
        assert nf_by_name(baseline, "dos").counters == nf_by_name(speedybox, "dos").counters
        assert nf_by_name(baseline, "snort").alerts == nf_by_name(speedybox, "snort").alerts
        assert (
            nf_by_name(baseline, "vpndec").verification_failures
            == nf_by_name(speedybox, "vpndec").verification_failures
        )

    def test_consolidated_rule_shape(self):
        """The 10-NF chain's fast path nets out to: Maglev rewrite +
        NAT rewrite + DSCP marks; VPN encap/decap cancel; the VXLAN encap
        cancels against the terminator."""
        __, speedybox, __, __, reports = run_lockstep(build_chain, traffic(fin=False))
        fast_report = next(report for report in reports if report.is_fast)
        rule = speedybox.global_mat.peek(fast_report.fid)
        consolidated = rule.consolidated
        assert not consolidated.drop
        assert not consolidated.net_encaps       # both encaps cancelled
        assert not consolidated.leading_decaps
        fields = {field.value for field in consolidated.field_ops}
        assert {"src_ip", "src_port", "dst_ip", "dst_port", "dscp"} <= fields

    def test_sf_schedule_respects_payload_hazards(self):
        __, speedybox, __, __, reports = run_lockstep(build_chain, traffic(fin=False))
        fast_report = next(report for report in reports if report.is_fast)
        rule = speedybox.global_mat.peek(fast_report.fid)
        # All recorded SFs are READ or IGNORE here, so one wide wave.
        assert rule.schedule.wave_count == 1
        names = {batch.nf_name for batch in schedule_batches(rule.schedule)}
        assert {"snort", "monitor", "dos", "maglev"} <= names

    def test_fast_path_dominates(self):
        __, speedybox, __, __, reports = run_lockstep(build_chain, traffic(packets=10))
        stats = speedybox.stats()
        assert stats["fast_path_rate"] > 0.6
        assert stats["events_registered"] > 0
        assert stats["fid_collisions"] == 0

    def test_speedybox_latency_win_scales_with_chain_depth(self):
        from repro.core.framework import ServiceChain
        from repro.platform import BessPlatform
        from repro.traffic.generator import clone_packets

        packets = traffic(packets=6, flows=1)
        baseline = BessPlatform(ServiceChain(build_chain()))
        speedybox = BessPlatform(SpeedyBox(build_chain()))
        base_last = baseline.process_all(clone_packets(packets))[-2]
        sbox_last = speedybox.process_all(clone_packets(packets))[-2]
        # A 10-NF chain consolidates into a fast path several times cheaper.
        assert sbox_last.latency_cycles < 0.45 * base_last.latency_cycles
