"""§VII-C(3): comprehensive real-world-chain equivalence.

"We also test the equivalence of SpeedyBox in real world service chains
... In the first chain's Maglev NF, we set events for 20% flows during
mid-stream.  We find that there is no difference between the packet
output for both chains.  Further, we compare the per-flow counters of the
Monitor and the log outputs of Snort.  Results show that the value of all
counters and the Snort logs are all identical with and without SpeedyBox.
And the events of Maglev have been triggered correctly for all associated
flows."
"""

import random

import pytest

from repro.nf import IPFilter, MaglevLoadBalancer, MazuNAT, Monitor, SnortIDS
from repro.nf.maglev import Backend
from repro.nf.snort.rules import parse_rules
from repro.traffic import DatacenterTraceConfig, DatacenterTraceGenerator, TrafficGenerator
from tests.integration.helpers import nf_by_name, run_lockstep

RULES_TEXT = """
alert tcp any any -> any any (msg:"bad content"; content:"malware-beacon"; sid:9001;)
log tcp any any -> any any (msg:"plain http get"; content:"GET /"; sid:9002;)
"""
RULES = parse_rules(RULES_TEXT)


def backends():
    return [Backend.make(f"b{i}", f"192.168.9.{i + 1}", 9000) for i in range(4)]


def chain1():
    """The Motivation chain: NAT -> Load Balancer -> Monitor -> Firewall."""
    return [
        MazuNAT("mazunat", external_ip="203.0.113.9", internal_prefix="10.0.0.0/8"),
        MaglevLoadBalancer("maglev", backends=backends(), table_size=131),
        Monitor("monitor"),
        IPFilter("ipfilter"),
    ]


def chain2():
    """IPFilter -> Snort -> Monitor."""
    return [IPFilter("ipfilter"), SnortIDS("snort", RULES_TEXT), Monitor("monitor")]


def trace_packets(flows=40, seed=77):
    config = DatacenterTraceConfig(
        flows=flows,
        seed=seed,
        max_packets_per_flow=40,
        client_subnet="10.1",
        server_subnet="10.2",
    )
    specs = DatacenterTraceGenerator(config, RULES).generate_flows()
    return TrafficGenerator(specs, interleave="round_robin").packets()


def maglev_event_schedule(packets, fraction=0.2, seed=5):
    """Fail the tracked backend of ~``fraction`` of flows mid-stream.

    Returns {packet_index: intervention} failing, in both runs, the
    backend that the packet's flow is pinned to at that moment.
    """
    rng = random.Random(seed)
    flows = {}
    for index, packet in enumerate(packets):
        flows.setdefault(packet.five_tuple(), []).append(index)
    chosen = [flow for flow in flows if rng.random() < fraction and len(flows[flow]) > 4]

    interventions = {}
    for flow in chosen:
        indices = flows[flow]
        trigger_at = indices[len(indices) // 2]

        def intervene(baseline, speedybox, flow=flow):
            for runtime in (baseline, speedybox):
                maglev = nf_by_name(runtime, "maglev")
                nat = nf_by_name(runtime, "mazunat")
                mapping = nat.mappings.get(flow)
                if mapping is None:
                    continue
                healthy = sum(1 for b in maglev.backends if b.healthy)
                if healthy <= 1:
                    continue  # keep the service alive in both runs
                translated = flow._replace(src_ip=mapping[1], src_port=mapping[2])
                backend = maglev.conntrack.get(translated)
                if backend is not None and backend.healthy:
                    maglev.fail_backend(backend.name)

        interventions[trigger_at] = intervene
    return interventions


class TestChain1Equivalence:
    def test_packet_outputs_identical_without_events(self):
        packets = trace_packets(flows=25, seed=101)
        run_lockstep(chain1, packets)  # asserts wire equality internally

    def test_packet_outputs_identical_with_events(self):
        packets = trace_packets(flows=30, seed=102)
        interventions = maglev_event_schedule(packets, fraction=0.2)
        assert interventions, "schedule must fail at least one backend"
        baseline, speedybox, *_ = run_lockstep(chain1, packets, interventions=interventions)
        assert speedybox.event_table.total_triggered >= 1

    def test_monitor_counters_identical(self):
        packets = trace_packets(flows=25, seed=103)
        interventions = maglev_event_schedule(packets, fraction=0.2)
        baseline, speedybox, *_ = run_lockstep(chain1, packets, interventions=interventions)
        assert (
            nf_by_name(baseline, "monitor").counters
            == nf_by_name(speedybox, "monitor").counters
        )

    def test_nat_mappings_identical(self):
        packets = trace_packets(flows=20, seed=104)
        baseline, speedybox, *_ = run_lockstep(chain1, packets)
        assert nf_by_name(baseline, "mazunat").mappings == nf_by_name(speedybox, "mazunat").mappings

    def test_events_triggered_for_all_affected_flows(self):
        packets = trace_packets(flows=30, seed=105)
        interventions = maglev_event_schedule(packets, fraction=0.25, seed=6)
        baseline, speedybox, *_ = run_lockstep(chain1, packets, interventions=interventions)
        base_reroutes = nf_by_name(baseline, "maglev").reroutes
        sbox_triggers = speedybox.event_table.total_triggered
        # Every baseline inline reroute has a matching fast-path event.
        assert sbox_triggers >= base_reroutes > 0


class TestChain2Equivalence:
    def test_packet_outputs_identical(self):
        packets = trace_packets(flows=25, seed=201)
        run_lockstep(chain2, packets)

    def test_snort_logs_and_alerts_identical(self):
        packets = trace_packets(flows=30, seed=202)
        baseline, speedybox, *_ = run_lockstep(chain2, packets)
        base_snort = nf_by_name(baseline, "snort")
        sbox_snort = nf_by_name(speedybox, "snort")
        assert base_snort.alerts == sbox_snort.alerts
        assert base_snort.logs == sbox_snort.logs
        assert base_snort.alerts, "trace must include malicious flows"

    def test_monitor_counters_identical(self):
        packets = trace_packets(flows=25, seed=203)
        baseline, speedybox, *_ = run_lockstep(chain2, packets)
        assert (
            nf_by_name(baseline, "monitor").counters
            == nf_by_name(speedybox, "monitor").counters
        )

    def test_fast_path_dominates_on_trace(self):
        packets = trace_packets(flows=25, seed=204)
        __, speedybox, __, __, reports = run_lockstep(chain2, packets)
        fast = sum(1 for report in reports if report.is_fast)
        assert fast > len(packets) * 0.6


class TestChainWithDrops:
    def test_blacklisted_flows_dropped_identically(self):
        from repro.nf.ipfilter import AclRule, Verdict

        def chain():
            return [
                Monitor("monitor"),
                IPFilter(
                    "ipfilter",
                    rules=[AclRule.make(dst_ports=(11211, 11211), verdict=Verdict.DROP)],
                ),
            ]

        packets = trace_packets(flows=30, seed=301)
        baseline, speedybox, base_packets, sbox_packets, __ = run_lockstep(chain, packets)
        dropped = sum(1 for packet in sbox_packets if packet.dropped)
        if dropped == 0:
            pytest.skip("trace produced no flows to port 11211")
        # Monitor sits before the firewall: it must count dropped
        # packets too, on both paths.
        assert (
            nf_by_name(baseline, "monitor").counters
            == nf_by_name(speedybox, "monitor").counters
        )
