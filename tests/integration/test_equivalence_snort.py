"""§VII-C(1): Snort equivalence across conditional branches.

"We inject three sets of flows containing suspicious payloads that match
all the three types of inspection rules (Pass/Alert/Log) of Snort to
cover the conditional branches sufficiently.  We examine and find the log
outputs are identical."
"""

from repro.nf import Monitor, SnortIDS
from repro.nf.snort.rules import RuleAction, parse_rules
from repro.traffic import FlowSpec, PayloadSynthesizer, TrafficGenerator
from tests.integration.helpers import matching_action, nf_by_name, run_lockstep

RULES_TEXT = """
alert tcp any any -> any 80 (msg:"exploit attempt"; content:"exploit"; sid:1001;)
alert tcp any any -> any 80 (msg:"shellcode"; content:"|90 90 90 90|"; sid:1002;)
log tcp any any -> any 80 (msg:"scanner ua"; content:"nmap"; nocase; sid:2001;)
pass tcp 10.0.0.100 any -> any 80 (msg:"trusted scanner"; sid:3001;)
"""

RULES = parse_rules(RULES_TEXT)


def build_chain():
    return [SnortIDS("snort", RULES_TEXT), Monitor("monitor")]


def three_branch_traffic():
    """Flows covering alert, log and pass branches, plus a clean one."""
    synth = PayloadSynthesizer(RULES)
    alert_payload = matching_action(synth, RuleAction.ALERT)
    log_payload = matching_action(synth, RuleAction.LOG)
    benign = synth.benign()

    flows = [
        # Branch 1: alert rule fires.
        FlowSpec.tcp("10.0.0.1", "20.0.0.1", 1001, 80, packets=6, payload=alert_payload,
                     handshake=True, fin=True),
        # Branch 2: log rule fires (nocase content).
        FlowSpec.tcp("10.0.0.2", "20.0.0.1", 1002, 80, packets=6, payload=log_payload,
                     handshake=True, fin=True),
        # Branch 3: trusted host — pass rule suppresses the alert.
        FlowSpec.tcp("10.0.0.100", "20.0.0.1", 1003, 80, packets=6, payload=alert_payload,
                     handshake=True, fin=True),
        # Clean flow: no rule matches.
        FlowSpec.tcp("10.0.0.3", "20.0.0.1", 1004, 80, packets=6, payload=benign,
                     handshake=True, fin=True),
    ]
    return TrafficGenerator(flows, interleave="round_robin").packets()


class TestSnortEquivalence:
    def test_log_outputs_identical(self):
        packets = three_branch_traffic()
        baseline, speedybox, *_ = run_lockstep(build_chain, packets)

        base_snort = nf_by_name(baseline, "snort")
        sbox_snort = nf_by_name(speedybox, "snort")

        assert base_snort.alerts == sbox_snort.alerts
        assert base_snort.logs == sbox_snort.logs
        assert base_snort.passed_packets == sbox_snort.passed_packets

    def test_all_three_branches_exercised(self):
        packets = three_branch_traffic()
        baseline, *_ = run_lockstep(build_chain, packets)
        snort = nf_by_name(baseline, "snort")
        assert snort.alerts, "alert branch not covered"
        assert snort.logs, "log branch not covered"
        assert snort.passed_packets, "pass branch not covered"

    def test_alert_flow_attribution_identical(self):
        packets = three_branch_traffic()
        baseline, speedybox, *_ = run_lockstep(build_chain, packets)
        base_flows = [record.flow for record in nf_by_name(baseline, "snort").alerts]
        sbox_flows = [record.flow for record in nf_by_name(speedybox, "snort").alerts]
        assert base_flows == sbox_flows

    def test_monitor_counters_identical(self):
        packets = three_branch_traffic()
        baseline, speedybox, *_ = run_lockstep(build_chain, packets)
        assert nf_by_name(baseline, "monitor").counters == nf_by_name(speedybox, "monitor").counters

    def test_most_packets_took_fast_path(self):
        packets = three_branch_traffic()
        __, speedybox, __, __, reports = run_lockstep(build_chain, packets)
        fast = sum(1 for report in reports if report.is_fast)
        # 4 flows x (1 SYN + 1 initial + 1 FIN-adjacent accounting):
        # everything after each flow's initial data packet is fast.
        assert fast >= len(packets) - 4 * 2 - 1
        assert speedybox.fast_packets == fast
