"""The Snort IDS network function.

The paper's integration adds 27 lines to Snort: cast the packet
inspection handlers as state functions and record a FORWARD header action
("since Snort does not modify packets").  This class is that integration:
:meth:`SnortIDS.inspect` — the per-flow inspection function — is exactly
what gets recorded in the Local MAT, with the flow key bound at record
time, so the fast path invokes the identical code the original path runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

from repro.core.actions import Forward
from repro.core.local_mat import InstrumentationAPI
from repro.core.state_function import PayloadClass
from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.nf.snort.engine import DetectionEngine, FlowMatcher, InspectionResult
from repro.nf.snort.rules import SnortRule, parse_rules
from repro.platform.costs import Operation

# Enum members hoisted off the per-packet path (a class read runs Enum's hook)
_ACL_RULE_SCAN, _EXACT_MATCH_LOOKUP = Operation.ACL_RULE_SCAN, Operation.EXACT_MATCH_LOOKUP
_PATTERN_MATCH_SETUP = Operation.PATTERN_MATCH_SETUP
_PAYLOAD_BYTE_SCAN, _READ = Operation.PAYLOAD_BYTE_SCAN, PayloadClass.READ


@dataclass(frozen=True)
class DetectionRecord:
    """One alert/log entry, comparable across baseline and SpeedyBox runs."""

    sid: int
    msg: str
    flow: FiveTuple
    action: str


class SnortIDS(NetworkFunction):
    """Mini-Snort wired into SpeedyBox."""

    def __init__(
        self,
        name: str = "snort",
        rules: Union[str, Sequence[SnortRule], None] = None,
    ):
        super().__init__(name)
        if rules is None:
            rules = []
        if isinstance(rules, str):
            rules = parse_rules(rules)
        self.engine = DetectionEngine(rules)
        self.flow_matchers: Dict[FiveTuple, FlowMatcher] = {}
        self.alerts: List[DetectionRecord] = []
        self.logs: List[DetectionRecord] = []
        self.passed_packets = 0
        self.inspected_packets = 0

    @property
    def rules(self) -> List[SnortRule]:
        return self.engine.rules

    def _matcher_for(self, flow: FiveTuple) -> FlowMatcher:
        """Observation 1: assign the rule-matching function on flow setup."""
        matcher = self.flow_matchers.get(flow)
        if matcher is None:
            # Initial packet: header-match the full rule list once.
            self.charge(_ACL_RULE_SCAN, len(self.engine.rules))
            self.charge(_PATTERN_MATCH_SETUP)
            matcher = self.engine.assign_flow_matcher(flow)
            self.flow_matchers[flow] = matcher
        return matcher

    def inspect(self, packet: Packet, flow: FiveTuple) -> InspectionResult:
        """The recorded state function (READ payload): inspect one packet."""
        self.inspected_packets += 1
        matcher = self._matcher_for(flow)
        self.charge(_EXACT_MATCH_LOOKUP)
        self.charge(_PATTERN_MATCH_SETUP)
        self.charge(_PAYLOAD_BYTE_SCAN, len(packet.payload))
        result = matcher.inspect(packet.payload)
        if result.passed:
            self.passed_packets += 1
        for rule in result.alerts:
            self.alerts.append(DetectionRecord(rule.sid, rule.msg, flow, "alert"))
        for rule in result.logs:
            self.logs.append(DetectionRecord(rule.sid, rule.msg, flow, "log"))
        return result

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        self.ingress(packet)
        flow = packet.five_tuple()
        fid = api.nf_extract_fid(packet)

        # Snort never modifies packets: FORWARD is its header action.
        api.add_header_action(fid, Forward())
        api.add_state_function(
            fid,
            self.inspect,
            _READ,
            args=(flow,),
            name="inspect",
        )
        self.inspect(packet, flow)

    def handle_flow_close(self, packet: Packet) -> None:
        self.flow_matchers.pop(packet.five_tuple(), None)

    # -- migration hooks (repro.scale) ---------------------------------------

    def export_flow_state(self, flow: FiveTuple):
        matcher = self.flow_matchers.pop(flow, None)
        if matcher is None:
            return None
        # Only the flowbits are mutable per-flow state; the candidate set
        # is a pure function of the (identical) rule config, so the
        # target re-assigns its own matcher rather than adopting one
        # wired to our engine.
        return frozenset(matcher.flowbits)

    def import_flow_state(self, flow: FiveTuple, state) -> None:
        matcher = self.engine.assign_flow_matcher(flow)
        matcher.flowbits = set(state)
        self.flow_matchers[flow] = matcher

    def state_snapshot(self, flow: FiveTuple):
        matcher = self.flow_matchers.get(flow)
        if matcher is None:
            return None
        return (
            tuple(rule.sid for rule in matcher.candidates),
            frozenset(matcher.flowbits),
        )

    def reset(self) -> None:
        super().reset()
        self.flow_matchers.clear()
        self.alerts.clear()
        self.logs.clear()
        self.passed_packets = 0
        self.inspected_packets = 0
