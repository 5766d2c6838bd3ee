"""The Snort detection engine.

Mirrors the structure the paper relies on (Observation 1): when a flow's
initial packet arrives, the engine *assigns a rule-matching function* for
the flow — the subset of rules whose header part covers the five-tuple,
compiled into a :class:`FlowMatcher` — and the same matcher is invoked
for every subsequent packet.

Each candidate rule is decided by :meth:`SnortRule.payload_matches`
alone: its contents in order through :meth:`ContentOption.match_end`
(a ``bytes`` search, at C speed), then its pcre.  Real Snort prescans
every payload with one Aho–Corasick pass over all rules' contents, but
that prescan is only a necessary condition, so the verdicts are the
same; the prescan engine lives beside the tests as their oracle, and the
cost model still charges Snort's scan per payload byte.  ``pass`` rules
suppress ``alert``/``log`` verdicts for packets they match, covering the
three conditional branches of §VII-C1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.net.flow import FiveTuple
from repro.nf.snort.rules import RuleAction, SnortRule

_ALERT = RuleAction.ALERT  # hoisted: a class read runs Enum's hook


@dataclass
class InspectionResult:
    """Outcome of inspecting one payload for one flow."""

    alerts: List[SnortRule] = field(default_factory=list)
    logs: List[SnortRule] = field(default_factory=list)
    passed: bool = False  # a pass rule matched and suppressed the rest

    @property
    def verdict(self) -> str:
        if self.passed:
            return "pass"
        if self.alerts:
            return "alert"
        if self.logs:
            return "log"
        return "clean"


class FlowMatcher:
    """The per-flow rule-matching function Snort assigns on flow setup.

    Holds the flow's *flowbits* — per-flow cross-packet state mutated by
    matching rules — which is exactly the "packet processing updates
    states and states decide packet data path" coupling of the paper's
    Challenge 2: the matcher is stateful, and SpeedyBox carries it to the
    fast path as a recorded state function.
    """

    __slots__ = ("flow", "candidates", "flowbits", "_passes", "_others")

    def __init__(self, flow: FiveTuple, candidates: Sequence[SnortRule]):
        self.flow = flow
        self.candidates: Tuple[SnortRule, ...] = tuple(candidates)
        self.flowbits: set = set()
        self._passes = tuple(r for r in self.candidates if r.action is RuleAction.PASS)
        self._others = tuple(r for r in self.candidates if r.action is not RuleAction.PASS)

    def __len__(self) -> int:
        return len(self.candidates)

    def inspect(self, payload: bytes) -> InspectionResult:
        """Evaluate all candidate rules against one payload, in rule order.

        A matching rule's flowbits mutations apply immediately, so later
        rules in the same packet observe them.  A matching ``pass`` rule
        short-circuits the packet entirely (Snort's pass precedence).
        """
        bits = self.flowbits
        result = InspectionResult()

        # Pass precedence: a pass rule matching this packet exempts it.
        for rule in self._passes:
            if rule.flowbits_allow(bits) and rule.payload_matches(payload):
                result.passed = True
                return result

        for rule in self._others:
            if not rule.flowbits_allow(bits) or not rule.payload_matches(payload):
                continue
            rule.flowbits_apply(bits)
            if rule.suppresses_output:
                continue
            if rule.action is _ALERT:
                result.alerts.append(rule)
            else:
                result.logs.append(rule)
        return result

    def __repr__(self) -> str:
        return f"<FlowMatcher {self.flow} ({len(self.candidates)} rules)>"


class DetectionEngine:
    """Rule set + per-flow matcher factory."""

    def __init__(self, rules: Sequence[SnortRule]):
        self.rules: List[SnortRule] = list(rules)
        if any(not content.pattern for rule in self.rules for content in rule.contents):
            raise ValueError("empty pattern")

    def __len__(self) -> int:
        return len(self.rules)

    def assign_flow_matcher(self, flow: FiveTuple) -> FlowMatcher:
        """Header-match every rule once; compile the flow's matcher."""
        return FlowMatcher(flow, [rule for rule in self.rules if rule.header_matches(flow)])
