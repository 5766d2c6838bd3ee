"""Multi-chain service direction.

Production NFV deployments run several service chains side by side and
steer each traffic class to its chain (the IETF SFC model the paper's
Chain 1 / Chain 2 are drawn from).  :class:`ServiceDirector` provides
that layer on top of SpeedyBox: classification rules map flows to named
chains, each chain wrapped in its own independent SpeedyBox runtime with
its own Local/Global MATs and Event Table — consolidation state never
leaks between tenants/classes.

The director is deliberately thin: selection happens once per packet
with the same five-tuple matching the firewall uses, then the chosen
runtime does everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.framework import ProcessReport, SpeedyBox
from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.nf.ipfilter import AclRule


@dataclass
class SteeringRule:
    """Match (AclRule semantics) → chain name."""

    match: AclRule
    chain: str


@dataclass
class DirectedReport:
    """A ProcessReport plus which chain served the packet."""

    chain: str
    report: ProcessReport


class ServiceDirector:
    """Steer flows to one of several independently consolidated chains."""

    def __init__(
        self,
        chains: Dict[str, Sequence[NetworkFunction]],
        rules: Sequence[SteeringRule],
        default_chain: Optional[str] = None,
    ):
        if not chains:
            raise ValueError("the director needs at least one chain")
        self.runtimes: Dict[str, SpeedyBox] = {name: SpeedyBox(nfs) for name, nfs in chains.items()}
        for rule in rules:
            if rule.chain not in self.runtimes:
                raise ValueError(f"steering rule targets unknown chain {rule.chain!r}")
        if default_chain is None:
            default_chain = next(iter(chains))
        if default_chain not in self.runtimes:
            raise ValueError(f"unknown default chain {default_chain!r}")
        self.rules: List[SteeringRule] = list(rules)
        self.default_chain = default_chain
        #: flow -> chain pin: a flow must stay on one chain for its lifetime
        #: even if steering rules are edited mid-run.
        self._pins: Dict[FiveTuple, str] = {}
        self.per_chain_packets: Dict[str, int] = {name: 0 for name in self.runtimes}

    def select_chain(self, flow: FiveTuple) -> str:
        """First matching steering rule wins; otherwise the default."""
        pinned = self._pins.get(flow)
        if pinned is not None:
            return pinned
        for rule in self.rules:
            if rule.match.matches(flow):
                return rule.chain
        return self.default_chain

    def process(self, packet: Packet) -> DirectedReport:
        flow = packet.five_tuple()
        chain = self.select_chain(flow)
        self._pins[flow] = chain
        self.per_chain_packets[chain] += 1
        report = self.runtimes[chain].process(packet)
        if getattr(report, "closing", False):
            self._pins.pop(flow, None)
        return DirectedReport(chain=chain, report=report)

    def runtime(self, chain: str) -> SpeedyBox:
        return self.runtimes[chain]

    def add_rule(self, rule: SteeringRule) -> None:
        """Put a steering rule ahead of the others (live flows stay pinned
        to their chain)."""
        if rule.chain not in self.runtimes:
            raise ValueError(f"steering rule targets unknown chain {rule.chain!r}")
        self.rules.insert(0, rule)

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-chain runtime statistics."""
        return {name: runtime.stats() for name, runtime in self.runtimes.items()}

    def reset(self) -> None:
        for runtime in self.runtimes.values():
            runtime.reset()
        self._pins.clear()
        self.per_chain_packets = {name: 0 for name in self.runtimes}
