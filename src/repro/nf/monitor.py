"""Monitor: per-flow packet and byte counters (§VI-C).

"Maintains packet counters for each flow, and sets each flow with a
forward action and a state function to maintain the associated counter."

The counting handler derives the flow key from the packet headers *at
invocation time*, exactly like a real monitor reading the live header.
On the fast path the consolidated header action is applied before the
state functions run, so the monitor observes the same (fully rewritten)
headers it would have seen sitting downstream of the rewriting NFs in
the original chain — including after a mid-stream Maglev reroute event.

Positional caveat (inherent to consolidation, §V-B): the fast path
applies *all* header actions before any state function, so a monitor
placed *upstream* of a header-modifying NF would observe post-rewrite
headers on the fast path.  The paper's chains (and ours) place monitors
at or after the last rewriting NF; composing otherwise is detected by
the equivalence suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.actions import Forward
from repro.core.local_mat import InstrumentationAPI
from repro.core.state_function import PayloadClass
from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.platform.costs import Operation


@dataclass
class FlowCounters:
    packets: int = 0
    bytes: int = 0


class Monitor(NetworkFunction):
    """Per-flow traffic accounting."""

    def __init__(self, name: str = "monitor", aggregate=None):
        super().__init__(name)
        self.counters: Dict[FiveTuple, FlowCounters] = {}
        #: optional :class:`repro.ft.txstate.SharedAggregate` — when set,
        #: every counted packet also lands in a cluster-shared total via
        #: an idempotent transaction keyed by (flow, per-flow count), so
        #: recovery replay cannot double-count it
        self.aggregate = aggregate

    def count_packet(self, packet: Packet) -> None:
        """The state function: update the live flow's counters.

        This very handler is what gets recorded in the Local MAT; the
        original path calls it directly, the fast path invokes it from
        the Global MAT schedule.  IGNORE payload class: counters never
        touch payload bytes.
        """
        self.charge(Operation.EXACT_MATCH_LOOKUP)
        self.charge(Operation.COUNTER_UPDATE)
        key = packet.five_tuple()
        counters = self.counters.get(key)
        if counters is None:
            counters = FlowCounters()
            self.counters[key] = counters
        counters.packets += 1
        size = packet.byte_length()
        counters.bytes += size
        if self.aggregate is not None:
            # Txn id = (flow, per-flow sequence number): replayed packets
            # recompute the same id and dedupe, so the shared total stays
            # exactly-once across failover.
            self.aggregate.add((key, counters.packets), packets=1, bytes_=size)

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        self.ingress(packet)
        fid = api.nf_extract_fid(packet)
        self.count_packet(packet)
        api.add_header_action(fid, Forward())
        api.add_state_function(
            fid,
            self.count_packet,
            PayloadClass.IGNORE,
            name="count_packet",
        )

    # -- migration hooks (repro.scale) ---------------------------------------

    def export_flow_state(self, flow: FiveTuple):
        counters = self.counters.pop(flow, None)
        if counters is None:
            return None
        return (counters.packets, counters.bytes)

    def import_flow_state(self, flow: FiveTuple, state) -> None:
        packets, bytes_ = state
        counters = self.counters.setdefault(flow, FlowCounters())
        counters.packets += packets
        counters.bytes += bytes_

    def state_snapshot(self, flow: FiveTuple):
        counters = self.counters.get(flow)
        return None if counters is None else (counters.packets, counters.bytes)

    def total_packets(self) -> int:
        return sum(counter.packets for counter in self.counters.values())

    def reset(self) -> None:
        super().reset()
        self.counters.clear()
