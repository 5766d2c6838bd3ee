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

from repro.core.actions import Forward
from repro.core.local_mat import InstrumentationAPI
from repro.core.state_function import PayloadClass
from repro.net.packet import Packet
from repro.nf.base import FlowField, NetworkFunction
from repro.platform.costs import Operation

# hoisted: reading an Enum member through its class costs a hook call (CPython 3.11)
_EXACT_MATCH_LOOKUP = Operation.EXACT_MATCH_LOOKUP
_COUNTER_UPDATE = Operation.COUNTER_UPDATE
_IGNORE = PayloadClass.IGNORE


class Monitor(NetworkFunction):
    """Per-flow traffic accounting."""

    flow_fields = (FlowField("packets", "count"), FlowField("bytes", "add"))

    def __init__(self, name: str = "monitor", aggregate=None):
        super().__init__(name)
        #: flow -> (packets, bytes)
        self.counters = self.flow_rows
        self._row_of = self.counters.index
        self._packets, self._bytes = self.counters.columns
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
        meter = self.meter  # charged directly: this runs on every fast-path packet
        meter.charge(_EXACT_MATCH_LOOKUP)
        meter.charge(_COUNTER_UPDATE)
        key = packet.five_tuple()
        row = self._row_of.get(key)
        if row is None:
            row = self.counters.insert(key, (0, 0))
        self._packets[row] += 1
        size = packet.byte_length()
        self._bytes[row] += size
        if self.aggregate is not None:
            # Txn id = (flow, per-flow sequence number): replayed packets
            # recompute the same id and dedupe, so the shared total stays
            # exactly-once across failover.
            self.aggregate.add((key, self._packets[row]), packets=1, bytes_=size)

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        self.ingress(packet)
        fid = api.nf_extract_fid(packet)
        self.count_packet(packet)
        api.add_header_action(fid, Forward())
        api.add_state_function(
            fid,
            self.count_packet,
            _IGNORE,
            name="count_packet",
        )

    def total_packets(self) -> int:
        return sum(self._packets[row] for row in self._row_of.values())
