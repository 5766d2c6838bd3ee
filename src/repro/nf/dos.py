"""DoS Prevention: the Event Table walkthrough NF (Fig. 3).

Monitors per-flow counters (TCP SYNs seen, or total packets in
rate-limiter mode) and registers an event per flow: when the counter
exceeds the threshold, the flow's header action flips from FORWARD to
DROP — the exact Fig. 3 transition where ``flow1_cnt > 100`` replaces a
modify with a drop and the Global MAT re-consolidates.

The NF's own slow-path logic applies the same threshold, so baseline and
SpeedyBox behaviour stay equivalent packet-for-packet.
"""

from __future__ import annotations

from typing import Dict

from repro.core.actions import Drop, Forward
from repro.core.local_mat import InstrumentationAPI
from repro.core.state_function import PayloadClass, StateFunction
from repro.net.flow import FiveTuple, PROTO_TCP
from repro.net.headers import TCP_SYN, TCPHeader
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.platform.costs import Operation

# Enum members hoisted off the per-packet path (a class read runs Enum's hook)
_COUNTER_UPDATE, _EXACT_MATCH_LOOKUP = Operation.COUNTER_UPDATE, Operation.EXACT_MATCH_LOOKUP
_DROP_FREE, _IGNORE = Operation.DROP_FREE, PayloadClass.IGNORE


class DosPrevention(NetworkFunction):
    """Per-flow counter with a drop-above-threshold event.

    ``mode='syn'`` counts TCP SYN flags (the Fig. 3 SYN-flood detector);
    ``mode='packets'`` counts every packet (a rate limiter), which also
    exercises the event machinery on the fast path where SYNs never go.
    """

    def __init__(self, name: str = "dos-prevention", threshold: int = 100, mode: str = "syn"):
        super().__init__(name)
        if mode not in ("syn", "packets"):
            raise ValueError(f"mode must be 'syn' or 'packets', got {mode!r}")
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold!r}")
        self.threshold = threshold
        self.mode = mode
        self.counters: Dict[FiveTuple, int] = {}
        self.blocked_flows: Dict[FiveTuple, int] = {}

    def _counts(self, packet: Packet) -> bool:
        if self.mode == "packets":
            return True
        return (
            packet.ip.protocol == PROTO_TCP
            and isinstance(packet.l4, TCPHeader)
            and packet.l4.has_flag(TCP_SYN)
        )

    def track(self, packet: Packet, key: FiveTuple) -> None:
        """State function (IGNORE payload): bump the flow counter."""
        self.charge(_COUNTER_UPDATE)
        if self._counts(packet):
            self.counters[key] = self.counters.get(key, 0) + 1

    def count_blocked(self, packet: Packet, key: FiveTuple) -> None:
        """State function installed after the drop event fires.

        Mirrors the slow-path drop branch exactly, so NF internal state
        stays identical between the original chain and the fast path.
        """
        self.charge(_COUNTER_UPDATE)
        self.blocked_flows[key] = self.blocked_flows.get(key, 0) + 1

    def exceeded(self, key: FiveTuple) -> bool:
        """The event condition handler for ``key``."""
        return self.counters.get(key, 0) > self.threshold

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        self.ingress(packet)
        key = packet.five_tuple()
        fid = api.nf_extract_fid(packet)

        self.charge(_EXACT_MATCH_LOOKUP)
        # Check-then-count: a flow already over threshold is dropped on
        # arrival; otherwise the packet is counted and forwarded.  This
        # ordering makes the NF's inline behaviour packet-exact with the
        # fast path, where the Event Table's pre-check sees the counter
        # as of the *previous* packet (Fig. 3 semantics).
        if self.exceeded(key):
            self.blocked_flows[key] = self.blocked_flows.get(key, 0) + 1
            self.charge(_DROP_FREE)
            packet.drop()
            api.add_header_action(fid, Drop())
            return

        self.track(packet, key)
        api.add_header_action(fid, Forward())
        api.add_state_function(
            fid,
            self.track,
            _IGNORE,
            args=(key,),
            name="track",
        )
        blocked_sf = StateFunction(
            self.count_blocked,
            _IGNORE,
            args=(key,),
            name="count_blocked",
            nf_name=self.name,
        )
        api.register_event(
            fid,
            self.exceeded,
            args=(key,),
            update_action=Drop(),
            update_state_functions=[blocked_sf],
        )

    def reset(self) -> None:
        super().reset()
        self.counters.clear()
        self.blocked_flows.clear()
