"""MazuNAT: source NAT in the style of Click's mazu-nat.click (§VI-C).

Translates the IP and port of flows leaving an internal subnet: the
source address is rewritten to the NAT's external IP and the source port
to a freshly allocated external port.  Return traffic addressed to an
allocated (external-IP, port) pair is rewritten back.  ICMP handling is
omitted, matching the paper ("we omit irrelevant functionalities such as
ICMP packet handling").

Per the paper's Observation 1, once a mapping is allocated for a flow the
same MODIFY applies to all its packets — MazuNAT records exactly that in
its Local MAT.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Set, Tuple

from repro.core.actions import Modify
from repro.core.local_mat import InstrumentationAPI
from repro.net.addresses import ip_to_int
from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.nf.base import FlowField, NetworkFunction
from repro.platform.costs import Operation

# Enum members hoisted off the per-packet path (a class read runs Enum's hook)
_NAT_PORT_ALLOC, _EXACT_MATCH_LOOKUP = Operation.NAT_PORT_ALLOC, Operation.EXACT_MATCH_LOOKUP
_FIELD_WRITE, _CHECKSUM_UPDATE = Operation.FIELD_WRITE, Operation.CHECKSUM_UPDATE


class NatPortExhausted(RuntimeError):
    """No free external ports remain."""


class MazuNAT(NetworkFunction):
    """Source NAT with sequential port allocation and a free list."""

    #: one row per mapping, filed under the internal (outbound) tuple and
    #: reached from the return direction through ``reverse``
    flow_fields = (FlowField("mapping", "last"),)

    def __init__(
        self,
        name: str = "mazunat",
        external_ip: str = "203.0.113.1",
        internal_prefix: str = "10.0.0.0/8",
        port_range: Tuple[int, int] = (10000, 60000),
        port_pool=None,
    ):
        super().__init__(name)
        #: optional :class:`repro.ft.txstate.SharedPortPool` — when set,
        #: external ports come from cluster-shared transactional state
        #: instead of this instance's private allocator, so replicas of a
        #: NAT can never double-allocate a port and recovery replay
        #: re-acquires idempotently
        self.port_pool = port_pool
        self.external_ip = ip_to_int(external_ip)
        prefix, __, length = internal_prefix.partition("/")
        self._internal_base = ip_to_int(prefix)
        self._internal_len = int(length) if length else 32
        self.port_lo, self.port_hi = port_range
        if self.port_lo > self.port_hi:
            raise ValueError(f"invalid port range: {port_range!r}")
        self._next_port = self.port_lo
        self._free_ports: Set[int] = set()
        #: internal five-tuple -> (internal five-tuple, external ip, external port)
        self.mappings = self.flow_rows
        #: (external ip, external port, proto) -> internal five-tuple;
        #: change it only through :meth:`_bind` / :meth:`_unbind`
        self.reverse: Dict[Tuple[int, int, int], FiveTuple] = {}
        #: external port -> how many ``reverse`` keys hold it, so the
        #: allocator skips a port in use in O(1)
        self._port_uses: Counter = Counter()
        self.translations = 0

    # -- address-space helpers ----------------------------------------------

    def is_internal(self, address: int) -> bool:
        if self._internal_len == 0:
            return True
        mask = (0xFFFFFFFF << (32 - self._internal_len)) & 0xFFFFFFFF
        return (address & mask) == (self._internal_base & mask)

    def _bind(self, key: Tuple[int, int, int], flow: FiveTuple) -> None:
        if key not in self.reverse:
            self._port_uses[key[1]] += 1
        self.reverse[key] = flow
        self.mappings.touch(key)

    def _unbind(self, key: Tuple[int, int, int]) -> None:
        if self.reverse.pop(key, None) is not None:
            self.mappings.touch(key)
            uses = self._port_uses
            uses[key[1]] -= 1
            if not uses[key[1]]:
                del uses[key[1]]

    def allocate_port(self) -> int:
        # Ports held by *imported* mappings were never handed out by this
        # allocator, so both sources must skip anything already in the
        # reverse table — without the guard a migrated-in flow's external
        # port could be double-allocated.
        in_use = self._port_uses
        while self._free_ports:
            port = self._free_ports.pop()
            if port not in in_use:
                return port
        while self._next_port <= self.port_hi:
            port = self._next_port
            self._next_port += 1
            if port not in in_use:
                return port
        raise NatPortExhausted(
            f"{self.name}: external port pool {self.port_lo}-{self.port_hi} exhausted"
        )

    def release_mapping(self, flow: FiveTuple) -> bool:
        mapping = self.mappings.pop(flow)
        if mapping is None:
            return False
        __, ext_ip, ext_port = mapping
        self._unbind((ext_ip, ext_port, flow.protocol))
        if self.port_pool is not None:
            self.port_pool.release(flow)
        else:
            self._free_ports.add(ext_port)
        return True

    # -- packet processing ---------------------------------------------------

    def _outbound_action(self, flow: FiveTuple) -> Modify:
        mappings = self.mappings
        row = mappings.index.get(flow)
        if row is None:
            self.charge(_NAT_PORT_ALLOC)
            if self.port_pool is not None:
                # Idempotent per flow: a recovery replay of this packet
                # re-acquires the *same* port the pre-crash run got.
                port = self.port_pool.acquire(flow)
            else:
                port = self.allocate_port()
            mapping = (flow, self.external_ip, port)
            mappings.insert(flow, (mapping,))
            self._bind((self.external_ip, port, flow.protocol), flow)
        else:
            mapping = mappings.columns[0][row]
        __, ext_ip, ext_port = mapping
        return Modify.set(src_ip=ext_ip, src_port=ext_port)

    def _inbound_action(self, flow: FiveTuple) -> Optional[Modify]:
        internal = self.reverse.get((flow.dst_ip, flow.dst_port, flow.protocol))
        if internal is None:
            return None
        return Modify.set(dst_ip=internal.src_ip, dst_port=internal.src_port)

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        self.ingress(packet)
        flow = packet.five_tuple()
        fid = api.nf_extract_fid(packet)

        self.charge(_EXACT_MATCH_LOOKUP)
        if self.is_internal(flow.src_ip):
            action: Optional[Modify] = self._outbound_action(flow)
        else:
            action = self._inbound_action(flow)

        if action is None:
            # Unknown inbound traffic: a real MazuNAT drops it; we forward
            # to keep chains composable and record nothing but FORWARD.
            from repro.core.actions import Forward

            api.add_header_action(fid, Forward())
            return

        self.translations += 1
        self.charge(_FIELD_WRITE, len(action.ops))
        self.charge(_CHECKSUM_UPDATE)
        action.apply(packet)
        api.add_header_action(fid, action)

    def handle_flow_close(self, packet: Packet) -> None:
        flow = packet.five_tuple()
        if not self.release_mapping(flow):
            # Fast-path FIN packets already carry the rewritten header;
            # map back through the reverse table.
            internal = self.reverse.get((flow.src_ip, flow.src_port, flow.protocol))
            if internal is not None:
                self.release_mapping(internal)

    # -- migration hooks (repro.scale) ---------------------------------------

    def flow_through(self, flow: FiveTuple) -> FiveTuple:
        mappings = self.mappings
        row = mappings.index.get(flow)
        if row is not None:
            __, ext_ip, ext_port = mappings.columns[0][row]
            return FiveTuple(ext_ip, flow.dst_ip, ext_port, flow.dst_port, flow.protocol)
        internal = self.reverse.get((flow.dst_ip, flow.dst_port, flow.protocol))
        if internal is not None:
            return FiveTuple(flow.src_ip, internal.src_ip, flow.src_port, internal.src_port, flow.protocol)
        return flow

    def flow_keys(self, flow: FiveTuple) -> Tuple[object, ...]:
        """The row at ``flow``, the reverse binding its return traffic
        reads, and the row that binding names."""
        return (flow, (flow.dst_ip, flow.dst_port, flow.protocol), self.flow_place(flow))

    def flow_place(self, flow: FiveTuple) -> Optional[FiveTuple]:
        """The internal (outbound) tuple owning the flow's mapping, if any."""
        if flow in self.mappings.index:
            return flow
        return self.reverse.get((flow.dst_ip, flow.dst_port, flow.protocol))

    def drop_row(self, place: FiveTuple):
        mapping = self.mappings.pop(place)
        __, ext_ip, ext_port = mapping
        self._unbind((ext_ip, ext_port, place.protocol))
        # The port does NOT return to the free list: the mapping still
        # owns it, just on another replica now.
        return mapping

    def import_flow_state(self, flow: FiveTuple, state) -> None:
        internal, ext_ip, ext_port = state
        self.mappings.merge(internal, state)
        self._bind((ext_ip, ext_port, internal.protocol), internal)
        self._free_ports.discard(ext_port)

    def reset(self) -> None:
        super().reset()
        self.reverse.clear()
        self._port_uses.clear()
        self._free_ports.clear()
        self._next_port = self.port_lo
        self.translations = 0
