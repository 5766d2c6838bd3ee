"""Maglev: Google's software load balancer (§VI-C).

Maglev is not open source; like the paper, we "implement our Maglev NF
logic by closely following the consistent hashing algorithm presented in
Section 3.4 of Maglev's paper": every backend gets a permutation of the
lookup-table slots derived from two hashes of its name (offset, skip),
and the table is populated by round-robin turns where each backend claims
the next unclaimed slot of its permutation.  The table size must be prime
so that every (offset, skip) pair generates a full permutation.

The NF keeps per-flow connection tracking (flows stick to their backend)
and registers a SpeedyBox event per flow: if the chosen backend becomes
unhealthy, the flow is rerouted to the backend the rebuilt table selects,
replacing the recorded ``modify(DIP, DPort)`` — the paper's canonical
Observation 2 example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.actions import Modify
from repro.core.local_mat import InstrumentationAPI
from repro.core.state_function import PayloadClass
from repro.net.addresses import ip_to_int, ip_to_str
from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.nf.base import FlowField, NetworkFunction
from repro.platform.costs import Operation

# Enum members hoisted off the per-packet path (a class read runs Enum's hook)
_CONNECTION_TRACK, _HASH_COMPUTE = Operation.CONNECTION_TRACK, Operation.HASH_COMPUTE
_EXACT_MATCH_LOOKUP, _IGNORE = Operation.EXACT_MATCH_LOOKUP, PayloadClass.IGNORE
_FIELD_WRITE, _CHECKSUM_UPDATE = Operation.FIELD_WRITE, Operation.CHECKSUM_UPDATE


def _is_prime(value: int) -> bool:
    if value < 2:
        return False
    if value % 2 == 0:
        return value == 2
    divisor = 3
    while divisor * divisor <= value:
        if value % divisor == 0:
            return False
        divisor += 2
    return True


def _fnv1a(data: bytes, seed: int) -> int:
    value = (0xCBF29CE484222325 ^ seed) & 0xFFFFFFFFFFFFFFFF
    for byte in data:
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


@dataclass
class Backend:
    """One load-balanced server.

    ``weight`` skews the consistent-hashing slot share: a backend with
    weight 2 takes twice as many population turns as weight 1 (the
    weighting scheme sketched in Maglev §3.4).
    """

    name: str
    ip: int
    port: int
    healthy: bool = True
    weight: int = 1

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(f"backend weight must be positive, got {self.weight!r}")

    @classmethod
    def make(cls, name: str, ip: str, port: int, weight: int = 1) -> "Backend":
        return cls(name=name, ip=ip_to_int(ip), port=port, weight=weight)

    def __str__(self) -> str:
        state = "up" if self.healthy else "DOWN"
        return f"{self.name}@{ip_to_str(self.ip)}:{self.port} ({state})"


class MaglevTable:
    """The consistent-hashing lookup table of Maglev §3.4."""

    def __init__(self, backends: Sequence[Backend], table_size: int = 65537):
        if not _is_prime(table_size):
            raise ValueError(f"Maglev table size must be prime, got {table_size}")
        self.table_size = table_size
        self.backends: List[Backend] = list(backends)
        self._entries: List[Optional[Backend]] = [None] * table_size
        self.rebuild()

    def _permutation_params(self, backend: Backend) -> tuple:
        name_bytes = backend.name.encode()
        offset = _fnv1a(name_bytes, seed=0x01) % self.table_size
        skip = _fnv1a(name_bytes, seed=0x02) % (self.table_size - 1) + 1
        return offset, skip

    def rebuild(self) -> None:
        """Populate the table from the healthy backends (Maglev Fig. 5).

        Weighted backends take ``weight`` consecutive turns per round, so
        their slot share is proportional to weight.
        """
        healthy = [backend for backend in self.backends if backend.healthy]
        entries: List[Optional[Backend]] = [None] * self.table_size
        if not healthy:
            self._entries = entries
            return
        params = [self._permutation_params(backend) for backend in healthy]
        next_index = [0] * len(healthy)
        filled = 0
        while filled < self.table_size:
            for position, backend in enumerate(healthy):
                offset, skip = params[position]
                for __ in range(backend.weight):
                    # Walk this backend's permutation to its next free slot.
                    while True:
                        slot = (offset + next_index[position] * skip) % self.table_size
                        next_index[position] += 1
                        if entries[slot] is None:
                            entries[slot] = backend
                            filled += 1
                            break
                    if filled == self.table_size:
                        break
                if filled == self.table_size:
                    break
        self._entries = entries

    def lookup(self, flow: FiveTuple) -> Optional[Backend]:
        """Hash the five-tuple to a slot; return the owning backend."""
        if not any(backend.healthy for backend in self.backends):
            return None
        data = bytes(
            part
            for value, width in (
                (flow.src_ip, 4),
                (flow.dst_ip, 4),
                (flow.src_port, 2),
                (flow.dst_port, 2),
                (flow.protocol, 1),
            )
            for part in value.to_bytes(width, "big")
        )
        slot = _fnv1a(data, seed=0x10) % self.table_size
        return self._entries[slot]

class MaglevLoadBalancer(NetworkFunction):
    """The Maglev NF: VIP traffic is rewritten to a tracked backend."""

    #: the tracked backend, by name: a replica resolves it to its own
    #: Backend objects (with their own health state)
    flow_fields = (FlowField("backend", "last"),)

    def __init__(
        self,
        name: str = "maglev",
        backends: Sequence[Backend] = (),
        table_size: int = 65537,
    ):
        super().__init__(name)
        if not backends:
            backends = [
                Backend.make("backend-1", "192.168.1.1", 8080),
                Backend.make("backend-2", "192.168.1.2", 8080),
                Backend.make("backend-3", "192.168.1.3", 8080),
            ]
        self.table = MaglevTable(backends, table_size=table_size)
        self._named = {backend.name: backend for backend in self.table.backends}
        self._row_of = self.flow_rows.index
        (self._tracked,) = self.flow_rows.columns
        self.reroutes = 0

    @property
    def backends(self) -> List[Backend]:
        return self.table.backends

    @property
    def conntrack(self) -> Dict[FiveTuple, Backend]:
        """Connection tracking (sticky routing): flow -> its Backend."""
        return {flow: self._named[name] for flow, name in self.flow_rows.items()}

    def backend_by_name(self, name: str) -> Backend:
        backend = self._named.get(name)
        if backend is None:
            raise KeyError(f"no backend named {name!r}")
        return backend

    def tracked(self, flow: FiveTuple) -> Optional[Backend]:
        """The backend ``flow`` sticks to, if tracked."""
        row = self._row_of.get(flow)
        return None if row is None else self._named[self._tracked[row]]

    def fail_backend(self, name: str) -> None:
        """Mark a backend unhealthy and rebuild the lookup table."""
        self.backend_by_name(name).healthy = False
        self.table.rebuild()

    # -- per-flow selection and the failure event -----------------------------

    def select_backend(self, flow: FiveTuple) -> Backend:
        row = self._row_of.get(flow)
        backend = None if row is None else self._named[self._tracked[row]]
        if backend is not None and backend.healthy:
            return backend
        selected = self.table.lookup(flow)
        if selected is None:
            raise RuntimeError(f"{self.name}: no healthy backends")
        if row is None:
            self.flow_rows.insert(flow, (selected.name,))
        else:
            self.reroutes += 1
            self._tracked[row] = selected.name
            self.flow_rows.touch(flow)
        return selected

    def backend_failed(self, flow: FiveTuple) -> bool:
        """Event condition: the flow's tracked backend went unhealthy."""
        row = self._row_of.get(flow)  # evaluated twice per fast-path packet
        return row is not None and not self._named[self._tracked[row]].healthy

    def reroute_flow(self, flow: FiveTuple) -> Modify:
        """Event update function: re-select and return the new MODIFY."""
        self.charge(_HASH_COMPUTE)
        backend = self.select_backend(flow)
        return Modify.set(dst_ip=backend.ip, dst_port=backend.port)

    def track(self, packet: Packet, flow: FiveTuple) -> None:
        """State function (IGNORE payload): per-packet conntrack touch."""
        self.meter.charge(_CONNECTION_TRACK)  # direct: runs on every fast-path packet

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        self.ingress(packet)
        flow = packet.five_tuple()
        fid = api.nf_extract_fid(packet)

        self.charge(_EXACT_MATCH_LOOKUP)
        row = self._row_of.get(flow)
        if row is None or not self._named[self._tracked[row]].healthy:
            self.charge(_HASH_COMPUTE)
        backend = self.select_backend(flow)

        action = Modify.set(dst_ip=backend.ip, dst_port=backend.port)
        self.charge(_FIELD_WRITE, len(action.ops))
        self.charge(_CHECKSUM_UPDATE)
        action.apply(packet)

        api.add_header_action(fid, action)
        api.add_state_function(
            fid,
            self.track,
            _IGNORE,
            args=(flow,),
            name="track",
        )
        # one_shot=False: after a reroute the condition goes false (the
        # flow now tracks a healthy backend), so the event re-arms itself
        # and later failures of the *new* backend trigger again.
        api.register_event(
            fid,
            self.backend_failed,
            args=(flow,),
            update_function_handler=self.reroute_flow,
            one_shot=False,
        )
        self.track(packet, flow)

    def handle_flow_close(self, packet: Packet) -> None:
        self.flow_rows.pop(packet.five_tuple())

    # -- migration hooks (repro.scale) ---------------------------------------

    def flow_through(self, flow: FiveTuple) -> FiveTuple:
        backend = self.tracked(flow)
        if backend is not None:
            return FiveTuple(flow.src_ip, backend.ip, flow.src_port, backend.port, flow.protocol)
        return flow

    def reset(self) -> None:
        super().reset()
        self.reroutes = 0
        for backend in self.table.backends:
            backend.healthy = True
        self.table.rebuild()
