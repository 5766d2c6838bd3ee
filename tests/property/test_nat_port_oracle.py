"""MazuNAT's O(1) port allocator against the set-rebuild rule it replaced.

``MazuNAT.allocate_port`` skips every port a ``reverse`` key holds by
reading a per-port use count.  It used to rebuild the set of those ports
on every new flow; that rule is kept here as the reference
(:class:`SetRebuildNAT`).  A seeded walk interleaves new flows, releases,
FIN closes, exports, imports (of exported mappings and of mappings whose
port the allocator has not handed out yet) and resets on both NATs over a
small port range, and after every step the two must agree on the port
handed out, on every table, and on the count.
"""

import random
from collections import Counter

import pytest

from repro.core.local_mat import NullInstrumentationAPI
from repro.net import FiveTuple, Packet
from repro.net.addresses import ip_to_int
from repro.net.headers import TCP_ACK, TCP_FIN
from repro.nf.mazunat import MazuNAT, NatPortExhausted

PORTS = (10000, 10023)
EXTERNAL_IP = "203.0.113.1"


class SetRebuildNAT(MazuNAT):
    """The reference: the allocator as it was, one set per new flow."""

    def allocate_port(self) -> int:
        in_use = {port for __, port, __ in self.reverse}
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


def state(nat):
    # Both free lists see the same adds, discards and pops, so they pop
    # in the same order; the ports each allocation handed out are
    # compared step by step in the walk.
    return (nat.mappings, nat.reverse, nat._free_ports, nat._next_port, nat.translations)


def translate(nat, flow, fin=False):
    packet = Packet.from_five_tuple(flow, tcp_flags=TCP_FIN | TCP_ACK if fin else TCP_ACK)
    packet.metadata["fid"] = 1
    if fin:
        nat.handle_flow_close(packet)
        return None
    try:
        nat.process(packet, NullInstrumentationAPI())
    except NatPortExhausted:
        return "exhausted"
    return nat.mappings[flow][2]


def walk(seed, steps=400):
    """Yield one operation per step: ``(name, argument)``."""
    rng = random.Random(seed)
    live, away, fresh = [], [], 0
    for __ in range(steps):
        roll = rng.random()
        if roll < 0.45 or not live:
            fresh += 1
            flow = FiveTuple.make(f"10.0.{fresh // 250}.{fresh % 250 + 1}", "172.16.0.9",
                                  1000 + fresh, 80, protocol=6)
            live.append(flow)
            yield "new", flow
        elif roll < 0.60:
            yield "release", live.pop(rng.randrange(len(live)))
        elif roll < 0.70:
            yield "close", live.pop(rng.randrange(len(live)))
        elif roll < 0.80:
            flow = live.pop(rng.randrange(len(live)))
            away.append(flow)
            yield "export", flow
        elif roll < 0.90 and away:
            flow = away.pop(rng.randrange(len(away)))
            live.append(flow)
            yield "import", flow
        elif roll < 0.97:
            # a mapping from another replica, on a port this NAT has not
            # handed out yet (or one it has: two keys on one port)
            fresh += 1
            flow = FiveTuple.make(f"10.1.{fresh // 250}.{fresh % 250 + 1}", "172.16.0.9",
                                  2000 + fresh, 80, protocol=6)
            ext_ip = rng.choice((EXTERNAL_IP, "198.51.100.7"))
            live.append(flow)
            yield "import_foreign", (flow, ext_ip, rng.randint(*PORTS))
        else:
            live.clear()
            away.clear()
            yield "reset", None


@pytest.mark.parametrize("seed", range(12))
def test_the_counted_allocator_hands_out_what_the_set_rebuild_did(seed):
    nat = MazuNAT("nat", external_ip=EXTERNAL_IP, port_range=PORTS)
    reference = SetRebuildNAT("nat", external_ip=EXTERNAL_IP, port_range=PORTS)
    exported = {}
    kinds = Counter()
    for op, arg in walk(seed):
        kinds[op] += 1
        if op == "new":
            assert translate(nat, arg) == translate(reference, arg), op
        elif op == "release":
            assert nat.release_mapping(arg) == reference.release_mapping(arg)
        elif op == "close":
            translate(nat, arg, fin=True)
            translate(reference, arg, fin=True)
        elif op == "export":
            exported[arg] = nat.export_flow_state(arg)
            assert exported[arg] == reference.export_flow_state(arg)
        elif op == "import":
            saved = exported.pop(arg)
            if saved is not None:
                nat.import_flow_state(arg, saved)
                reference.import_flow_state(arg, saved)
        elif op == "import_foreign":
            flow, ext_ip, port = arg
            saved = (flow, ip_to_int(ext_ip), port)
            nat.import_flow_state(flow, saved)
            reference.import_flow_state(flow, saved)
        else:
            nat.reset()
            reference.reset()
            exported.clear()
        assert state(nat) == state(reference), op
        assert nat._port_uses == Counter(port for __, port, __ in nat.reverse), op
    assert all(kinds[op] for op in ("new", "release", "close", "export", "import",
                                    "import_foreign", "reset")), kinds


def test_an_imported_port_is_skipped_by_the_allocator():
    nat = MazuNAT("nat", external_ip=EXTERNAL_IP, port_range=(10000, 10002))
    foreign = FiveTuple.make("10.1.0.1", "172.16.0.9", 2000, 80, protocol=6)
    nat.import_flow_state(foreign, (foreign, ip_to_int(EXTERNAL_IP), 10000))
    flows = [FiveTuple.make(f"10.0.0.{i}", "172.16.0.9", 1000 + i, 80, protocol=6)
             for i in range(1, 4)]
    assert [translate(nat, flow) for flow in flows] == [10001, 10002, "exhausted"]
    nat.release_mapping(foreign)
    assert translate(nat, flows[2]) == 10000
