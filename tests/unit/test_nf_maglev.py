"""Unit tests for the Maglev load balancer (repro.nf.maglev)."""

import pytest

from repro.core.local_mat import NullInstrumentationAPI
from repro.net import FiveTuple, Packet
from repro.net.addresses import ip_to_str
from repro.nf.maglev import Backend, MaglevLoadBalancer, MaglevTable
from tests.integration.helpers import maglev_entries, maglev_slot_share, recover_backend


def backends(n=3):
    return [Backend.make(f"b{i}", f"192.168.1.{i + 1}", 8080) for i in range(n)]


def make_packet(sport=1000, fid=1):
    packet = Packet.from_five_tuple(FiveTuple.make("10.0.0.1", "100.0.0.1", sport, 80))
    packet.metadata["fid"] = fid
    return packet


class TestMaglevTable:
    def test_table_size_must_be_prime(self):
        with pytest.raises(ValueError):
            MaglevTable(backends(), table_size=100)

    def test_every_slot_filled(self):
        table = MaglevTable(backends(), table_size=131)
        assert all(entry is not None for entry in maglev_entries(table))

    def test_balance_within_maglev_bound(self):
        # Maglev §3.4: with M >> N the slot share is near-uniform.
        table = MaglevTable(backends(5), table_size=1031)
        share = maglev_slot_share(table)
        expected = 1031 / 5
        for count in share.values():
            assert abs(count - expected) / expected < 0.12

    def test_lookup_deterministic(self):
        table = MaglevTable(backends(), table_size=131)
        flow = FiveTuple.make("10.0.0.1", "100.0.0.1", 1000, 80)
        assert table.lookup(flow) is table.lookup(flow)

    def test_lookup_spreads_flows(self):
        table = MaglevTable(backends(), table_size=131)
        hit = {
            table.lookup(FiveTuple.make("10.0.0.1", "100.0.0.1", 1000 + i, 80)).name
            for i in range(60)
        }
        assert len(hit) == 3

    def test_minimal_disruption_on_failure(self):
        # Consistent hashing: removing one of N backends should remap
        # roughly 1/N of flows, not reshuffle everything.
        table = MaglevTable(backends(4), table_size=1031)
        flows = [FiveTuple.make("10.0.0.1", "100.0.0.1", 1000 + i, 80) for i in range(400)]
        before = {flow: table.lookup(flow).name for flow in flows}
        failed = before[flows[0]]
        for backend in table.backends:
            if backend.name == failed:
                backend.healthy = False
        table.rebuild()
        moved_but_alive = sum(
            1
            for flow in flows
            if before[flow] != failed and table.lookup(flow).name != before[flow]
        )
        alive_total = sum(1 for flow in flows if before[flow] != failed)
        # Well under half of the surviving flows should move.
        assert moved_but_alive / alive_total < 0.35

    def test_no_healthy_backends_returns_none(self):
        table = MaglevTable(backends(1), table_size=13)
        table.backends[0].healthy = False
        table.rebuild()
        assert table.lookup(FiveTuple.make("1.1.1.1", "2.2.2.2", 1, 2)) is None


class TestMaglevNF:
    def test_rewrites_destination(self):
        maglev = MaglevLoadBalancer("lb", backends=backends(), table_size=131)
        packet = make_packet()
        maglev.process(packet, NullInstrumentationAPI())
        assert ip_to_str(packet.ip.dst_ip).startswith("192.168.1.")
        assert packet.l4.dst_port == 8080

    def test_connection_stickiness(self):
        maglev = MaglevLoadBalancer("lb", backends=backends(), table_size=131)
        first = make_packet()
        maglev.process(first, NullInstrumentationAPI())
        second = make_packet()
        maglev.process(second, NullInstrumentationAPI())
        assert first.ip.dst_ip == second.ip.dst_ip

    def test_failover_selects_new_backend(self):
        maglev = MaglevLoadBalancer("lb", backends=backends(), table_size=131)
        packet = make_packet()
        maglev.process(packet, NullInstrumentationAPI())
        original = ip_to_str(packet.ip.dst_ip)
        failed_name = next(
            backend.name for backend in maglev.backends if ip_to_str(backend.ip) == original
        )
        maglev.fail_backend(failed_name)

        flow = FiveTuple.make("10.0.0.1", "100.0.0.1", 1000, 80)
        assert maglev.backend_failed(flow)
        replacement = maglev.reroute_flow(flow)
        packet2 = make_packet()
        replacement.apply(packet2)
        assert ip_to_str(packet2.ip.dst_ip) != original
        assert maglev.reroutes == 1
        assert not maglev.backend_failed(flow)  # condition clears after reroute

    def test_recover_backend(self):
        maglev = MaglevLoadBalancer("lb", backends=backends(), table_size=131)
        maglev.fail_backend("b0")
        recover_backend(maglev, "b0")
        assert maglev.backend_by_name("b0").healthy

    def test_unknown_backend_name(self):
        maglev = MaglevLoadBalancer("lb", backends=backends(), table_size=131)
        with pytest.raises(KeyError):
            maglev.fail_backend("nope")

    def test_no_healthy_backends_raises(self):
        maglev = MaglevLoadBalancer("lb", backends=backends(1), table_size=13)
        maglev.fail_backend("b0")
        with pytest.raises(RuntimeError):
            maglev.process(make_packet(), NullInstrumentationAPI())

    def test_default_backends_provided(self):
        maglev = MaglevLoadBalancer("lb", table_size=131)
        assert len(maglev.backends) == 3

    def test_reset_restores_health(self):
        maglev = MaglevLoadBalancer("lb", backends=backends(), table_size=131)
        maglev.fail_backend("b1")
        maglev.reset()
        assert all(backend.healthy for backend in maglev.backends)
        assert not maglev.conntrack
