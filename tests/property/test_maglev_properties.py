"""Property-based tests for Maglev consistent hashing (repro.nf.maglev)."""

from hypothesis import given, settings, strategies as st

from repro.net.flow import FiveTuple
from repro.nf.maglev import Backend, MaglevTable
from tests.integration.helpers import maglev_entries, maglev_slot_share

PRIMES = [131, 257, 521, 1031]


def backends_strategy(min_size=2, max_size=8):
    return st.integers(min_size, max_size).map(
        lambda n: [Backend.make(f"b{i}", f"192.168.7.{i + 1}", 8000 + i) for i in range(n)]
    )


def flow_strategy():
    return st.builds(
        FiveTuple,
        src_ip=st.integers(0, 0xFFFFFFFF),
        dst_ip=st.integers(0, 0xFFFFFFFF),
        src_port=st.integers(0, 0xFFFF),
        dst_port=st.integers(0, 0xFFFF),
        protocol=st.just(6),
    )


class TestMaglevTableProperties:
    @given(backends=backends_strategy(), prime=st.sampled_from(PRIMES))
    @settings(max_examples=25, deadline=None)
    def test_table_fully_populated(self, backends, prime):
        table = MaglevTable(backends, table_size=prime)
        assert all(entry is not None for entry in maglev_entries(table))

    @given(backends=backends_strategy(), prime=st.sampled_from(PRIMES[:2]))
    @settings(max_examples=25, deadline=None)
    def test_all_backends_own_slots(self, backends, prime):
        table = MaglevTable(backends, table_size=prime)
        share = maglev_slot_share(table)
        assert set(share) == {backend.name for backend in backends}
        assert sum(share.values()) == prime

    @given(backends=backends_strategy(3, 6), flow=flow_strategy())
    @settings(max_examples=50, deadline=None)
    def test_lookup_stable_across_rebuilds_without_changes(self, backends, flow):
        table = MaglevTable(backends, table_size=131)
        before = table.lookup(flow).name
        table.rebuild()
        assert table.lookup(flow).name == before

    @given(backends=backends_strategy(3, 6), flows=st.lists(flow_strategy(), min_size=30, max_size=30))
    @settings(max_examples=20, deadline=None)
    def test_failure_only_remaps_failed_backends_flows_mostly(self, backends, flows):
        """Consistent hashing: flows on surviving backends mostly stay put."""
        table = MaglevTable(backends, table_size=521)
        before = {flow: table.lookup(flow).name for flow in flows}
        victim = backends[0].name
        backends[0].healthy = False
        table.rebuild()
        after = {flow: table.lookup(flow).name for flow in flows}

        for flow in flows:
            if before[flow] == victim:
                assert after[flow] != victim  # failed backend never chosen
        survivors = [flow for flow in flows if before[flow] != victim]
        if survivors:
            moved = sum(1 for flow in survivors if after[flow] != before[flow])
            assert moved <= max(2, len(survivors) // 2)

    @given(backends=backends_strategy(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_recovery_restores_original_mapping(self, backends):
        table = MaglevTable(backends, table_size=257)
        snapshot = maglev_entries(table)
        backends[0].healthy = False
        table.rebuild()
        backends[0].healthy = True
        table.rebuild()
        assert maglev_entries(table) == snapshot
