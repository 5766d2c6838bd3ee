"""The transactional shared-state store: commit/abort, idempotence, pools.

The store's contract is what makes cross-replica state safe: optimistic
per-key validation catches interleaved writers, remembered transaction
ids make recovery replay commit exactly once, and the two chain clients
(NAT port pool, monitor aggregate) inherit both properties.
"""

import pytest

from repro.ft import (
    PortPoolExhausted,
    SharedAggregate,
    SharedPortPool,
    TransactionalStore,
    TxnConflict,
)
from repro.net.flow import FiveTuple
from repro.nf import Monitor
from repro.traffic import FlowSpec, TrafficGenerator


def tcp_flow(i: int) -> FiveTuple:
    return FiveTuple(
        src_ip=0x0A000000 + i, dst_ip=0x63020001, src_port=6000 + i,
        dst_port=80, protocol=6,
    )


class TestTransactionalStore:
    def test_commit_applies_writes_and_bumps_versions(self):
        store = TransactionalStore()
        txn = store.transaction()
        txn.set("a", 1)
        txn.set("b", 2)
        txn.commit()
        assert store.get("a") == 1 and store.get("b") == 2
        assert store.version("a") == 1 and store.version("b") == 1
        assert store.commits == 1

    def test_read_validation_aborts_on_concurrent_write(self):
        store = TransactionalStore()
        store.run(lambda t: t.set("k", 0))
        txn = store.transaction()
        assert txn.get("k") == 0
        # another writer sneaks in between read and commit
        store.run(lambda t: t.set("k", 99))
        txn.set("k", 1)
        with pytest.raises(TxnConflict):
            txn.commit()
        assert store.get("k") == 99
        assert store.aborts == 1

    def test_run_retries_through_conflicts(self):
        store = TransactionalStore()
        store.run(lambda t: t.set("k", 0))
        attempts = []

        def body(txn):
            value = txn.get("k")
            if not attempts:
                # first attempt: invalidate our own read before commit
                store.run(lambda t: t.set("k", value + 10))
            attempts.append(value)
            txn.set("k", txn.get("k") + 1)
            return txn.get("k")

        result = store.run(body)
        assert len(attempts) == 2  # aborted once, then succeeded
        assert result == store.get("k") == 11

    def test_txn_id_dedupes_replay(self):
        store = TransactionalStore()

        def increment(txn):
            txn.set("count", txn.get("count", 0) + 1)
            return txn.get("count")

        first = store.run(increment, txn_id="pkt-1")
        again = store.run(increment, txn_id="pkt-1")
        assert first == again == 1
        assert store.get("count") == 1
        assert store.replays_deduped == 1
        assert store._applied["pkt-1"] == 1

    def test_delete_round_trips_through_staging(self):
        store = TransactionalStore()
        store.run(lambda t: t.set("k", 5))
        txn = store.transaction()
        txn.delete("k")
        assert txn.get("k") is None  # staged delete visible to the txn
        txn.commit()
        assert store.get("k") is None
        assert store.version("k") == 2  # delete still bumps the version


class TestSharedPortPool:
    def test_sequential_allocation_matches_private_allocator(self):
        pool = SharedPortPool(TransactionalStore(), port_range=(20000, 60000))
        ports = [pool.acquire(tcp_flow(i)) for i in range(5)]
        assert ports == [20000, 20001, 20002, 20003, 20004]

    def test_acquire_is_idempotent_per_flow(self):
        pool = SharedPortPool(TransactionalStore(), port_range=(20000, 60000))
        flow = tcp_flow(1)
        assert pool.acquire(flow) == pool.acquire(flow) == 20000
        assert pool.acquire(tcp_flow(2)) == 20001  # no hole, no dupe

    def test_no_double_allocation_across_clients(self):
        # Two pool handles over one store model two replicas' NATs.
        store = TransactionalStore()
        a = SharedPortPool(store, port_range=(20000, 60000))
        b = SharedPortPool(store, port_range=(20000, 60000))
        seen = set()
        for i in range(16):
            port = (a if i % 2 else b).acquire(tcp_flow(i))
            assert port not in seen
            seen.add(port)

    def test_release_reuses_in_order(self):
        pool = SharedPortPool(TransactionalStore(), port_range=(20000, 60000))
        for i in range(3):
            pool.acquire(tcp_flow(i))
        assert pool.release(tcp_flow(0)) is True
        assert pool.release(tcp_flow(0)) is False  # idempotent
        assert pool.release(tcp_flow(2)) is True
        # freed ports come back FIFO, before the sequential cursor
        assert pool.acquire(tcp_flow(10)) == 20000
        assert pool.acquire(tcp_flow(11)) == 20002
        assert pool.acquire(tcp_flow(12)) == 20003

    def test_exhaustion(self):
        pool = SharedPortPool(TransactionalStore(), port_range=(20000, 20001))
        pool.acquire(tcp_flow(0))
        pool.acquire(tcp_flow(1))
        with pytest.raises(PortPoolExhausted):
            pool.acquire(tcp_flow(2))

    def test_ownership_introspection(self):
        pool = SharedPortPool(TransactionalStore(), port_range=(20000, 60000))
        flow = tcp_flow(3)
        port = pool.acquire(flow)
        assert pool.store.get((pool.name, "byflow", flow)) == port
        assert pool.store.get((pool.name, "owner", port)) == flow
        assert pool.allocated() == {flow: port}


class TestSharedAggregate:
    def test_counts_and_dedupes(self):
        store = TransactionalStore()
        agg = SharedAggregate(store, name="mon")
        assert agg.add(("f1", 1), packets=1, bytes_=100) is True
        assert agg.add(("f1", 2), packets=1, bytes_=50) is True
        # recovery replays packet 1 of flow f1: same id, no double count
        assert agg.add(("f1", 1), packets=1, bytes_=100) is False
        assert agg.packets == 2 and agg.bytes == 150
        assert store.replays_deduped == 1

    def test_monitor_replay_of_a_flow_and_count_is_deduped(self):
        """The monitor's txn id is ``(five-tuple, per-flow count)``: a
        replica restored to the flow's counters after packet 1 replays
        packets 2 and 3 under the very ids they first committed with."""
        store = TransactionalStore()
        agg = SharedAggregate(store, name="mon")
        spec = FlowSpec.tcp("10.0.0.1", "99.2.0.1", 6001, 80, packets=3, handshake=False)
        packets = TrafficGenerator([spec], seed=1).packets()
        key = packets[0].five_tuple()
        live = Monitor("mon", aggregate=agg)
        live.count_packet(packets[0])
        snapshot = live.export_flow_state(key)
        live.import_flow_state(key, snapshot)
        for packet in packets[1:]:
            live.count_packet(packet)
        assert ("mon", (key, 3)) in store._applied

        restored = Monitor("mon", aggregate=agg)
        restored.import_flow_state(key, snapshot)
        for packet in packets[1:]:
            restored.count_packet(packet)
        assert agg.packets == 3 and store.replays_deduped == 2
        assert restored.state_snapshot(key) == live.state_snapshot(key)

    def test_independent_aggregates_share_one_store(self):
        store = TransactionalStore()
        a = SharedAggregate(store, name="a")
        b = SharedAggregate(store, name="b")
        a.add(("f", 1))
        b.add(("f", 1))  # same inner id, different aggregate: both count
        assert a.packets == 1 and b.packets == 1
