"""Property test: the direct aggregate add equals the transaction it replaced.

:meth:`~repro.ft.txstate.SharedAggregate.add` applies its two increments
straight to the store (:meth:`~repro.ft.txstate.TransactionalStore.add_once`).
The reference here is the add as it ran before: a ``Transaction`` that
reads both counters and writes their sums, committed through
:meth:`~repro.ft.txstate.TransactionalStore.run` under the increment's id.
Over seeded sequences of adds on two aggregates, replayed ids,
:class:`~repro.ft.txstate.SharedPortPool` acquires and releases on the
same store, and hand-opened transactions that read an aggregate's
counters (an add before their commit aborts them; no add, or a replayed
id, does not), both sides end with the same values, versions, applied
ids (each dict in the same order), commits, aborts and deduplicated
replays, and every operation returns the same result on both.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ft import SharedAggregate, SharedPortPool, TransactionalStore
from repro.ft.txstate import PortPoolExhausted, TxnConflict
from repro.net.flow import FiveTuple


def reference_add(aggregate: SharedAggregate, txn_id, packets: int = 1, bytes_: int = 0) -> bool:
    """The transaction-based add the direct one replaced."""
    store = aggregate.store
    full_id = (aggregate.name, txn_id)
    if full_id in store._applied:
        store.replays_deduped += 1
        return False

    def body(txn) -> bool:
        txn.set((aggregate.name, "packets"), txn.get((aggregate.name, "packets"), 0) + packets)
        txn.set((aggregate.name, "bytes"), txn.get((aggregate.name, "bytes"), 0) + bytes_)
        return True

    return store.run(body, txn_id=full_id)


class Side:
    """One store, two aggregates and a port pool on it."""

    def __init__(self, add):
        self.store = TransactionalStore()
        self.pool = SharedPortPool(self.store, port_range=(20000, 20005))
        self.aggregates = [SharedAggregate(self.store, name) for name in ("mon_total", "other")]
        self.add = add

    def apply(self, op):
        kind, *args = op
        if kind == "add":
            which, txn_id, packets, bytes_ = args
            return self.add(self.aggregates[which], txn_id, packets, bytes_)
        if kind == "acquire":
            try:
                return self.pool.acquire(flow(args[0]))
            except PortPoolExhausted:
                return "exhausted"
        if kind == "release":
            return self.pool.release(flow(args[0]))
        # "txn": a hand-opened transaction reads the aggregate's counters,
        # an add runs (or not) before it commits
        which, racing, txn_id = args
        aggregate = self.aggregates[which]
        txn = self.store.transaction()
        seen = txn.get((aggregate.name, "packets"), 0)
        txn.set(("mirror", aggregate.name), seen)
        added = self.add(aggregate, txn_id, 1, 7) if racing else None
        try:
            txn.commit()
        except TxnConflict:
            return ("aborted", seen, added)
        return ("committed", seen, added)

    def view(self):
        store = self.store
        return (
            list(store._values.items()),
            list(store._versions.items()),
            list(store._applied.items()),
            store.commits,
            store.aborts,
            store.replays_deduped,
        )


def flow(index: int) -> FiveTuple:
    return FiveTuple.make(f"10.0.0.{index + 1}", "99.0.0.1", 5000 + index, 80)


ids = st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4))
operations = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(min_value=0, max_value=1),
        ids,
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1500),
    ),
    st.tuples(st.just("acquire"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("release"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("txn"), st.integers(min_value=0, max_value=1), st.booleans(), ids),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(operations, max_size=40))
def test_the_direct_add_leaves_the_store_the_transaction_did(ops):
    direct = Side(lambda aggregate, *args: aggregate.add(*args))
    reference = Side(reference_add)
    for op in ops:
        assert direct.apply(op) == reference.apply(op), op
        assert direct.view() == reference.view(), op
    for ours, theirs in zip(direct.aggregates, reference.aggregates):
        assert (ours.packets, ours.bytes) == (theirs.packets, theirs.bytes)


@pytest.mark.parametrize("add", [lambda aggregate, *args: aggregate.add(*args), reference_add])
def test_a_transaction_that_read_the_counters_aborts(add):
    """The deterministic core of the conflict case: the add moves both
    counters' versions, so a transaction that read one cannot commit."""
    side = Side(add)
    assert side.apply(("add", 0, ("f", 1), 1, 60)) is True
    assert side.apply(("txn", 0, True, ("f", 2))) == ("aborted", 1, True)
    # a replayed id moves no version: the transaction commits
    assert side.apply(("txn", 0, True, ("f", 2))) == ("committed", 2, False)
    assert side.store.aborts == 1
    assert side.apply(("txn", 0, False, ("f", 3))) == ("committed", 2, None)
    assert side.store.version(("mon_total", "packets")) == 2
