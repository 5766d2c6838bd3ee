"""Unit tests for the discrete-event engine (repro.sim.engine)."""

import pytest

from repro.sim import Engine, Get, Put, SimulationError, Store, Timeout


def test_clock_starts_at_zero():
    engine = Engine()
    assert engine.now == 0.0


def test_timeout_advances_clock():
    engine = Engine()
    times = []

    def proc():
        yield Timeout(5.0)
        times.append(engine.now)
        yield Timeout(2.5)
        times.append(engine.now)

    engine.add_process(proc())
    engine.run()
    assert times == [5.0, 7.5]


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1.0)


def test_zero_timeout_allowed():
    engine = Engine()
    seen = []

    def proc():
        yield Timeout(0.0)
        seen.append(engine.now)

    engine.add_process(proc())
    engine.run()
    assert seen == [0.0]




def test_ties_broken_by_insertion_order():
    engine = Engine()
    order = []

    def proc(tag):
        yield Timeout(1.0)
        order.append(tag)

    engine.add_process(proc("a"))
    engine.add_process(proc("b"))
    engine.add_process(proc("c"))
    engine.run()
    assert order == ["a", "b", "c"]












def test_unsupported_yield_raises():
    engine = Engine()

    def bad():
        yield "not a command"

    engine.add_process(bad())
    with pytest.raises(SimulationError):
        engine.run()


def test_store_put_get_fifo():
    engine = Engine()
    store = Store(engine)
    got = []

    def producer():
        for i in range(3):
            yield Put(store, i)
            yield Timeout(1.0)

    def consumer():
        for __ in range(3):
            item = yield Get(store)
            got.append(item)

    engine.add_process(producer())
    engine.add_process(consumer())
    engine.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    engine = Engine()
    store = Store(engine)
    got = []

    def consumer():
        item = yield Get(store)
        got.append((engine.now, item))

    def producer():
        yield Timeout(7.0)
        yield Put(store, "pkt")

    engine.add_process(consumer())
    engine.add_process(producer())
    engine.run()
    assert got == [(7.0, "pkt")]


def test_store_capacity_blocks_producer():
    engine = Engine()
    store = Store(engine, capacity=1)
    timeline = []

    def producer():
        yield Put(store, "a")
        timeline.append(("put-a", engine.now))
        yield Put(store, "b")
        timeline.append(("put-b", engine.now))

    def consumer():
        yield Timeout(10.0)
        item = yield Get(store)
        timeline.append(("got-" + item, engine.now))

    engine.add_process(producer())
    engine.add_process(consumer())
    engine.run()
    # The second put can only complete once the consumer drains one slot.
    assert ("put-a", 0.0) in timeline
    assert ("put-b", 10.0) in timeline
    # ... and the store counted the one put that waited, and the get
    # that did not.
    assert (store.blocked_puts, store.blocked_gets) == (1, 0)


def test_store_invalid_capacity():
    engine = Engine()
    with pytest.raises(SimulationError):
        Store(engine, capacity=0)


def test_store_watermark_and_counters():
    engine = Engine()
    store = Store(engine)

    def producer():
        for i in range(5):
            yield Put(store, i)

    def consumer():
        yield Timeout(1.0)
        for __ in range(5):
            yield Get(store)

    engine.add_process(producer())
    engine.add_process(consumer())
    engine.run()
    assert store.total_put == 5
    assert store.total_got == 5
    assert store.high_watermark == 5
    assert len(store) == 0
    assert (store.blocked_puts, store.blocked_gets) == (0, 0)










def test_determinism_two_runs_identical():
    def build_and_run():
        engine = Engine()
        store = Store(engine, capacity=4)
        trace = []

        def producer():
            for i in range(20):
                yield Put(store, i)
                yield Timeout(1.5)

        def consumer():
            for __ in range(20):
                item = yield Get(store)
                trace.append((engine.now, item))
                yield Timeout(2.0)

        engine.add_process(producer())
        engine.add_process(consumer())
        engine.run()
        return trace

    assert build_and_run() == build_and_run()
