"""Unit tests for state-function parallelism (repro.core.parallel, Table I)."""

from repro.core.parallel import (
    batches_parallelizable,
    build_schedule,
    payload_classes_parallelizable,
)
from repro.core.state_function import PayloadClass, StateFunction, StateFunctionBatch
from repro.net import FiveTuple, Packet
from tests.integration.helpers import (
    execute_batch,
    execute_schedule,
    max_wave_width,
    schedule_batches,
)

W, R, I = PayloadClass.WRITE, PayloadClass.READ, PayloadClass.IGNORE


def make_batch(nf_name, payload_class):
    batch = StateFunctionBatch(nf_name)
    batch.add(StateFunction(lambda pkt: None, payload_class, name=nf_name))
    return batch


class TestTableIRule:
    def test_write_write_conflicts(self):
        assert not payload_classes_parallelizable(W, W)

    def test_write_read_conflicts_both_directions(self):
        # "if batch1 writes the payload, they cannot be parallelized
        # unless batch2 ignores the payload" — and symmetrically.
        assert not payload_classes_parallelizable(W, R)
        assert not payload_classes_parallelizable(R, W)

    def test_write_ignore_parallelizable(self):
        assert payload_classes_parallelizable(W, I)
        assert payload_classes_parallelizable(I, W)

    def test_read_read_parallelizable(self):
        assert payload_classes_parallelizable(R, R)

    def test_read_ignore_parallelizable(self):
        assert payload_classes_parallelizable(R, I)
        assert payload_classes_parallelizable(I, R)

    def test_ignore_ignore_parallelizable(self):
        assert payload_classes_parallelizable(I, I)

    def test_batch_level_uses_highest_priority(self):
        mixed = StateFunctionBatch("mixed")
        mixed.add(StateFunction(lambda pkt: None, R))
        mixed.add(StateFunction(lambda pkt: None, W))  # promotes batch to WRITE
        reader = make_batch("reader", R)
        assert not batches_parallelizable(mixed, reader)


class TestScheduleConstruction:
    def wave_shape(self, schedule):
        return [tuple(batch.nf_name for batch in wave) for wave in schedule.waves]

    def test_all_readers_one_wave(self):
        batches = [make_batch(f"r{i}", R) for i in range(3)]
        schedule = build_schedule(batches)
        assert schedule.wave_count == 1
        assert max_wave_width(schedule) == 3

    def test_writers_serialise(self):
        batches = [make_batch(f"w{i}", W) for i in range(3)]
        schedule = build_schedule(batches)
        assert schedule.wave_count == 3
        assert max_wave_width(schedule) == 1

    def test_writer_between_readers_splits(self):
        batches = [make_batch("r1", R), make_batch("w", W), make_batch("r2", R)]
        schedule = build_schedule(batches)
        assert self.wave_shape(schedule) == [("r1",), ("w",), ("r2",)]

    def test_writer_groups_with_ignores(self):
        batches = [make_batch("w", W), make_batch("i1", I), make_batch("i2", I)]
        schedule = build_schedule(batches)
        assert self.wave_shape(schedule) == [("w", "i1", "i2")]

    def test_empty_batches_skipped(self):
        batches = [make_batch("a", R), StateFunctionBatch("empty"), make_batch("b", R)]
        schedule = build_schedule(batches)
        assert schedule.batch_count == 2
        assert self.wave_shape(schedule) == [("a", "b")]

    def test_no_batches(self):
        schedule = build_schedule([])
        assert schedule.wave_count == 0
        assert max_wave_width(schedule) == 0

    def test_chain_order_preserved_across_waves(self):
        batches = [make_batch("w1", W), make_batch("r", R), make_batch("w2", W)]
        schedule = build_schedule(batches)
        flattened = [batch.nf_name for batch in schedule_batches(schedule)]
        assert flattened == ["w1", "r", "w2"]

    def test_execute_runs_everything_in_wave_order(self):
        log = []

        def tagged(tag, payload_class):
            batch = StateFunctionBatch(tag)
            batch.add(StateFunction(lambda pkt, t=tag: log.append(t), payload_class, name=tag))
            return batch

        schedule = build_schedule([tagged("r1", R), tagged("w", W), tagged("r2", R)])
        packet = Packet.from_five_tuple(FiveTuple.make("10.0.0.1", "10.0.0.2", 1, 2))
        execute_schedule(schedule, packet)
        assert log == ["r1", "w", "r2"]


class TestScheduleSemanticEquivalence:
    def test_parallel_schedule_matches_sequential_for_hazard_free_batches(self):
        # Readers never mutate, so any wave grouping must produce the same
        # final state as strict sequential execution.
        log_parallel = []
        log_sequential = []

        def reader_batch(log, tag):
            batch = StateFunctionBatch(tag)
            batch.add(StateFunction(lambda pkt, t=tag: log.append(t), R, name=tag))
            return batch

        packet = Packet.from_five_tuple(FiveTuple.make("10.0.0.1", "10.0.0.2", 1, 2))
        schedule = build_schedule([reader_batch(log_parallel, f"b{i}") for i in range(4)])
        execute_schedule(schedule, packet)

        for i in range(4):
            execute_batch(reader_batch(log_sequential, f"b{i}"), packet)
        assert sorted(log_parallel) == sorted(log_sequential)
