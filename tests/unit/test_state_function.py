"""Unit tests for state functions and batches (repro.core.state_function)."""

import pytest

from repro.core.state_function import PayloadClass, StateFunction, StateFunctionBatch
from repro.net import FiveTuple, Packet
from tests.integration.helpers import execute_batch, invoke


def make_packet():
    return Packet.from_five_tuple(FiveTuple.make("10.0.0.1", "10.0.0.2", 1, 2), payload=b"x")


class TestStateFunction:
    def test_invoke_passes_packet_and_args(self):
        seen = []
        fn = StateFunction(lambda pkt, a, b: seen.append((pkt, a, b)), PayloadClass.IGNORE, args=(1, 2))
        packet = make_packet()
        invoke(fn, packet)
        assert seen == [(packet, 1, 2)]
        assert fn.invocations == 1

    def test_returns_handler_result(self):
        fn = StateFunction(lambda pkt: 42, PayloadClass.READ)
        assert invoke(fn, make_packet()) == 42

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            StateFunction("not callable", PayloadClass.READ)  # type: ignore[arg-type]

    def test_name_defaults_to_handler_name(self):
        def my_handler(pkt):
            return None

        fn = StateFunction(my_handler, PayloadClass.IGNORE)
        assert fn.name == "my_handler"

    def test_payload_class_priority_order(self):
        assert PayloadClass.WRITE > PayloadClass.READ > PayloadClass.IGNORE


class TestStateFunctionBatch:
    def make_fn(self, log, tag, payload_class=PayloadClass.IGNORE):
        return StateFunction(lambda pkt: log.append(tag), payload_class, name=tag)

    def test_execution_preserves_order(self):
        log = []
        batch = StateFunctionBatch("nf")
        for tag in ("a", "b", "c"):
            batch.add(self.make_fn(log, tag))
        execute_batch(batch, make_packet())
        assert log == ["a", "b", "c"]

    def test_empty_batch_is_falsy(self):
        batch = StateFunctionBatch("nf")
        assert not batch
        assert batch.payload_class is PayloadClass.IGNORE

    def test_payload_class_is_highest_priority(self):
        log = []
        batch = StateFunctionBatch("nf")
        batch.add(self.make_fn(log, "r1", PayloadClass.READ))
        batch.add(self.make_fn(log, "r2", PayloadClass.READ))
        batch.add(self.make_fn(log, "w", PayloadClass.WRITE))
        assert batch.payload_class is PayloadClass.WRITE

    def test_read_dominates_ignore(self):
        log = []
        batch = StateFunctionBatch("nf")
        batch.add(self.make_fn(log, "i", PayloadClass.IGNORE))
        batch.add(self.make_fn(log, "r", PayloadClass.READ))
        assert batch.payload_class is PayloadClass.READ

    def test_execute_collects_results(self):
        batch = StateFunctionBatch("nf")
        batch.add(StateFunction(lambda pkt: 1, PayloadClass.IGNORE))
        batch.add(StateFunction(lambda pkt: 2, PayloadClass.IGNORE))
        assert execute_batch(batch, make_packet()) == [1, 2]

    def test_clone_with_replaces_functions(self):
        batch = StateFunctionBatch("nf")
        batch.add(StateFunction(lambda pkt: 1, PayloadClass.IGNORE))
        replacement = StateFunction(lambda pkt: 9, PayloadClass.READ)
        cloned = batch.clone_with([replacement])
        assert cloned.nf_name == "nf"
        assert len(cloned) == 1
        assert cloned.payload_class is PayloadClass.READ
        assert len(batch) == 1  # original untouched
