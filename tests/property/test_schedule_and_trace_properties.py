"""Property tests: schedule hazard-freedom, trace-format fuzz, events."""

from hypothesis import given, settings, strategies as st

from repro.core.actions import Drop
from repro.core.event_table import Event, EventTable
from repro.core.parallel import batches_parallelizable, build_schedule
from repro.core.state_function import PayloadClass, StateFunction, StateFunctionBatch
from repro.net import FiveTuple, Packet
from tests.integration.helpers import max_wave_width, roundtrip_bytes, schedule_batches

PAYLOAD_CLASSES = [PayloadClass.IGNORE, PayloadClass.READ, PayloadClass.WRITE]


def make_batch(index, payload_class):
    batch = StateFunctionBatch(f"nf{index}")
    batch.add(StateFunction(lambda pkt: None, payload_class, name=f"fn{index}"))
    return batch


class TestScheduleProperties:
    @given(classes=st.lists(st.sampled_from(PAYLOAD_CLASSES), min_size=0, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_no_wave_contains_a_hazard_pair(self, classes):
        batches = [make_batch(i, cls) for i, cls in enumerate(classes)]
        schedule = build_schedule(batches)
        for wave in schedule.waves:
            for i, first in enumerate(wave):
                for second in wave[i + 1 :]:
                    assert batches_parallelizable(first, second)

    @given(classes=st.lists(st.sampled_from(PAYLOAD_CLASSES), min_size=0, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_all_batches_scheduled_in_chain_order(self, classes):
        batches = [make_batch(i, cls) for i, cls in enumerate(classes)]
        schedule = build_schedule(batches)
        names = [batch.nf_name for batch in schedule_batches(schedule)]
        assert names == [f"nf{i}" for i in range(len(classes))]

    @given(classes=st.lists(st.sampled_from(PAYLOAD_CLASSES), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_waves_are_maximal_greedy(self, classes):
        # Greedy invariant: the first batch of wave k+1 conflicts with at
        # least one member of wave k (else it would have joined wave k).
        batches = [make_batch(i, cls) for i, cls in enumerate(classes)]
        schedule = build_schedule(batches)
        for previous, current in zip(schedule.waves, schedule.waves[1:]):
            head = current[0]
            assert any(not batches_parallelizable(head, member) for member in previous)

    @given(classes=st.lists(st.sampled_from(PAYLOAD_CLASSES), min_size=0, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_all_write_chain_fully_serial(self, classes):
        writers = [make_batch(i, PayloadClass.WRITE) for i in range(len(classes))]
        schedule = build_schedule(writers)
        assert max_wave_width(schedule) <= 1


class TestTraceFuzz:
    @given(
        flows=st.lists(
            st.tuples(
                st.integers(0, 0xFFFFFFFF),
                st.integers(0, 0xFFFFFFFF),
                st.integers(0, 0xFFFF),
                st.integers(0, 0xFFFF),
                st.binary(max_size=100),
                st.floats(0, 1e12, allow_nan=False),
            ),
            min_size=0,
            max_size=15,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_any_packet_list_roundtrips(self, flows):
        packets = []
        for src, dst, sport, dport, payload, ts in flows:
            packet = Packet.from_five_tuple(
                FiveTuple(src, dst, sport, dport, 6), payload=payload
            )
            packet.timestamp_ns = ts
            packets.append(packet)
        restored = roundtrip_bytes(packets)
        assert len(restored) == len(packets)
        for original, loaded in zip(packets, restored):
            assert loaded.serialize() == original.serialize()
            assert loaded.timestamp_ns == original.timestamp_ns


class TestEventTableProperties:
    @given(
        fids=st.lists(st.integers(0, 50), min_size=1, max_size=40),
        checks=st.lists(st.integers(0, 50), min_size=1, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_shot_events_fire_at_most_once(self, fids, checks):
        table = EventTable()
        for fid in fids:
            table.register(Event(fid, "nf", condition=lambda: True, update_action=Drop()))
        fired_total = 0
        for fid in checks:
            fired_total += len(table.check_fid(fid))
        # No event can fire more than once; the total is bounded by the
        # number of registered events whose fid was ever checked.
        checkable = sum(1 for fid in fids if fid in set(checks))
        assert fired_total == checkable

    @given(fids=st.lists(st.integers(0, 20), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_clear_flow_removes_everything(self, fids):
        table = EventTable()
        for fid in fids:
            table.register(Event(fid, "nf", condition=lambda: True, update_action=Drop()))
        for fid in set(fids):
            table.clear_flow(fid)
        assert len(table) == 0
        for fid in set(fids):
            assert table.check_fid(fid) == []
