"""``LoadResult`` as a column: the one builder, percentiles, equality
and memory.

A loaded run's latencies are one float64 column end to end.  These
tests pin what that must not change — nearest-rank percentiles bit for
bit against the list-and-``sorted`` definition, exact order-sensitive
equality — and what it buys: a run that allocates a bounded number of
bytes per packet beyond its batch (its plan ids, the replay's two
timeline columns, the latency column derived in the arrival buffer), a
batch of 17 bytes a packet, and a batch builder whose high-water mark is
its own columns.
"""

import random
import tracemalloc

import pytest

from repro.core.actions import Modify
from repro.core.framework import SpeedyBox
from repro.nf import SyntheticNF
from repro.platform import BessPlatform
from repro.platform.base import LoadResult, PlanTable, columns_timeline, load_result
from repro.stats.summary import percentile_sorted
from repro.traffic.columnar import uniform_batch
from repro.vector import np
from tests.integration.helpers import reference_result

FRACTIONS = (0.0, 0.01, 0.5, 0.99, 1.0)


def sample(n, seed):
    """``n`` latencies with ties and zeros: few distinct values, some
    fractional."""
    rng = random.Random(seed)
    return [rng.choice((0.0, 0.0, 1.0, 2.5, 2.5, 7.0, rng.random() * 100.0)) for __ in range(n)]


class TestReferenceReducer:
    """``load_result`` against the tests' plain-Python reducer, on
    timelines small enough to check by hand."""

    def built(self, arrival, finish, dropped):
        """What a run's tail builds: one plan per drop flag."""
        table = PlanTable(labelled=False)
        plan_ids = [table.pid_of([(0, 1.0)], 2 * drop, None) for drop in dropped]
        (latencies, makespan_ns, __, __), delivery = columns_timeline(arrival, finish)
        return load_result(latencies, makespan_ns, delivery, table, plan_ids)

    def test_only_delivered_packets_keep_a_latency_in_finish_order(self):
        arrival, finish = [0.0, 1.0, 2.0, 3.0], [5.0, 3.0, 9.0, 4.0]
        dropped = [False, True, False, False]
        expected = reference_result(arrival, finish, dropped)
        assert expected == LoadResult(4, 3, 1, 9.0, [1.0, 5.0, 7.0])
        assert self.built(arrival, finish, dropped) == expected
        assert expected.throughput_mpps == 3 / (9.0 / 1000.0)

    @pytest.mark.parametrize("dropped", [(False,) * 5, (True,) * 5, (True, False, True, False, False)])
    @pytest.mark.parametrize("finish", [(1.0, 2.0, 3.0, 4.0, 5.0), (4.0, 2.0, 2.0, 6.0, 1.0)])
    def test_every_drop_pattern_and_finish_order(self, dropped, finish):
        arrival = [0.0, 0.5, 1.0, 1.5, 2.0]
        assert self.built(arrival, list(finish), dropped) == reference_result(arrival, finish, dropped)

    def test_a_table_without_drops_keeps_the_column_itself(self):
        table = PlanTable(labelled=False)
        plan_ids = [table.pid_of([(0, 1.0)], 1, None)] * 2  # fast, not dropped
        latencies = np.array([1.0, 2.0])
        assert load_result(latencies, 2.0, None, table, plan_ids).latencies_ns is latencies

    def test_no_packets(self):
        assert self.built([], [], []) == reference_result([], [], []) == LoadResult(0, 0, 0, 0.0, [])


class TestPercentile:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 100, 10_001])
    def test_matches_the_sorted_list_definition(self, n):
        values = sample(n, seed=n)
        result = LoadResult(n, n, 0, 1.0, values)
        ordered = sorted(values)
        for fraction in FRACTIONS:
            got = result.latency_percentile(fraction)
            assert type(got) is float
            assert got == percentile_sorted(ordered, fraction), fraction

    def test_one_sort_serves_every_query(self):
        result = LoadResult(5, 5, 0, 1.0, [5.0, 1.0, 4.0, 2.0, 3.0])
        result.latency_percentile(0.5)
        cached = result._sorted_latencies
        assert cached[1].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        result.latency_percentile(0.99)
        assert result._sorted_latencies is cached
        # a new column is a new sample
        result.latencies_ns = np.array([9.0])
        assert result.latency_percentile(0.5) == 9.0

    def test_empty_result_has_no_percentile(self):
        result = LoadResult(0, 0, 0, 0.0, [])
        for fraction in FRACTIONS:
            assert result.latency_percentile(fraction) is None

    def test_percentile_sorted_takes_an_ndarray(self):
        ordered = np.array([0.0, 0.0, 1.0, 3.0])
        assert percentile_sorted(ordered, 0.5) == 0.0
        assert percentile_sorted(ordered, 0.51) == 1.0
        assert percentile_sorted(ordered, 1.0) == 3.0
        with pytest.raises(ValueError):
            percentile_sorted(np.empty(0), 0.5)


class TestColumn:
    def test_latencies_are_a_float64_column(self):
        result = LoadResult(3, 3, 0, 1.0, [1, 2, 3])
        assert isinstance(result.latencies_ns, np.ndarray)
        assert result.latencies_ns.dtype == np.float64

    def test_equality_is_exact_and_order_sensitive(self):
        base = LoadResult(3, 3, 0, 9.0, [1.0, 2.0, 3.0])
        base.latency_percentile(0.5)  # the cached sort is not compared
        assert base == LoadResult(3, 3, 0, 9.0, np.array([1.0, 2.0, 3.0]))
        assert base != LoadResult(3, 3, 0, 9.0, [1.0, 3.0, 2.0])
        assert base != LoadResult(3, 3, 0, 9.0, [1.0, 2.0])
        assert base != LoadResult(3, 3, 0, 9.0, [1.0, 2.0, 3.0 + 1e-9])
        assert base != LoadResult(3, 3, 0, 9.5, [1.0, 2.0, 3.0])
        assert base != LoadResult(4, 3, 1, 9.0, [1.0, 2.0, 3.0])
        assert base != LoadResult(3, 2, 1, 9.0, [1.0, 2.0, 3.0])
        assert base != "not a result"


def batch_chain():
    return [
        SyntheticNF("fw", action=Modify.ttl_dec(), sf_payload_class=None),
        SyntheticNF("nat", action=Modify.set(dst_port=8080), sf_payload_class=None),
        SyntheticNF("mon", sf_payload_class=None),
    ]


FLOW_COLUMNS = (
    "flow_src_ip", "flow_dst_ip", "flow_src_port", "flow_dst_port", "flow_proto",
    "flow_handshake",
)
#: each per-packet column's width in bytes
PACKET_BYTES = {"flow_index": 8, "kind": 1, "ordinal": 4, "seq": 4}
COLUMNS = FLOW_COLUMNS + tuple(PACKET_BYTES)


class TestMemory:
    """Counted with ``tracemalloc``: deterministic, no stopwatch."""

    def test_uniform_batch_high_water_is_its_columns(self):
        tracemalloc.start()
        try:
            batch = uniform_batch(1024, 400, interleave="round_robin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(getattr(batch, name).nbytes for name in COLUMNS)
        # a few ndarray headers and the batch object on top of the data
        assert columns <= peak <= columns + 16 * 1024

    def test_uniform_batch_costs_its_column_widths_a_packet(self):
        """17 bytes a packet: the batch holds no per-packet size column,
        and ordinals and sequence numbers take int32 / uint32."""
        tracemalloc.start()
        try:
            batch = uniform_batch(1024, 400, protocol="tcp", handshake=True, fin=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = len(batch)
        for name, width in PACKET_BYTES.items():
            assert getattr(batch, name).itemsize == width, name
        assert sum(PACKET_BYTES.values()) == 17
        flows = sum(getattr(batch, name).nbytes for name in FLOW_COLUMNS)
        assert 17 * n + flows <= peak <= 17 * n + flows + 16 * 1024

    def test_a_lane_run_allocates_a_bounded_amount_per_packet(self):
        """≈ 400 k packets through BESS, then p50 and p99.  What a run
        holds at its peak, beyond the batch: int32 plan ids, the one
        float64 latency column the vector replay writes and its sorted
        copy, 20 B a packet, plus ≈ 3.7 B a packet of fixed cost at this
        size (imports, per-flow tables) — 23.7 B measured.  It read 29.0
        while the replay returned two full timeline columns and the
        flush built full-length index temporaries, and 36.9 while the
        tail also kept a third column (the ``finish - arrival`` copy);
        the bound is the measured value plus 3 B of slack."""
        batch = uniform_batch(1024, 400, interleave="round_robin")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            platform = BessPlatform(
                SpeedyBox(batch_chain(), max_tracked_flows=8192, max_flows=8192)
            )
            result = platform.run_load(batch)
            result.latency_percentile(0.50)
            result.latency_percentile(0.99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert platform.last_lane_stats["span_packets"] == len(batch) - 1024
        assert (peak - before) / len(batch) <= 27


class TestColumnRanges:
    """``uniform_batch`` refuses a flow whose ordinals or sequence
    numbers would not fit their columns, before it allocates them; a
    silent wrap would build packets the per-packet generator never
    would."""

    def test_ordinals_past_int32_name_packets_per_flow(self):
        with pytest.raises(ValueError, match="packets_per_flow=2147483649"):
            uniform_batch(1, 2**31 + 1)
        # a SYN and a FIN around 2**31 - 1 data packets: ordinal 2**31
        with pytest.raises(ValueError, match="packets_per_flow=2147483647"):
            uniform_batch(1, 2**31 - 1, protocol="tcp", handshake=True, fin=True)

    @pytest.mark.parametrize("fin", [False, True])
    def test_sequence_numbers_past_uint32_name_the_arguments(self, fin):
        payload = b"x" * 60000
        # the largest flow whose last sequence number fits 2**32 - 1
        fits = (2**32 - 1 - 1000) // 60000 + (0 if fin else 1)
        batch = uniform_batch(1, fits, payload=payload, protocol="tcp", fin=fin)
        last = batch.materialize(len(batch) - 1)
        assert last.l4.seq == int(batch.seq[-1]) <= 2**32 - 1
        assert last.l4.seq == 1000 + (fits - (0 if fin else 1)) * 60000
        last.serialize()
        with pytest.raises(ValueError, match=r"packets_per_flow=\d+ with a 60000-byte payload"):
            uniform_batch(1, fits + 1, payload=payload, protocol="tcp", fin=fin)

    def test_a_udp_flow_carries_no_sequence_number_to_overflow(self):
        fits = (2**32 - 1 - 1000) // 60000 + 1
        assert len(uniform_batch(1, fits + 1, payload=b"x" * 60000)) == fits + 1
