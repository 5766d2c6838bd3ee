"""``LoadResult`` as a column: percentiles, equality and memory.

A loaded run's latencies are one float64 column end to end.  These
tests pin what that must not change — nearest-rank percentiles bit for
bit against the list-and-``sorted`` definition, exact order-sensitive
equality — and what it buys: a run that allocates a bounded number of
bytes per packet beyond its batch, and a batch builder whose high-water
mark is its own columns.
"""

import random
import tracemalloc

import pytest

from repro.core.actions import Modify
from repro.core.framework import SpeedyBox
from repro.nf import SyntheticNF
from repro.platform import BessPlatform
from repro.platform.base import LoadResult
from repro.stats.summary import percentile_sorted
from repro.traffic.columnar import uniform_batch
from repro.vector import np

FRACTIONS = (0.0, 0.01, 0.5, 0.99, 1.0)


def sample(n, seed):
    """``n`` latencies with ties and zeros: few distinct values, some
    fractional."""
    rng = random.Random(seed)
    return [rng.choice((0.0, 0.0, 1.0, 2.5, 2.5, 7.0, rng.random() * 100.0)) for __ in range(n)]


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

    def test_empty_result_is_zero(self):
        result = LoadResult(0, 0, 0, 0.0, [])
        for fraction in FRACTIONS:
            assert result.latency_percentile(fraction) == 0.0

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


COLUMNS = (
    "flow_src_ip", "flow_dst_ip", "flow_src_port", "flow_dst_port", "flow_proto",
    "flow_handshake", "flow_index", "kind", "ordinal", "seq", "size",
)


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

    def test_a_lane_run_allocates_a_bounded_amount_per_packet(self):
        """≈ 400 k packets through BESS, then p50 and p99: a list-backed
        result costs ≈ 65 B/packet here, the column ≈ 34."""
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
        assert (peak - before) / len(batch) <= 48
