"""analytic_replay_vector vs the scalar recursion — exact equality.

The vector path evaluates the saturation recursion in chunks of
``CHUNK`` packets: each chunk's ``np.add.accumulate`` is a sequential
left fold over float64 started from the previous chunk's ready time, and
the lagged finishes a full ring waits on are carried across chunks.  So
every latency, the makespan, every stamped arrival / finish and the
full arrival column ``saturated_arrivals`` rebuilds must be
bit-identical to the scalar loop's, at every chunk boundary and for any
ring capacity — one smaller than a chunk, one larger, one the run never
fills.  The whole-array recursion the chunked one replaced is kept here
as a second oracle, and the shape gate (``plans_are_vector``: anything
outside the single-stage shape is the scalar recursion's) is pinned too.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.analytic as sim_analytic
from repro.core.actions import Modify
from repro.core.framework import SpeedyBox
from repro.nf import SyntheticNF
from repro.obs.span import FlowSpanRecorder
from repro.platform import BessPlatform, PlatformConfig
from repro.sim.analytic import CHUNK, analytic_replay, analytic_replay_vector, plans_are_vector
from repro.traffic.columnar import uniform_batch
from repro.vector import np


def whole_array_replay(table, plan_ids, ring_capacity):
    """The whole-run array recursion: two full columns, ``(arrival,
    finish)``, the ring's back-pressure as a running maximum over the
    shifted starts."""
    service_by_pid = np.array([plan[0][1] for plan in table], dtype=np.float64)
    n = len(plan_ids)
    finish = np.take(service_by_pid, plan_ids)
    np.add.accumulate(finish, out=finish)
    arrival = np.zeros(n, dtype=np.float64)
    cap = ring_capacity
    if cap is not None and n > cap + 1:
        blocked = arrival[cap + 1 :]
        blocked[1:] = finish[: n - cap - 2]
        np.maximum.accumulate(blocked, out=blocked)
    return arrival, finish


def assert_timeline_exact(table, plan_ids, cap, stamped=()):
    """The chunked replay's latency column, makespan and stamps against
    the scalar loop's lists, float for float, and the latency column
    against the whole-array oracle's."""
    assert plans_are_vector(table)
    stamped = sorted(stamped)
    latencies, makespan, arrival, finish = analytic_replay_vector(table, plan_ids, cap, stamped)
    gaps = [0.0] * len(plan_ids)
    expected_arrival, expected_finish = analytic_replay(table, plan_ids, gaps, 1, cap)
    assert latencies.dtype == np.float64
    assert latencies.tolist() == [f - a for a, f in zip(expected_arrival, expected_finish)]
    assert makespan == max(expected_finish, default=0.0)
    assert arrival == {index: expected_arrival[index] for index in stamped}
    assert finish == {index: expected_finish[index] for index in stamped}
    # the arrival column a windowed run rebuilds, in full
    assert sim_analytic.saturated_arrivals(table, plan_ids, cap).tolist() == expected_arrival
    whole_arrival, whole_finish = whole_array_replay(table, plan_ids, cap)
    assert np.array_equal(latencies, whole_finish - whole_arrival)


@pytest.mark.parametrize("cap", [None, 2, 7, 64])
def test_vector_matches_scalar_exactly(cap):
    table = [[(0, 137.25)], [(0, 64.5)], [(0, 512.0)]]
    plan_ids = [(i * 7 + i % 3) % 3 for i in range(200)]
    assert_timeline_exact(table, plan_ids, cap, stamped=range(0, 200, 9))


CHUNK_SIZES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]


@pytest.mark.parametrize("n", CHUNK_SIZES)
@pytest.mark.parametrize(
    "cap",
    [None, 1, CHUNK - 3, CHUNK, 2 * CHUNK + 5, "beyond"],
    ids=["unbounded", "1", "C-3", "C", "2C+5", "beyond-n"],
)
def test_vector_is_exact_across_chunk_boundaries(n, cap):
    """Every chunk boundary, with a lag inside one chunk, one chunk
    long, spanning two, and never reached."""
    if cap == "beyond":
        cap = n + 5
    table = [[(0, 137.25)], [(0, 0.1)], [(0, 1e-3)], [(0, 512.0 / 3)]]
    plan_ids = np.array([(i * 7 + i // 5) % 4 for i in range(n)], dtype=np.int32)
    lag = (cap or 0) + 2
    edges = {0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, n - 1, lag - 1, lag, lag + CHUNK}
    stamped = {index for index in edges if 0 <= index < n} | set(range(0, n, 4099))
    assert_timeline_exact(table, plan_ids, cap, stamped)


@settings(max_examples=120, deadline=None)
@given(
    services=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    ),
    picks=st.lists(st.integers(min_value=0), max_size=300),
    stage=st.integers(min_value=0, max_value=3),
    cap=st.sampled_from([None, 1, 2, 7, 4096]),
    stamps=st.lists(st.integers(min_value=0), max_size=8),
)
def test_vector_is_the_scalar_recursion_on_any_one_stage_table(
    services, picks, stage, cap, stamps
):
    table = [[(stage, service)] for service in services]
    plan_ids = [pick % len(table) for pick in picks]
    stamped = sorted({stamp % len(plan_ids) for stamp in stamps} if plan_ids else ())
    latencies, makespan, arrival, finish = analytic_replay_vector(table, plan_ids, cap, stamped)
    expected_arrival, expected_finish = analytic_replay(
        table, plan_ids, [0.0] * len(plan_ids), stage + 1, cap
    )
    assert plans_are_vector(table)
    assert latencies.tolist() == [f - a for a, f in zip(expected_arrival, expected_finish)]
    assert makespan == max(expected_finish, default=0.0)
    assert [(arrival[i], finish[i]) for i in stamped] == [
        (expected_arrival[i], expected_finish[i]) for i in stamped
    ]


def test_vector_backpressure_beyond_capacity():
    """n >> ring capacity: the enqueue clamp must match the scalar ring."""
    assert_timeline_exact([[(0, 100.0)]], [0] * 50, 4, stamped=range(50))


def test_vector_empty_batch():
    for table in ([], [[(0, 10.0)]]):
        assert plans_are_vector(table)
        latencies, makespan, arrival, finish = analytic_replay_vector(table, [], None, [])
        assert len(latencies) == 0 and makespan == 0.0
        assert arrival == {} and finish == {}


def test_vector_declines_ineligible_shapes():
    # Multi-hop plan.
    assert not plans_are_vector([[(0, 1.0), (1, 2.0)]])
    # Two distinct target stages.
    assert not plans_are_vector([[(0, 1.0)], [(1, 1.0)]])
    # Negative service time.
    assert not plans_are_vector([[(0, -1.0)]])


@pytest.mark.parametrize("ring_capacity", [None, 1, 4096])
def test_sampled_spans_are_stamped_from_the_whole_timeline(ring_capacity, monkeypatch):
    """A lane run on the vector route: every root the span recorder
    stamps carries the arrival and finish the whole-array recursion
    gives its packet, and the result is that recursion's."""
    calls = []
    replay = sim_analytic.analytic_replay_vector

    def recorded(table, plan_ids, cap, stamped):
        calls.append((table, np.array(plan_ids), cap, list(stamped)))
        return replay(table, plan_ids, cap, stamped)

    monkeypatch.setattr(sim_analytic, "analytic_replay_vector", recorded)
    recorder = FlowSpanRecorder(every=7, max_spans_per_flow=None)
    chain = [
        SyntheticNF("ttl", action=Modify.ttl_dec(), sf_payload_class=None),
        SyntheticNF("mark", action=Modify.set(dst_port=8080), sf_payload_class=None),
    ]
    platform = BessPlatform(
        SpeedyBox(chain), config=PlatformConfig(ring_capacity=ring_capacity), spans=recorder
    )
    batch = uniform_batch(64, 1100, interleave="round_robin")
    result = platform.run_load(batch)

    ((table, plan_ids, cap, stamped),) = calls
    assert cap == ring_capacity and len(stamped) == recorder.packets_sampled > 0
    arrival, finish = whole_array_replay(table, plan_ids, cap)
    stamps = [
        (root["args"]["sim_arrival_ns"], root["args"]["sim_finish_ns"])
        for root in recorder.roots()
    ]
    assert stamps == [(float(arrival[i]), float(finish[i])) for i in stamped]
    assert np.array_equal(result.latencies_ns, finish - arrival)
    assert result.makespan_ns == float(finish[-1])
