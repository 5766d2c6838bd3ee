"""analytic_replay_vector vs the scalar recursion — exact equality.

The vector path re-brackets the saturation recursion into cumulative
array passes; ``np.add.accumulate`` / ``np.maximum.accumulate`` are
sequential left folds over float64, so every intermediate must be
bit-identical to the scalar loop's.  These tests pin that, plus the
eligibility gate (anything outside the single-stage saturation shape
must return None rather than approximate).
"""

import pytest

from repro.sim.analytic import analytic_replay, analytic_replay_vector


def scalar_timeline(table, plan_ids, cap):
    """(arrival, finish) per packet index from the scalar recursion."""
    plans = [table[pid] for pid in plan_ids]
    gaps = [0.0] * len(plans)
    return analytic_replay(plans, gaps, stage_count=1, ring_capacity=cap)


def assert_timeline_exact(table, plan_ids, cap):
    got = analytic_replay_vector(table, plan_ids, cap)
    assert got is not None
    arrival, finish = got
    expected_arrival, expected_finish = scalar_timeline(table, plan_ids, cap)
    # exact float equality, element-wise: latencies and makespan follow
    assert arrival.tolist() == expected_arrival
    assert finish.tolist() == expected_finish


@pytest.mark.parametrize("cap", [None, 2, 7, 64])
def test_vector_matches_scalar_exactly(cap):
    table = [[(0, 137.25)], [(0, 64.5)], [(0, 512.0)]]
    plan_ids = [(i * 7 + i % 3) % 3 for i in range(200)]
    assert_timeline_exact(table, plan_ids, cap)


def test_vector_backpressure_beyond_capacity():
    """n >> ring capacity: the enqueue clamp must match the scalar ring."""
    assert_timeline_exact([[(0, 100.0)]], [0] * 50, 4)


def test_vector_empty_batch():
    for table in ([], [[(0, 10.0)]]):
        arrival, finish = analytic_replay_vector(table, [], None)
        assert len(arrival) == 0 and len(finish) == 0


def test_vector_declines_ineligible_shapes():
    # Multi-hop plan.
    assert analytic_replay_vector([[(0, 1.0), (1, 2.0)]], [0], None) is None
    # Pure-delay hop (stage None).
    assert analytic_replay_vector([[(None, 1.0)]], [0], None) is None
    # Two distinct target stages.
    assert analytic_replay_vector([[(0, 1.0)], [(1, 1.0)]], [0, 1], None) is None
    # Negative service time.
    assert analytic_replay_vector([[(0, -1.0)]], [0], None) is None

