"""analytic_replay_vector vs the scalar recursion — exact equality.

The vector path re-brackets the saturation recursion into cumulative
array passes; ``np.add.accumulate`` / ``np.maximum.accumulate`` are
sequential left folds over float64, so every intermediate must be
bit-identical to the scalar loop's.  These tests pin that, plus the
shape gate (``plans_are_vector``: anything outside the single-stage
shape is the scalar recursion's, never approximated).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.analytic import analytic_replay, analytic_replay_vector, plans_are_vector


def assert_timeline_exact(table, plan_ids, cap):
    assert plans_are_vector(table)
    arrival, finish = analytic_replay_vector(table, plan_ids, cap)
    gaps = [0.0] * len(plan_ids)
    expected_arrival, expected_finish = analytic_replay(table, plan_ids, gaps, 1, cap)
    # exact float equality, element-wise: latencies and makespan follow
    assert arrival.tolist() == expected_arrival
    assert finish.tolist() == expected_finish


@pytest.mark.parametrize("cap", [None, 2, 7, 64])
def test_vector_matches_scalar_exactly(cap):
    table = [[(0, 137.25)], [(0, 64.5)], [(0, 512.0)]]
    plan_ids = [(i * 7 + i % 3) % 3 for i in range(200)]
    assert_timeline_exact(table, plan_ids, cap)


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
)
def test_vector_is_the_scalar_recursion_on_any_one_stage_table(services, picks, stage, cap):
    table = [[(stage, service)] for service in services]
    plan_ids = [pick % len(table) for pick in picks]
    arrival, finish = analytic_replay_vector(table, plan_ids, cap)
    expected = analytic_replay(table, plan_ids, [0.0] * len(plan_ids), stage + 1, cap)
    assert plans_are_vector(table)
    assert (arrival.tolist(), finish.tolist()) == expected


def test_vector_backpressure_beyond_capacity():
    """n >> ring capacity: the enqueue clamp must match the scalar ring."""
    assert_timeline_exact([[(0, 100.0)]], [0] * 50, 4)


def test_vector_empty_batch():
    for table in ([], [[(0, 10.0)]]):
        assert plans_are_vector(table)
        arrival, finish = analytic_replay_vector(table, [], None)
        assert len(arrival) == 0 and len(finish) == 0


def test_vector_declines_ineligible_shapes():
    # Multi-hop plan.
    assert not plans_are_vector([[(0, 1.0), (1, 2.0)]])
    # Pure-delay hop (stage None).
    assert not plans_are_vector([[(None, 1.0)]])
    # Two distinct target stages.
    assert not plans_are_vector([[(0, 1.0)], [(1, 1.0)]])
    # Negative service time.
    assert not plans_are_vector([[(0, -1.0)]])
    # An empty plan.
    assert not plans_are_vector([[(0, 1.0)], []])
