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


def scalar_latencies(table, plan_ids, cap):
    plans = [table[pid] for pid in plan_ids]
    gaps = [0.0] * len(plans)
    arrival_at, completions = analytic_replay(plans, gaps, stage_count=1, ring_capacity=cap)
    latencies = [0.0] * len(plans)
    for index, finish in completions:
        latencies[index] = finish - arrival_at[index]
    return latencies


@pytest.mark.parametrize("cap", [None, 2, 7, 64])
def test_vector_matches_scalar_exactly(cap):
    table = [[(0, 137.25)], [(0, 64.5)], [(0, 512.0)]]
    plan_ids = [(i * 7 + i % 3) % 3 for i in range(200)]
    got = analytic_replay_vector(table, plan_ids, cap)
    assert got is not None
    latencies, makespan = got
    expected = scalar_latencies(table, plan_ids, cap)
    assert list(latencies) == expected  # exact float equality, element-wise
    assert makespan == max(
        finish
        for __, finish in analytic_replay(
            [table[p] for p in plan_ids], [0.0] * len(plan_ids), 1, cap
        )[1]
    )


def test_vector_backpressure_beyond_capacity():
    """n >> ring capacity: the enqueue clamp must match the scalar ring."""
    table = [[(0, 100.0)]]
    plan_ids = [0] * 50
    got = analytic_replay_vector(table, plan_ids, 4)
    assert got is not None
    assert list(got[0]) == scalar_latencies(table, plan_ids, 4)


def test_vector_empty_batch():
    assert analytic_replay_vector([], [], None) == ([], 0.0)
    assert analytic_replay_vector([[(0, 10.0)]], [], None) == ([], 0.0)


def test_vector_declines_ineligible_shapes():
    # Multi-hop plan.
    assert analytic_replay_vector([[(0, 1.0), (1, 2.0)]], [0], None) is None
    # Pure-delay hop (stage None).
    assert analytic_replay_vector([[(None, 1.0)]], [0], None) is None
    # Two distinct target stages.
    assert analytic_replay_vector([[(0, 1.0)], [(1, 1.0)]], [0, 1], None) is None
    # Negative service time.
    assert analytic_replay_vector([[(0, -1.0)]], [0], None) is None

