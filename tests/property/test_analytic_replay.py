"""Property tests: the analytic replay is the DES, exactly.

:func:`repro.sim.analytic.analytic_replay` claims numeric *identity*
with the generator-based pipeline replay for every plan set that passes
:func:`plans_are_analytic`.  Hypothesis generates random service-time
plans over a shared stage route, random arrival gaps and small ring
capacities, and compares against the real ``Platform._spawn_pipeline``
driven on a real :class:`Engine` — the two per-packet columns of the
timeline float for float, and (over small integer times, where exact
finish ties are the rule) the ``LoadResult`` the one builder makes of
them, element for element.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.framework import ServiceChain
from repro.nf import IPFilter
from repro.platform import BessPlatform, OpenNetVMPlatform, PlatformConfig
from repro.sim import Engine, analytic_replay, plans_are_analytic
from tests.integration.helpers import reference_result


class _ReplayHarness(BessPlatform):
    """A platform whose stage pipeline has an arbitrary stage count."""

    def __init__(self, stage_count: int, ring_capacity):
        super().__init__(
            ServiceChain([IPFilter("fw0")]),
            config=PlatformConfig(ring_capacity=ring_capacity),
        )
        self._stages = stage_count

    def _stage_count(self) -> int:
        return self._stages


def des_replay(plans, gaps, stage_count, ring_capacity, harness=None):
    """(arrival, finish) of the plans on the generator engine: a table
    whose every packet has a plan of its own."""
    harness = harness or _ReplayHarness(stage_count, ring_capacity)
    engine = Engine()
    run = harness._spawn_pipeline(engine, plans, range(len(plans)), gaps)
    engine.run()
    return run.arrival, run.finish


service_times = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
gap_times = st.floats(
    min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False
)


@st.composite
def replay_cases(draw, service_times=service_times, gap_times=gap_times):
    """(plans, gaps, stage_count, ring_capacity) valid for the recursion.

    All plans follow prefixes of one shared stage route, which makes
    every stage single-producer by construction; service times and
    arrival gaps are arbitrary non-negative floats unless narrowed.
    """
    stage_count = draw(st.integers(min_value=1, max_value=4))
    route = draw(st.permutations(list(range(stage_count))))
    packet_count = draw(st.integers(min_value=1, max_value=24))
    plans = []
    for __ in range(packet_count):
        hops = draw(st.integers(min_value=1, max_value=stage_count))
        services = draw(
            st.lists(service_times, min_size=hops, max_size=hops)
        )
        plans.append(list(zip(route[:hops], services)))
    gaps = draw(
        st.lists(gap_times, min_size=packet_count, max_size=packet_count)
    )
    ring_capacity = draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=5))
    )
    return plans, gaps, stage_count, ring_capacity


class TestAnalyticMatchesDES:
    @given(case=replay_cases())
    @settings(max_examples=120, deadline=None)
    def test_exact_identity(self, case):
        plans, gaps, stage_count, ring_capacity = case
        assert plans_are_analytic(plans)

        ids = range(len(plans))
        assert analytic_replay(plans, ids, gaps, stage_count, ring_capacity) == des_replay(
            plans, gaps, stage_count, ring_capacity
        )

    @given(
        case=replay_cases(
            service_times=st.integers(min_value=0, max_value=3).map(float),
            gap_times=st.integers(min_value=0, max_value=2).map(float),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_results_agree_on_finish_ties(self, case):
        """Small integer times make simultaneous finishes common; both
        timelines go through the reference reducer, so the latency
        lists agree position for position, ties included."""
        plans, gaps, stage_count, ring_capacity = case
        closed_form = reference_result(
            *analytic_replay(plans, range(len(plans)), gaps, stage_count, ring_capacity)
        )
        des = reference_result(*des_replay(plans, gaps, stage_count, ring_capacity))
        assert closed_form == des

    def test_tie_order_regression(self):
        """Packets 3 and 4 leave different last hops of a 2-NF ONVM
        pipeline at the same instant.  The DES used to deliver 4 first
        and report [0, 0, 5, 4, 7] against the closed form's
        [0, 0, 5, 7, 4]; ties now keep packet order on every replay."""
        plans = [
            [(0, 0.0), (1, 3.0), (2, 2.0)],
            [(0, 1.0), (1, 0.0), (2, 2.0)],
            [(0, 0.0)],
            [(0, 0.0)],
            [(0, 1.0), (1, 3.0)],
        ]
        gaps = [2.0, 0.0, 2.0, 0.0, 1.0]
        platform = OpenNetVMPlatform(ServiceChain([IPFilter("fw0"), IPFilter("fw1")]))
        stages, cap = platform._stage_count(), platform.config.ring_capacity
        assert stages == 4
        closed_form = reference_result(*analytic_replay(plans, range(5), gaps, stages, cap))
        des = reference_result(*des_replay(plans, gaps, stages, cap, harness=platform))
        assert des == closed_form
        assert closed_form.latencies_ns.tolist() == [0.0, 0.0, 5.0, 7.0, 4.0]


class TestValidityGate:
    def test_self_edge_rejected(self):
        assert not plans_are_analytic([[(0, 10.0), (0, 5.0)]])

    def test_conflicting_producers_rejected(self):
        # Stage 1 fed by the source in one plan, by stage 0 in another.
        assert not plans_are_analytic([[(1, 3.0)], [(0, 2.0), (1, 3.0)]])

    def test_shared_route_prefixes_accepted(self):
        plans = [[(2, 1.0)], [(2, 1.0), (0, 2.0)], [(2, 1.0), (0, 2.0), (1, 4.0)]]
        assert plans_are_analytic(plans)
