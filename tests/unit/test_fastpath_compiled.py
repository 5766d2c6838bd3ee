"""Unit tests for the compiled fast lane: caching, gating, invalidation.

:mod:`repro.core.fastpath` promises the compiled closure is observably
identical to the interpreted fast path and that it *never* serves a
packet after its assumptions break — these tests pin the cache
lifecycle rather than end-to-end equality (the integration suite owns
that).
"""

from __future__ import annotations

from repro.core.event_table import Event
from repro.core.framework import PathTaken, SpeedyBox
from repro.nf import DosPrevention, IPFilter, Monitor
from repro.obs import MetricsRegistry
from repro.platform import BessPlatform
from repro.platform.costs import Operation
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets
from tests.integration.helpers import InterpretedSpeedyBox, count_interpreted, des_run_load


def flow_packets(count=6, sport=4100):
    spec = FlowSpec.tcp("10.0.0.1", "20.0.0.1", sport, 80, packets=count, payload=b"q" * 8)
    return TrafficGenerator([spec]).packets()


def fin_packet(sport=4100):
    spec = FlowSpec.tcp("10.0.0.1", "20.0.0.1", sport, 80, packets=0, fin=True)
    return TrafficGenerator([spec]).packets()[0]


class TestCompilation:
    def test_first_packet_compiles_the_flow(self):
        runtime = SpeedyBox([IPFilter("fw0")])
        packets = flow_packets(3)
        runtime.process(packets[0])
        # Recording installs the rule and compiles in the same traversal,
        # so the flow's *second* packet already takes the compiled lane.
        assert len(runtime._compiled) == 1
        report = runtime.process(packets[1])
        assert report.steady
        assert len(runtime._compiled_fids) == 1
        (key,) = runtime._compiled
        assert runtime._compiled_fids[next(iter(runtime._compiled_fids))] == key

    def test_steady_packets_share_one_report(self):
        runtime = SpeedyBox([IPFilter("fw0")])
        packets = flow_packets(5)
        reports = [runtime.process(p) for p in packets]
        steady = [r for r in reports if r.steady]
        assert steady, "no-wave chain should reach the steady singleton"
        assert all(r is steady[0] for r in steady)
        assert all(r.path is PathTaken.FAST for r in steady)

    def test_sf_chain_compiles_without_steady_singleton(self):
        runtime = SpeedyBox([IPFilter("fw0"), Monitor("mon0")])
        packets = flow_packets(4)
        reports = [runtime.process(p) for p in packets]
        assert runtime._compiled
        # Monitor's SF schedule makes per-packet meters: fresh reports.
        assert not any(r.steady for r in reports)
        assert reports[-1] is not reports[-2]

    def test_interpreted_selector_never_compiles(self):
        runtime = InterpretedSpeedyBox([IPFilter("fw0")])
        reports = [runtime.process(packet) for packet in flow_packets(4)]
        assert not runtime._compiled
        assert not runtime._compiled_fids
        # ... and still serves the flow from the Global MAT.
        assert [r.path for r in reports[1:]] == [PathTaken.FAST] * 3
        assert not any(r.steady for r in reports)

    def test_platform_leaves_the_runtimes_lanes_alone(self):
        runtime = SpeedyBox([IPFilter("fw0")])
        for packet in flow_packets(2):
            runtime.process(packet)
        compiled = dict(runtime._compiled)
        assert compiled
        # Taking a runtime into a platform is not an event in its life.
        BessPlatform(runtime)
        assert runtime._compiled == compiled


class TestInvalidation:
    def _established(self):
        runtime = SpeedyBox([IPFilter("fw0")])
        for packet in flow_packets(3):
            runtime.process(packet)
        assert runtime._compiled
        (fid,) = runtime._compiled_fids
        return runtime, fid

    def test_delete_flow_drops_the_closure(self):
        runtime, fid = self._established()
        runtime.delete_flow(fid)
        assert not runtime._compiled
        assert not runtime._compiled_fids

    def test_fin_falls_back_and_tears_down(self):
        runtime, fid = self._established()
        report = runtime.process(fin_packet())
        assert not report.steady  # teardown ran interpreted
        assert not runtime._compiled
        assert fid not in runtime._compiled_fids

    def test_invalidate_compiled_is_idempotent(self):
        runtime, fid = self._established()
        runtime._invalidate_compiled(fid)
        assert not runtime._compiled
        runtime._invalidate_compiled(fid)  # second call is a no-op
        assert not runtime._compiled_fids

    def test_export_flow_drops_the_closure(self):
        runtime, fid = self._established()
        record = runtime.export_flow(fid)
        assert record is not None
        assert not runtime._compiled
        assert not runtime._compiled_fids

    def test_reset_clears_the_cache(self):
        runtime, __ = self._established()
        runtime.reset()
        assert not runtime._compiled
        assert not runtime._compiled_fids


def never() -> bool:
    return False


def quiet_event(fid, one_shot=True):
    return Event(fid, "fw0", condition=never, update_function=lambda: None, one_shot=one_shot)


def counts_in_order(report):
    return list(report.fixed_meter.counts.items())


class TestEventsOnTheLane:
    """Active events are checked *on* the lane; only a true condition,
    before any state is touched, hands the packet back to ``_run_fast``."""

    def _pair(self, build, warmup=3):
        """A compiling runtime whose ``_run_fast`` calls are counted, and
        the interpreted oracle, both past the same ``warmup`` packets."""
        runtime, oracle = SpeedyBox(build()), InterpretedSpeedyBox(build())
        for side in (runtime, oracle):
            for packet in flow_packets(warmup):
                side.process(packet)
        return runtime, oracle, count_interpreted(runtime)

    def _same_packet(self, runtime, oracle):
        packet = flow_packets(1)[0]
        report, reference = runtime.process(packet), oracle.process(clone_packets([packet])[0])
        assert report.path is reference.path is PathTaken.FAST
        assert counts_in_order(report) == counts_in_order(reference)
        assert runtime.event_table.total_checks == oracle.event_table.total_checks
        return report

    def test_active_quiet_event_is_served_by_the_lane(self):
        # The NF registers its (one-shot, far from firing) event while
        # recording, so the flow compiles with one active event.
        runtime, oracle, interpreted = self._pair(
            lambda: [DosPrevention("dos0", threshold=1000, mode="packets")]
        )
        (flow,) = runtime._compiled.values()
        assert flow.event_active == 1
        report = self._same_packet(runtime, oracle)
        assert not interpreted, "the closure declined a quiet event"
        assert not report.steady and report.events_fired == 0
        assert report.fixed_meter.count(Operation.EVENT_CHECK) == 2.0
        assert report.fixed_meter is flow.fixed_meter  # the shared template

    def test_event_registered_on_a_compiled_flow_moves_the_meter(self):
        runtime, oracle, interpreted = self._pair(lambda: [IPFilter("fw0")])
        (flow,) = runtime._compiled.values()
        assert self._same_packet(runtime, oracle).steady
        for side in (runtime, oracle):
            side.event_table.register(quiet_event(flow.fid))
        report = self._same_packet(runtime, oracle)  # 0 -> 1 active
        assert not report.steady and flow.steady_report is None
        assert report.fixed_meter.count(Operation.EVENT_CHECK) == 2.0
        assert list(runtime._compiled.values()) == [flow] and not interpreted

    def test_spent_one_shot_moves_the_meter_back(self):
        runtime, oracle, interpreted = self._pair(lambda: [IPFilter("fw0")])
        (flow,) = runtime._compiled.values()
        events = [quiet_event(flow.fid), quiet_event(flow.fid)]
        for side, event in zip((runtime, oracle), events):
            side.event_table.register(event)
        assert not self._same_packet(runtime, oracle).steady
        for event in events:
            event.triggered = True  # spent elsewhere (a migrated record says so)
        report = self._same_packet(runtime, oracle)  # 1 -> 0 active
        assert report.steady and report is flow.steady_report
        assert report.fixed_meter.count(Operation.EVENT_CHECK) == 0.0
        assert list(runtime._compiled.values()) == [flow] and not interpreted

    def test_true_precheck_hands_the_packet_back_untouched(self):
        armed = []
        runtime, oracle, interpreted = self._pair(lambda: [IPFilter("fw0")])
        (flow,) = runtime._compiled.values()
        for side in (runtime, oracle):
            side.event_table.register(
                Event(flow.fid, "fw0", condition=lambda: bool(armed),
                      update_function=lambda: None, one_shot=False)
            )
        self._same_packet(runtime, oracle)
        armed.append(True)
        report = self._same_packet(runtime, oracle)
        # Recurring and still true: the pre-check and the post-check fire.
        assert len(interpreted) == 1 and report.events_fired == 2
        assert runtime.stats() == oracle.stats()


class TestConfigGating:
    """Nothing but the runtime and what is attached decides the route."""

    def test_analytic_only_config_keeps_interpreted_processing(self):
        packets = flow_packets(40)
        mixed = BessPlatform(InterpretedSpeedyBox([IPFilter("fw0")]))
        assert mixed._analytic_valid([[(0, 100.0)]]) is True
        reference = BessPlatform(InterpretedSpeedyBox([IPFilter("fw0")]))
        a = mixed.run_load(clone_packets(packets))
        b = des_run_load(reference, clone_packets(packets))
        assert a == b
        assert not mixed.runtime._compiled

    def test_compiled_only_config_uses_the_des(self):
        packets = flow_packets(40)
        # An attached registry sees every engine event: only the DES has any.
        platform = BessPlatform(SpeedyBox([IPFilter("fw0")]), metrics=MetricsRegistry())
        assert platform._analytic_valid([[(0, 100.0)]]) is False
        reference = BessPlatform(InterpretedSpeedyBox([IPFilter("fw0")]))
        a = platform.run_load(clone_packets(packets))
        b = des_run_load(reference, clone_packets(packets))
        assert a == b
        assert platform.runtime._compiled
