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
from repro.nf import IPFilter, Monitor
from repro.obs import MetricsRegistry
from repro.platform import BessPlatform
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets
from tests.integration.helpers import InterpretedSpeedyBox, des_run_load


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

    def test_active_event_bypasses_the_closure(self):
        runtime, fid = self._established()
        runtime.event_table.register(
            Event(fid, "fw0", condition=lambda: False, update_action=None,
                  update_function=lambda: None)
        )
        packets = flow_packets(2)
        report = runtime.process(packets[0])
        # The closure must decline (active event) and the interpreted
        # fast path must serve the packet instead.
        assert report.path is PathTaken.FAST
        assert not report.steady

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


class TestConfigGating:
    """Nothing but the runtime and what is attached decides the route."""

    def test_analytic_only_config_keeps_interpreted_processing(self):
        packets = flow_packets(40)
        mixed = BessPlatform(InterpretedSpeedyBox([IPFilter("fw0")]))
        assert mixed._analytic_valid([[(0, 100.0)]]) is True
        reference = BessPlatform(InterpretedSpeedyBox([IPFilter("fw0")]))
        a = mixed.run_load(clone_packets(packets))
        b = des_run_load(reference, clone_packets(packets))
        assert a.latencies_ns == b.latencies_ns
        assert a.makespan_ns == b.makespan_ns
        assert not mixed.runtime._compiled

    def test_compiled_only_config_uses_the_des(self):
        packets = flow_packets(40)
        # An attached registry sees every engine event: only the DES has any.
        platform = BessPlatform(SpeedyBox([IPFilter("fw0")]), metrics=MetricsRegistry())
        assert platform._analytic_valid([[(0, 100.0)]]) is False
        reference = BessPlatform(InterpretedSpeedyBox([IPFilter("fw0")]))
        a = platform.run_load(clone_packets(packets))
        b = des_run_load(reference, clone_packets(packets))
        assert a.latencies_ns == b.latencies_ns
        assert platform.runtime._compiled
