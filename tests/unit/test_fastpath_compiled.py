"""Unit tests for the compiled fast lane: caching, gating, invalidation.

:mod:`repro.core.fastpath` promises the compiled closure is observably
identical to the interpreted fast path and that it *never* serves a
packet after its assumptions break — these tests pin the cache
lifecycle rather than end-to-end equality (the integration suite owns
that).
"""

from __future__ import annotations

import pytest

from repro.core.actions import Forward
from repro.core.event_table import Event
from repro.core.fastpath import SHARED_REPORTS
from repro.core.framework import PathTaken, SpeedyBox
from repro.core.state_function import PayloadClass
from repro.nf import (
    DosPrevention,
    IPFilter,
    MaglevLoadBalancer,
    MazuNAT,
    Monitor,
    NetworkFunction,
    SnortIDS,
)
from repro.nf.maglev import Backend
from repro.obs import MetricsRegistry
from repro.platform import BessPlatform
from repro.platform.costs import NULL_METER, Operation
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets
from tests.integration.helpers import InterpretedSpeedyBox, count_interpreted, des_run_load


RULES = 'alert tcp any any -> any any (msg:"x"; content:"malware"; sid:1;)'


def flow_packets(count=6, sport=4100):
    spec = FlowSpec.tcp("10.0.0.1", "20.0.0.1", sport, 80, packets=count, payload=b"q" * 8)
    return TrafficGenerator([spec]).packets()


def sized_flow(sizes, sport=4200):
    """One TCP flow whose packets carry payloads of ``sizes`` bytes."""
    spec = FlowSpec.tcp("10.0.0.1", "20.0.0.1", sport, 80, packets=len(sizes),
                        payload=lambda index: b"z" * sizes[index])
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

    def test_one_program_per_rule_shared_by_both_routes(self, monkeypatch):
        """The event-frequency ablation's storm cell (policer offered at
        2.0x its rate): a firing packet runs the rebuilt rule's program on
        the interpreted route, and the recompiled lane shares that same
        program — one build per rule that serves a fast-path packet."""
        import repro.core.fastpath as fastpath
        from repro.nf import TokenBucketPolicer

        built = []
        init = fastpath.RuleProgram.__init__

        def counting_init(program, rule, nf_by_name):
            built.append(rule)
            init(program, rule, nf_by_name)

        monkeypatch.setattr(fastpath.RuleProgram, "__init__", counting_init)
        runtime = SpeedyBox([TokenBucketPolicer("pol", rate_pps=100_000.0, burst=4),
                             Monitor("mon")])
        spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000, 80, packets=400, payload=b"x")
        packets = TrafficGenerator([spec]).packets()
        for index, packet in enumerate(packets):
            packet.timestamp_ns = index * 1e9 / 200_000.0
        for packet in packets:
            runtime.process(packet)
            for flow in runtime._compiled.values():
                if flow.rule is runtime.global_mat.peek(flow.fid):
                    assert flow.program is flow.rule.program
        assert runtime.stats()["reconsolidations"] > 100
        assert len(built) == len({id(rule) for rule in built})

    def test_sf_chain_compiles_without_steady_singleton(self):
        runtime = SpeedyBox([IPFilter("fw0"), Monitor("mon0")])
        packets = flow_packets(4)
        reports = [runtime.process(p) for p in packets]
        (flow,) = runtime._compiled.values()
        # Monitor's SF schedule makes per-packet meters: no singleton, but
        # packets that repeat the first compiled packet's signature get its
        # report back.
        assert flow.steady_report is None
        assert not reports[0].steady
        assert all(r.steady and r is reports[1] for r in reports[1:])
        assert list(flow.shared.values()) == [reports[1]]

    def test_alternating_snort_payloads_share_two_reports(self):
        runtime = SpeedyBox([SnortIDS("snort", RULES), Monitor("mon0")])
        packets = sized_flow([26, 1400] * 5)
        reports = [runtime.process(packet) for packet in packets]
        (flow,) = runtime._compiled.values()
        assert len(flow.shared) == 2
        small, large = reports[2], reports[3]
        assert small is not large and small.steady and large.steady
        assert reports[2::2] == [small] * 4 and all(r is small for r in reports[2::2])
        assert all(r is large for r in reports[3::2])
        scans = [meter.count(Operation.PAYLOAD_BYTE_SCAN)
                 for report in (small, large) for wave in report.sf_waves
                 for __, meter in wave if meter.count(Operation.PAYLOAD_BYTE_SCAN)]
        assert scans == [26.0, 1400.0]

    def test_a_flow_past_the_cap_gets_fresh_reports_timed_the_same(self):
        sizes = [40 + index for index in range(SHARED_REPORTS + 4)]
        runtime = SpeedyBox([SnortIDS("snort", RULES)])
        oracle = InterpretedSpeedyBox([SnortIDS("snort", RULES)])
        packets = sized_flow(sizes + sizes)
        reports = [runtime.process(packet) for packet in packets]
        references = [oracle.process(packet) for packet in sized_flow(sizes + sizes)]
        (flow,) = runtime._compiled.values()
        assert len(flow.shared) == SHARED_REPORTS
        # The first packet records; the next SHARED_REPORTS signatures are shared.
        first, second = reports[1 : len(sizes)], reports[len(sizes) + 1 :]
        assert all(a.steady and a is b for a, b in zip(first[:SHARED_REPORTS],
                                                       second[:SHARED_REPORTS]))
        past = list(zip(first[SHARED_REPORTS:], second[SHARED_REPORTS:]))
        assert len(past) == 3
        assert all(not a.steady and not b.steady and a is not b for a, b in past)
        platform = BessPlatform(runtime)
        timings = [platform._time_report(report) for report in reports]
        assert timings == [platform._time_report(report) for report in references]
        assert all(platform._time_report(a) == platform._time_report(b) for a, b in past)

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
        # no singleton while an event is active, but the signature's shared report
        assert report.steady and report.events_fired == 0
        assert flow.steady_report is None and report in flow.shared.values()
        assert report.fixed_meter.count(Operation.EVENT_CHECK) == 2.0
        assert report.fixed_meter is flow.fixed_meter  # the shared template

    def test_event_registered_on_a_compiled_flow_moves_the_meter(self):
        runtime, oracle, interpreted = self._pair(lambda: [IPFilter("fw0")])
        (flow,) = runtime._compiled.values()
        assert self._same_packet(runtime, oracle).steady
        for side in (runtime, oracle):
            side.event_table.register(quiet_event(flow.fid))
        report = self._same_packet(runtime, oracle)  # 0 -> 1 active
        assert flow.steady_report is None
        assert report.steady and list(flow.shared.values()) == [report]
        assert report.fixed_meter.count(Operation.EVENT_CHECK) == 2.0
        assert list(runtime._compiled.values()) == [flow] and not interpreted

    def test_spent_one_shot_moves_the_meter_back(self):
        runtime, oracle, interpreted = self._pair(lambda: [IPFilter("fw0")])
        (flow,) = runtime._compiled.values()
        events = [quiet_event(flow.fid), quiet_event(flow.fid)]
        for side, event in zip((runtime, oracle), events):
            side.event_table.register(event)
        shared = self._same_packet(runtime, oracle)
        assert shared.steady and flow.steady_report is None
        for event in events:
            event.triggered = True  # spent elsewhere (a migrated record says so)
        report = self._same_packet(runtime, oracle)  # 1 -> 0 active
        assert report.steady and report is flow.steady_report
        assert report is not shared and not flow.shared
        assert report.fixed_meter.count(Operation.EVENT_CHECK) == 0.0
        assert list(runtime._compiled.values()) == [flow] and not interpreted

    def test_a_packet_that_fires_an_event_never_gets_a_shared_report(self):
        runtime, oracle, interpreted = self._pair(
            lambda: [DosPrevention("dos0", threshold=5, mode="packets"), Monitor("mon0")]
        )
        (flow,) = runtime._compiled.values()
        reports = [self._same_packet(runtime, oracle) for __ in range(4)]
        fired = [report for report in reports if report.events_fired]
        # the lane fires it (the rebuilt rule serves the next packet interpreted)
        assert len(fired) == 1 and len(interpreted) == 1
        assert not fired[0].steady
        assert all(fired[0] is not report for report in flow.shared.values())
        assert reports[0].steady and not reports[0].events_fired

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


class TwoFunctions(NetworkFunction):
    """Records two state functions into its one batch per flow: a packet
    tally, and a byte count with a recorded argument that raises while
    ``failing`` is set."""

    def __init__(self, name: str = "two"):
        super().__init__(name)
        self.tally = 0
        self.bytes = 0
        self.failing = False

    def tally_packet(self, packet) -> None:
        self.charge(Operation.COUNTER_UPDATE)
        self.tally += 1

    def count_bytes(self, packet, scale: int) -> None:
        self.charge(Operation.EXACT_MATCH_LOOKUP, 2)
        if self.failing:
            raise RuntimeError("count_bytes failed")
        self.bytes += scale * packet.byte_length()

    def process(self, packet, api) -> None:
        self.ingress(packet)
        fid = api.nf_extract_fid(packet)
        self.tally_packet(packet)
        self.count_bytes(packet, 2)
        api.add_header_action(fid, Forward())
        api.add_state_function(fid, self.tally_packet, PayloadClass.IGNORE, name="tally")
        api.add_state_function(fid, self.count_bytes, PayloadClass.IGNORE, args=(2,), name="bytes")


def chain1_and_two_functions():
    """The paper's Chain 1 (NAT, load balancer, monitor, firewall) with
    :class:`TwoFunctions` before the firewall."""
    backends = [Backend.make(f"b{i}", f"192.168.9.{i + 1}", 9000) for i in range(4)]
    return [
        MazuNAT("mazunat", external_ip="203.0.113.9", internal_prefix="10.0.0.0/8"),
        MaglevLoadBalancer("maglev", backends=backends, table_size=131),
        Monitor("monitor"),
        TwoFunctions("two"),
        IPFilter("ipfilter"),
    ]


def state_functions(runtime):
    """Every state function the flow's tables hold, Local MATs first, then
    the Global MAT schedule (each once, first place kept)."""
    functions = {}
    for fid in runtime.global_mat.flows():
        for local_mat in runtime.local_mats.values():
            for function in local_mat.rule_for(fid).sf_batch:
                functions.setdefault(id(function), function)
        for wave in runtime.global_mat.peek(fid).schedule.waves:
            for batch in wave:
                for function in batch:
                    functions.setdefault(id(function), function)
    return list(functions.values())


def batch_counts(report):
    """Each SF batch meter of a report: its NF and its counts in charge order."""
    return [(name, list(meter.counts.items())) for wave in report.sf_waves for name, meter in wave]


class TestStateFunctionBookkeeping:
    """The lane's rule program counts invocations, pre-charges each batch
    meter and books quiet event checks itself; the interpreted oracle
    does all three step by step.  Both must leave the same numbers."""

    def _pair(self):
        registries = (MetricsRegistry(), MetricsRegistry())
        runtime = SpeedyBox(chain1_and_two_functions(), metrics=registries[0])
        oracle = InterpretedSpeedyBox(chain1_and_two_functions(), metrics=registries[1])
        return runtime, oracle, registries

    def test_lane_and_oracle_leave_the_same_counts(self):
        runtime, oracle, (lane_metrics, oracle_metrics) = self._pair()
        interpreted = count_interpreted(runtime)
        packets = flow_packets(8)
        for packet, twin in zip(packets, clone_packets(packets)):
            report, reference = runtime.process(packet), oracle.process(twin)
            assert batch_counts(report) == batch_counts(reference)
        assert not interpreted, "the lane handed a packet back"
        (flow,) = runtime._compiled.values()
        assert flow.event_active == 1  # Maglev's reroute event, checked twice a packet
        ((two_batch,),) = [
            [batch for batch in wave if batch.nf_name == "two"]
            for wave in runtime.global_mat.peek(flow.fid).schedule.waves
        ]
        assert [function.name for function in two_batch] == ["tally", "bytes"]
        lane, reference = state_functions(runtime), state_functions(oracle)
        assert [fn.name for fn in lane] == [fn.name for fn in reference]
        assert [fn.invocations for fn in lane] == [fn.invocations for fn in reference]
        assert all(fn.invocations == len(packets) - 1 for fn in lane)
        assert runtime.event_table.total_checks == oracle.event_table.total_checks > 0
        checks = lane_metrics.snapshot()["event_checks_total"]
        assert checks == oracle_metrics.snapshot()["event_checks_total"]
        assert checks == runtime.event_table.total_checks

    @pytest.mark.parametrize("route", ["lane", "oracle"])
    def test_a_raising_state_function_detaches_its_meter(self, route):
        runtime, oracle, __ = self._pair()
        side = runtime if route == "lane" else oracle
        interpreted = count_interpreted(side)
        packets = flow_packets(4)
        for packet in packets[:3]:
            side.process(packet)
        two = side.nf_by_name["two"]
        two.failing = True
        with pytest.raises(RuntimeError, match="count_bytes failed"):
            side.process(packets[3])
        assert bool(interpreted) == (route == "oracle")
        assert all(nf.meter is NULL_METER for nf in side.nfs)

