"""FlowSpanRecorder: stage mapping, sampling, capping, exact attribution, export."""

import pytest

from repro.core.actions import Modify
from repro.core.framework import SpeedyBox
from repro.nf import IPFilter, MazuNAT, Monitor, SyntheticNF
from repro.nf.ipfilter import AclRule
from repro.obs import STAGE_ORDER, FlowSpanRecorder, PacketTracer, load_jsonl, stage_of
from repro.platform import BessPlatform
from repro.platform.costs import CostModel, Operation
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets


def make_packets(n=8, sport=1000):
    spec = FlowSpec.tcp("10.0.0.1", "20.0.0.1", sport, 80, packets=n)
    return TrafficGenerator([spec]).packets()


def record_run(recorder, chain=None, packets=None):
    runtime = SpeedyBox(chain or [MazuNAT("nat"), Monitor("mon")])
    reports = [runtime.process(p) for p in (packets or make_packets(8))]
    for report in reports:
        recorder.record(report, CostModel())
    return reports


class TestStageMapping:
    def test_every_operation_maps_to_a_known_stage(self):
        for operation in Operation:
            assert stage_of(operation) in STAGE_ORDER

    def test_representative_mappings(self):
        assert stage_of(Operation.PARSE) == "classify"
        assert stage_of(Operation.GLOBAL_MAT_LOOKUP) == "mat_lookup"
        assert stage_of(Operation.FAST_PATH_DISPATCH) == "dispatch"
        assert stage_of(Operation.MERGED_FIELD_WRITE) == "header_action"
        assert stage_of(Operation.CONSOLIDATE_ACTION) == "consolidate"
        assert stage_of(Operation.FLOW_DELETE) == "teardown"
        assert stage_of(Operation.NIC_RX) == "transport"


class TestSampling:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FlowSpanRecorder(every=0)
        with pytest.raises(ValueError):
            FlowSpanRecorder(max_spans_per_flow=0)
        FlowSpanRecorder(every=1, max_spans_per_flow=None)  # both edges ok

    def test_every_n_samples_the_kth_distinct_flow(self):
        recorder = FlowSpanRecorder(every=3)
        decisions = [recorder.wants(fid) for fid in (10, 20, 30, 40, 50, 60)]
        # Deterministic: flows ranked 0, 3 are sampled out of 6.
        assert decisions == [True, False, False, True, False, False]
        assert recorder.flows_seen == 6
        assert recorder.flows_sampled == 2
        # The decision is sticky per flow.
        assert recorder.wants(10) is True
        assert recorder.wants(20) is False
        assert recorder.flows_seen == 6

    def test_unsampled_flows_join_the_skip_probe(self):
        recorder = FlowSpanRecorder(every=2)
        recorder.wants(1)
        recorder.wants(2)
        assert 1 not in recorder.skip  # sampled
        assert recorder.skip.get(2) is True  # unsampled: one-probe veto

    def test_record_respects_sampling(self):
        recorder = FlowSpanRecorder(every=2)
        runtime = SpeedyBox([Monitor("mon")])
        for sport in (1000, 1001, 1002, 1003):
            for packet in make_packets(4, sport=sport):
                recorder.record(runtime.process(packet), CostModel())
        assert recorder.flows_sampled == 2
        fids = {root["args"]["fid"] for root in recorder.roots()}
        assert len(fids) == 2


class TestCap:
    def test_cap_stops_recording_and_vetoes_the_flow(self):
        recorder = FlowSpanRecorder(every=1, max_spans_per_flow=3)
        record_run(recorder, packets=make_packets(8))
        assert recorder.packets_sampled == 3
        fid = recorder.roots()[0]["args"]["fid"]
        assert recorder.skip.get(fid) is True

    def test_none_cap_records_every_packet(self):
        recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None)
        record_run(recorder, packets=make_packets(8))
        assert recorder.packets_sampled == 8


class TestAttribution:
    def test_spans_are_priced_by_the_recording_platform(self):
        """A platform with its own cost model prices its spans with it:
        the first root span of a NAT + Monitor flow on BESS reads the
        report's cycles under the platform's costs (2 980 here), not
        under a default ``CostModel()`` (2 080)."""
        from repro.platform.base import PlatformConfig

        costs = CostModel().with_overrides(parse=400.0, counter_update=500.0)
        recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None)
        platform = BessPlatform(
            SpeedyBox([MazuNAT("nat"), Monitor("mon")]),
            config=PlatformConfig(cost_model=costs),
            spans=recorder,
        )
        outcome = platform.process(make_packets(1)[0])
        first = recorder.roots()[0]["args"]["cycles"]
        assert first == outcome.report.total_meter().cycles(platform.costs) == 2980.0
        assert outcome.report.total_meter().cycles(CostModel()) == 2080.0

    def test_child_cycles_partition_the_meter_exactly(self):
        """Per-span cycles sum to total_meter().cycles() — exact ==."""
        model = CostModel()
        recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None)
        reports = record_run(
            recorder, chain=[MazuNAT("nat"), Monitor("mon"), IPFilter("fw")]
        )
        roots = recorder.roots()
        assert len(roots) == len(reports)
        for root, report in zip(roots, reports):
            assert root["args"]["cycles"] == report.total_meter().cycles(model)
        span_total = sum(
            r["args"]["cycles"] for r in recorder.records if r["depth"] == 1
        )
        run_total = sum(r.total_meter().cycles(model) for r in reports)
        assert span_total == run_total

    def test_children_carry_stage_labels_and_tile_the_root(self):
        recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None)
        record_run(recorder, packets=make_packets(2))
        roots = recorder.roots()
        for root in roots:
            children = [
                r for r in recorder.records
                if r["depth"] == 1 and r["track"] == root["track"]
                and root["start_ns"] <= r["start_ns"] < root["start_ns"] + root["dur_ns"]
            ]
            assert children, "every packet span has stage children"
            # Children tile the root interval contiguously.
            cursor = root["start_ns"]
            for child in children:
                assert child["start_ns"] == cursor
                cursor += child["dur_ns"]
            assert cursor == root["start_ns"] + root["dur_ns"]
            assert all("stage" in c["args"] for c in children)

    def test_fast_path_spans_name_sf_batches(self):
        recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None)
        record_run(recorder, chain=[Monitor("mon")], packets=make_packets(8))
        names = {r["name"] for r in recorder.records}
        assert "sf:mon" in names  # fast-path state-function batch
        assert "dispatch" in {r["args"].get("stage") for r in recorder.records
                              if r["depth"] == 1}

    def test_steady_template_reuse_is_observably_identical(self):
        def spans_of(**kwargs):
            recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None, **kwargs)
            record_run(recorder, chain=[Monitor("m")], packets=make_packets(12))
            return [
                (r["name"], r["args"].get("stage"), r["args"].get("cycles"))
                for r in recorder.records
            ]

        first = spans_of()
        assert first == spans_of()  # deterministic run to run


class TestLoadedAnnotation:
    def test_annotate_loaded_stamps_sim_times(self):
        recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None)
        runtime = SpeedyBox([Monitor("mon")])
        roots = {
            index: recorder.record(runtime.process(packet), CostModel())
            for index, packet in enumerate(make_packets(4))
        }
        recorder.annotate_loaded(roots, [100.0, 200.0, 300.0, 400.0], [150.0, 260.0, 390.0, 480.0])
        roots = recorder.roots()
        assert [root["args"]["sim_latency_ns"] for root in roots] == [50.0, 60.0, 90.0, 80.0]
        assert roots[3]["args"]["sim_arrival_ns"] == 400.0
        assert roots[3]["args"]["sim_finish_ns"] == 480.0

    def test_a_run_that_raises_leaks_no_roots(self):
        """Sampled roots live on the run: one that dies mid-pass takes
        them along, and the next run's stamps are exactly what a fresh
        recorder's would be."""
        specs = [
            FlowSpec.udp(f"10.0.0.{i + 1}", "20.0.0.1", 5000 + i, 53, packets=3)
            for i in range(4)
        ]
        packets = TrafficGenerator(specs, interleave="round_robin").packets()

        def stamps_of_next_run(fresh_recorder):
            recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None)
            platform = BessPlatform(SpeedyBox([RaisesOnThirdPacket("mon")]), spans=recorder)
            with pytest.raises(RuntimeError, match="third packet"):
                platform.run_load(clone_packets(packets), inter_arrival_ns=500.0)
            aborted = len(recorder.roots())
            assert aborted == 2
            if fresh_recorder:
                platform.spans = recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None)
                aborted = 0
            platform.run_load(clone_packets(packets), inter_arrival_ns=500.0)
            roots = recorder.roots()
            assert not any("sim_arrival_ns" in root["args"] for root in roots[:aborted])
            return [
                {key: value for key, value in root["args"].items() if key.startswith("sim_")}
                for root in roots[aborted:]
            ]

        stamps = stamps_of_next_run(fresh_recorder=False)
        assert len(stamps) == len(packets)
        assert [stamp["sim_arrival_ns"] for stamp in stamps] == [
            index * 500.0 for index in range(len(packets))
        ]
        assert stamps == stamps_of_next_run(fresh_recorder=True)


class RaisesOnThirdPacket(Monitor):
    """Fails the third packet it is shown (first packets take the slow
    path, so that is the third flow's first), then behaves."""

    calls = 0

    def process(self, packet, api):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("third packet")
        super().process(packet, api)


class TestRecorderAcrossRuns:
    def test_reset_or_swapped_recorder_records_the_next_run(self):
        """A run's "this flow is done recording" marks die with the run:
        the runtime's steady reports outlive it, and a recorder that was
        reset or replaced since must see every flow again."""
        specs = [
            FlowSpec.udp(f"10.0.0.{i + 1}", "20.0.0.1", 5000 + i, 53, packets=20)
            for i in range(4)
        ]
        packets = TrafficGenerator(specs, interleave="round_robin").packets()
        recorder = FlowSpanRecorder(every=1, max_spans_per_flow=2)
        platform = BessPlatform(SpeedyBox([IPFilter("fw")]), spans=recorder)

        def sampled_and_seen():
            platform.run_load(clone_packets(packets))
            summary = platform.spans.summary()
            return summary["packets_sampled"], summary["flows_seen"]

        assert sampled_and_seen() == (8, 4)
        recorder.reset()
        assert sampled_and_seen() == (8, 4)
        platform.spans = FlowSpanRecorder(every=1, max_spans_per_flow=2)
        assert sampled_and_seen() == (8, 4)


class TestSteadyTemplates:
    def test_a_dead_flows_template_is_not_served_to_a_live_one(self):
        """Steady templates are found by ``id(report)``; with tables of
        one flow a dead flow's steady report is collected mid-run and
        its id recycled by the next flow's, whose spans must still be
        its own (forwarded: 660 cycles of children, ACL-dropped: 750)."""
        model = CostModel()
        recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None)
        runtime = SpeedyBox(
            [
                SyntheticNF("a", action=Modify.ttl_dec(), sf_payload_class=None),
                IPFilter("fw", rules=[AclRule.make(src="10.0.0.2")]),
            ],
            max_flows=1,
            max_tracked_flows=1,
        )
        checked = 0
        for trial in range(30):
            for src in ("10.0.0.1", "10.0.0.2"):
                spec = FlowSpec.udp(src, "20.0.0.1", 7000 + trial, 53, packets=4)
                for packet in TrafficGenerator([spec]).packets():
                    report = runtime.process(packet)
                    root = recorder.record(report, model)
                    assert root["args"]["cycles"] == report.total_meter().cycles(model)
                    checked += 1
                    # let a dead flow's report be collected, as a loaded run does
                    del report, root
        assert checked == 240


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None)
        record_run(recorder, packets=make_packets(3))
        path = tmp_path / "spans.jsonl"
        assert recorder.write_jsonl(path) == len(recorder.records)
        assert load_jsonl(path) == recorder.records

    def test_replay_into_tracer(self):
        recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None)
        record_run(recorder, packets=make_packets(3))
        tracer = PacketTracer()
        assert recorder.replay_into(tracer) == len(recorder.records)
        assert any(track.startswith("flow:") for track in tracer.tracks())

    def test_reset_and_repr(self):
        recorder = FlowSpanRecorder(every=1)
        record_run(recorder, packets=make_packets(2))
        assert len(recorder) > 0
        recorder.reset()
        assert len(recorder) == 0
        assert recorder.summary() == {
            "every": 1, "flows_seen": 0, "flows_sampled": 0,
            "packets_sampled": 0, "spans": 0,
        }
        assert "1-in-1" in repr(recorder)
