"""Unit tests for the packet-path tracer (repro.obs.trace)."""

import json

import pytest

from repro.obs import NULL_TRACER, PacketTracer
from repro.obs.trace import Span


class TestSpan:
    def test_end_ns(self):
        span = Span("nf:fw", "core0", start_ns=100, dur_ns=50)
        assert span.end_ns == 150

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Span("bad", "core0", start_ns=100, dur_ns=-1)


class TestRecording:
    def test_one_shot_span(self):
        tracer = PacketTracer()
        span = tracer.span("classify", "bess:main", 0, 120, packet=0, cycles=240)
        assert span.depth == 0
        assert span.args == {"packet": 0, "cycles": 240}
        assert len(tracer) == 1

    def test_begin_end_nesting_depth(self):
        tracer = PacketTracer()
        tracer.begin("outer", "core0", 0)
        tracer.begin("inner", "core0", 10)
        inner = tracer.end("core0", 30)
        outer = tracer.end("core0", 100)
        assert inner.name == "inner"
        assert inner.depth == 1
        assert inner.start_ns == 10 and inner.dur_ns == 20
        assert outer.name == "outer"
        assert outer.depth == 0
        assert outer.dur_ns == 100
        assert tracer.open_depth == 0

    def test_nesting_is_per_track(self):
        tracer = PacketTracer()
        tracer.begin("a", "core0", 0)
        tracer.begin("b", "core1", 5)
        # Closing core1 pops its own stack, not core0's.
        assert tracer.end("core1", 15).name == "b"
        assert tracer.open_depth == 1
        assert tracer.end("core0", 20).name == "a"

    def test_one_shot_span_inside_open_span_nests(self):
        tracer = PacketTracer()
        tracer.begin("hop", "core0", 0)
        child = tracer.span("transport", "core0", 2, 3)
        tracer.end("core0", 10)
        assert child.depth == 1

    def test_end_without_begin_raises(self):
        tracer = PacketTracer()
        with pytest.raises(ValueError):
            tracer.end("core0", 10)

    def test_end_merges_extra_args(self):
        tracer = PacketTracer()
        tracer.begin("hop", "core0", 0, packet=3)
        span = tracer.end("core0", 10, verdict="drop")
        assert span.args == {"packet": 3, "verdict": "drop"}

    def test_tracks_in_first_use_order(self):
        tracer = PacketTracer()
        tracer.span("a", "t2", 0, 1)
        tracer.instant("m", "t0", 2)
        tracer.counter("occupancy", "t1", 3, 4)
        tracer.span("b", "t2", 5, 1)
        assert tracer.tracks() == ["t2", "t0", "t1"]

    def test_reset(self):
        tracer = PacketTracer()
        tracer.span("a", "t", 0, 1)
        tracer.begin("open", "t", 2)
        tracer.reset()
        assert len(tracer) == 0
        assert tracer.open_depth == 0
        assert tracer.tracks() == []


class TestDisabledMode:
    def test_null_tracer_records_nothing(self):
        NULL_TRACER.span("a", "t", 0, 1)
        NULL_TRACER.begin("b", "t", 0)
        assert NULL_TRACER.end("t", 5) is None  # no stack, no error
        NULL_TRACER.instant("i", "t", 0)
        NULL_TRACER.counter("c", "t", 0, 1)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.tracks() == []


class TestJsonlExport:
    def test_jsonl_lines_parse_and_cover_all_record_types(self):
        tracer = PacketTracer()
        tracer.span("hop", "core0", 0, 10, packet=1)
        tracer.instant("drop", "core0", 4)
        tracer.counter("occupancy", "ring0", 5, 3)
        lines = tracer.to_jsonl().splitlines()
        records = [json.loads(line) for line in lines]
        assert {record["type"] for record in records} == {"span", "instant", "counter"}
        span = next(r for r in records if r["type"] == "span")
        assert span["name"] == "hop" and span["dur_ns"] == 10.0

    def test_write_jsonl(self, tmp_path):
        tracer = PacketTracer()
        tracer.span("hop", "core0", 0, 10)
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(path) == 1
        assert json.loads(path.read_text().strip())["type"] == "span"


class TestChromeExport:
    def make_tracer(self):
        tracer = PacketTracer()
        tracer.span("classify", "bess:main", 1000, 500, packet=0)
        tracer.span("nf:fw", "bess:main", 1500, 2000, packet=0)
        tracer.instant("event_fired", "bess:main", 3000)
        tracer.counter("occupancy", "ring:tx", 2000, 2)
        return tracer

    def test_round_trip_is_valid_json(self, tmp_path):
        tracer = self.make_tracer()
        path = tmp_path / "trace.json"
        count = tracer.write_chrome(path)
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count
        assert loaded["displayTimeUnit"] == "ns"

    def test_timed_events_have_monotonic_ts(self):
        trace = self.make_tracer().to_chrome()
        timed = [event for event in trace["traceEvents"] if event["ph"] != "M"]
        timestamps = [event["ts"] for event in timed]
        assert timestamps == sorted(timestamps)

    def test_metadata_names_every_track(self):
        tracer = self.make_tracer()
        trace = tracer.to_chrome()
        metadata = [event for event in trace["traceEvents"] if event["ph"] == "M"]
        assert {event["args"]["name"] for event in metadata} == set(tracer.tracks())
        assert all(event["name"] == "thread_name" for event in metadata)
        # Distinct tid per track, shared pid.
        assert len({event["tid"] for event in metadata}) == len(metadata)
        assert {event["pid"] for event in metadata} == {0}

    def test_units_are_microseconds(self):
        trace = self.make_tracer().to_chrome()
        classify = next(e for e in trace["traceEvents"] if e.get("name") == "classify")
        assert classify["ph"] == "X"
        assert classify["ts"] == 1.0  # 1000 ns
        assert classify["dur"] == 0.5  # 500 ns

    def test_event_phases(self):
        trace = self.make_tracer().to_chrome()
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert phases == {"M", "X", "i", "C"}
        counter = next(e for e in trace["traceEvents"] if e["ph"] == "C")
        assert counter["args"] == {"occupancy": 2.0}

    def empty_tracer(self):
        return PacketTracer()

    def large_tracer(self):
        # 10 000 spans + metadata: several chunks of the chunked writer,
        # the last one partial
        tracer = PacketTracer()
        for index in range(10_000):
            tracer.span("hop", f"core{index % 3}", index * 7.5, 3.25, packet=index)
        return tracer

    def awkward_args_tracer(self):
        tracer = self.make_tracer()
        tracer.span(
            "nf:séance",
            "bess:основной",
            4000,
            10,
            rule='"quoted" \\ back\nslash',
            nested={"flows": [1, 2.5, None, True], "tags": {"π": "✓"}},
        )
        return tracer

    @pytest.mark.parametrize(
        "build", ["empty_tracer", "make_tracer", "large_tracer", "awkward_args_tracer"]
    )
    def test_written_file_is_json_dumps_of_to_chrome(self, tmp_path, build):
        tracer = getattr(self, build)()
        path = tmp_path / "trace.json"
        count = tracer.write_chrome(path)
        trace = tracer.to_chrome()
        assert count == len(trace["traceEvents"])
        assert path.read_text() == json.dumps(trace)
