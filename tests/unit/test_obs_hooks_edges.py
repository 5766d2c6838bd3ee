"""Edge cases for TracingObserver and the unloaded-mode timeline.

Covers the corners the happy-path hook tests skip: empty runs,
blocked-put storms at tiny ring capacity, one tracer shared by several
observed runs (tracks must not mix), and timeline layout for dropped
and parallel-wave packets.
"""

from repro.core.framework import ServiceChain, SpeedyBox
from repro.nf import IPFilter, Monitor, TokenBucketPolicer
from repro.obs import PacketTracer, TracingObserver
from repro.obs.timeline import trace_unloaded
from repro.platform import BessPlatform
from repro.sim.engine import Engine, Get, Put, Timeout
from repro.sim.resources import Store
from repro.traffic import FlowSpec, TrafficGenerator
from tests.integration.helpers import read_chrome


def make_packets(n=8):
    spec = FlowSpec.tcp("10.0.0.1", "20.0.0.1", 1000, 80, packets=n)
    return TrafficGenerator([spec]).packets()


def run_pipeline(engine, observer, items, capacity, name="ring0"):
    engine.observer = observer
    store = Store(engine, capacity=capacity, name=name)

    def producer():
        for index in range(items):
            yield Put(store, index)

    def consumer():
        for _ in range(items):
            yield Get(store)
            yield Timeout(10.0)

    engine.add_process(producer(), name="producer")
    engine.add_process(consumer(), name="consumer")
    engine.run()


class TestTracingObserverEdges:
    def test_empty_engine_run_records_nothing(self):
        tracer = PacketTracer()
        engine = Engine()
        engine.observer = TracingObserver(tracer, "")
        engine.run()  # no processes at all
        assert tracer.tracks() == []

    def test_blocked_put_storm_is_fully_recorded(self):
        """Capacity 1 under a slow consumer: every put but the first blocks."""
        tracer = PacketTracer()
        run_pipeline(Engine(), TracingObserver(tracer, ""), items=20, capacity=1)
        records = read_chrome(tracer)["traceEvents"]
        blocked = [e for e in records if e.get("name") == "blocked_put"]
        # The producer outruns the consumer's 10 ns service time: after
        # the first two puts race ahead, every remaining put blocks.
        assert len(blocked) == 18
        counters = [e for e in records if e["ph"] == "C"]
        assert len(counters) == 40  # one occupancy sample per put + per get
        occupancies = [e["args"]["occupancy"] for e in counters]
        assert max(occupancies) <= 1  # never exceeds ring capacity

    def test_two_observed_runs_on_one_tracer_keep_their_tracks_apart(self):
        """Two traced ``run_load`` calls replay on two engines: the
        second run's ring and stage tracks are its own, so no track
        holds replay samples (occupancy, blocked marks, stage spans)
        from both runs."""
        tracer = PacketTracer()
        platform = BessPlatform(SpeedyBox([IPFilter("fw")]), tracer=tracer)
        marks = []
        for __ in range(2):
            platform.run_load(make_packets(8))
            spans, instants, counters = tracer.events()
            marks.append((len(counters), len(instants), len(spans)))

        def run_of(index, column):
            return 0 if index < marks[0][column] else 1

        runs_by_track = {}
        for index, sample in enumerate(counters):
            runs_by_track.setdefault(sample.track, set()).add(run_of(index, 0))
        for index, instant in enumerate(instants):
            if instant.name.startswith("blocked_"):
                runs_by_track.setdefault(instant.track, set()).add(run_of(index, 1))
        for index, span in enumerate(spans):
            if span.name.startswith("pkt"):
                runs_by_track.setdefault(span.track, set()).add(run_of(index, 2))
        assert {"ring:bess:chain-core", "bess:chain-core"} <= set(runs_by_track)
        assert {track for track, runs in runs_by_track.items() if runs == {1}} == {
            "run1:ring:bess:chain-core", "run1:bess:chain-core"
        }
        assert all(len(runs) == 1 for runs in runs_by_track.values())


class TestEmptyRuns:
    def test_run_load_with_no_packets(self):
        platform = BessPlatform(SpeedyBox([IPFilter("fw")]))
        result = platform.run_load([])
        assert result.offered == 0
        assert result.delivered == 0

    def test_run_load_with_no_packets_and_tracer(self):
        tracer = PacketTracer()
        platform = BessPlatform(SpeedyBox([IPFilter("fw")]), tracer=tracer)
        result = platform.run_load([])
        assert result.delivered == 0
        # Chrome export of whatever little was traced still works.
        read_chrome(tracer)


class TestTimelineEdges:
    def test_dropped_packet_ends_with_instant_not_tx(self):
        tracer = PacketTracer()
        # burst=1: the second back-to-back packet exceeds the bucket.
        runtime = ServiceChain([TokenBucketPolicer("pol", rate_pps=1.0, burst=1)])
        platform = BessPlatform(runtime)
        packets = make_packets(2)
        reports = [runtime.process(p) for p in packets]
        assert reports[1].dropped
        end = trace_unloaded(tracer, platform, reports[1], 0.0, 1)
        names = [s.name for s in tracer.spans]
        assert "nic_tx" not in names
        instants = [e for e in read_chrome(tracer)["traceEvents"] if e["ph"] == "i"]
        assert any(e["name"] == "dropped" for e in instants)
        assert end > 0.0

    def test_fast_path_wave_spans_carry_wave_index(self):
        tracer = PacketTracer()
        runtime = SpeedyBox([Monitor("m0"), Monitor("m1")])
        platform = BessPlatform(runtime)
        reports = [runtime.process(p) for p in make_packets(8)]
        fast = [r for r in reports if r.is_fast]
        assert fast, "steady flow must reach the fast path"
        trace_unloaded(tracer, platform, fast[-1], 0.0, 0)
        sf_spans = [s for s in tracer.spans if s.name.startswith("sf:")]
        assert sf_spans
        assert all("wave" in s.args for s in sf_spans)

    def test_timeline_is_contiguous_for_slow_path(self):
        tracer = PacketTracer()
        runtime = ServiceChain([IPFilter("fw0"), IPFilter("fw1")])
        platform = BessPlatform(runtime)
        report = runtime.process(make_packets(1)[0])
        end = trace_unloaded(tracer, platform, report, 100.0, 0)
        main = [s for s in tracer.spans if s.track.endswith(":main")]
        cursor = 100.0
        for span in main:
            assert span.start_ns == cursor
            cursor += span.dur_ns
        assert cursor == end
