"""Engine-hook firing tests: the tracing observer on the sim engine and on run_load."""

import pytest

from repro.core.framework import ServiceChain, SpeedyBox
from repro.nf import IPFilter, MazuNAT, Monitor
from repro.obs import MetricsRegistry, PacketTracer, TracingObserver
from repro.platform import BessPlatform, OpenNetVMPlatform, PlatformConfig
from repro.sim.engine import Engine, Get, Put, Timeout
from repro.sim.resources import Store
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.columnar import uniform_batch
from tests.integration.helpers import read_chrome


def make_packets(n=12):
    spec = FlowSpec.tcp("10.0.0.1", "20.0.0.1", 1000, 80, packets=n)
    return TrafficGenerator([spec]).packets()


class TestEngineHooks:
    def run_producer_consumer(self, observer, items=5, capacity=2):
        """A tiny pipeline whose producer blocks on the full store."""
        engine = Engine()
        engine.observer = observer
        store = Store(engine, capacity=capacity, name="ring0")

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
        return store

    def test_tracing_observer_streams_occupancy(self):
        tracer = PacketTracer()
        self.run_producer_consumer(TracingObserver(tracer, ""))
        assert "ring:ring0" in tracer.tracks()
        records = read_chrome(tracer)["traceEvents"]
        counters = [event for event in records if event["ph"] == "C"]
        # One occupancy sample per put and per get.
        assert len(counters) == 10
        instants = [event for event in records if event["ph"] == "i"]
        assert any(event["name"] == "blocked_put" for event in instants)

    def test_no_observer_is_the_default(self):
        engine = Engine()
        assert engine.observer is None

        def ticker():
            yield Timeout(1.0)

        # ...and the run completes without one.
        engine.add_process(ticker(), name="t")
        engine.run()

    def test_store_counts_what_the_observer_marks_blocked(self):
        """The store's own blocked counts are the observer's blocked
        instants, and need no observer to be kept."""
        tracer = PacketTracer()
        traced = self.run_producer_consumer(TracingObserver(tracer, ""))
        instants = [event["name"] for event in read_chrome(tracer)["traceEvents"] if event["ph"] == "i"]
        assert (traced.blocked_puts, traced.blocked_gets) == (
            instants.count("blocked_put"),
            instants.count("blocked_get"),
        )
        bare = self.run_producer_consumer(None)
        assert (bare.blocked_puts, bare.blocked_gets) == (traced.blocked_puts, traced.blocked_gets)
        assert (bare.blocked_puts, bare.blocked_gets) == (2, 0)  # the producer outruns

class TestRunLoadHooks:
    def test_bess_run_load_fires_hooks(self):
        metrics = MetricsRegistry()
        platform = BessPlatform(SpeedyBox([IPFilter("fw")]), metrics=metrics)
        packets = make_packets(12)
        platform.run_load(packets)
        snapshot = metrics.snapshot()
        # One enqueue+dequeue per packet through the single chain-core
        # ring, and nothing else: the replay's end puts nothing there.
        assert snapshot["ring_enqueue_total{ring=bess:chain-core}"] == 12
        assert snapshot["ring_dequeue_total{ring=bess:chain-core}"] == 12
        assert snapshot["ring_high_watermark{ring=bess:chain-core}"] >= 1
        assert snapshot["load_runs_total{platform=bess}"] == 1
        # The chain core waited on its ring at least once.
        assert snapshot["sim_store_blocked_total{kind=get}"] > 0

    def test_onvm_run_load_names_every_stage_ring(self):
        metrics = MetricsRegistry()
        chain = [IPFilter("fw0"), IPFilter("fw1")]
        platform = OpenNetVMPlatform(ServiceChain(chain), metrics=metrics)
        platform.run_load(make_packets(8))
        snapshot = metrics.snapshot()
        for ring in ("onvm:manager", "onvm:nf:fw0", "onvm:nf:fw1"):
            # the 8 packets, and no end-of-run item
            assert snapshot[f"ring_enqueue_total{{ring={ring}}}"] == 8

    def test_run_load_traces_ring_occupancy(self):
        tracer = PacketTracer()
        platform = BessPlatform(SpeedyBox([IPFilter("fw")]), tracer=tracer)
        platform.run_load(make_packets(6))
        tracks = tracer.tracks()
        assert any(track.startswith("ring:bess:") for track in tracks)
        assert any(track == "bess:chain-core" for track in tracks)
        # Per-packet stage spans made it in: at least one per packet.
        stage_spans = [s for s in tracer.spans if s.track == "bess:chain-core"]
        assert len(stage_spans) >= 6

    def test_run_load_without_observability_attaches_no_observer(self):
        platform = BessPlatform(SpeedyBox([IPFilter("fw")]))
        result = platform.run_load(make_packets(4))
        assert result.delivered == 4


#: What an observed run with 2-slot rings publishes: NAT + two Monitors
#: over six handshaking TCP flows of eight packets.  The values were read
#: off the engine when a counting observer still tallied the blocked puts
#: and gets, less the sink store and end-of-run pills the DES no longer
#: has; the stores count them now, and nothing may move.
PINNED_RING_METRICS = {
    "bess": {
        "ring_dequeue_total{ring=bess:chain-core}": 60.0,
        "ring_enqueue_total{ring=bess:chain-core}": 60.0,
        "ring_high_watermark{ring=bess:chain-core}": 2.0,
        "sim_store_blocked_total{kind=get}": 1.0,
        "sim_store_blocked_total{kind=put}": 57.0,
    },
    "onvm": {
        "ring_dequeue_total{ring=onvm:manager}": 60.0,
        "ring_dequeue_total{ring=onvm:nf:m0}": 12.0,
        "ring_dequeue_total{ring=onvm:nf:m1}": 12.0,
        "ring_dequeue_total{ring=onvm:nf:nat}": 12.0,
        "ring_dequeue_total{ring=onvm:sf-workers}": 48.0,
        "ring_enqueue_total{ring=onvm:manager}": 60.0,
        "ring_enqueue_total{ring=onvm:nf:m0}": 12.0,
        "ring_enqueue_total{ring=onvm:nf:m1}": 12.0,
        "ring_enqueue_total{ring=onvm:nf:nat}": 12.0,
        "ring_enqueue_total{ring=onvm:sf-workers}": 48.0,
        "ring_high_watermark{ring=onvm:manager}": 2.0,
        "ring_high_watermark{ring=onvm:nf:m0}": 1.0,
        "ring_high_watermark{ring=onvm:nf:m1}": 1.0,
        "ring_high_watermark{ring=onvm:nf:nat}": 2.0,
        "ring_high_watermark{ring=onvm:sf-workers}": 1.0,
        "sim_store_blocked_total{kind=get}": 67.0,
        "sim_store_blocked_total{kind=put}": 60.0,
    },
}


@pytest.mark.parametrize("platform_name", sorted(PINNED_RING_METRICS))
def test_observed_run_ring_metrics_are_pinned(platform_name):
    metrics = MetricsRegistry()
    runtime = SpeedyBox([MazuNAT("nat"), Monitor("m0"), Monitor("m1")], metrics=metrics)
    platform_class = {"bess": BessPlatform, "onvm": OpenNetVMPlatform}[platform_name]
    platform = platform_class(runtime, config=PlatformConfig(ring_capacity=2), metrics=metrics)
    batch = uniform_batch(
        6, 8, interleave="round_robin", block=4, protocol="tcp", handshake=True, fin=True
    )
    platform.run_load(list(batch.packet_view()))
    published = {
        key: value
        for key, value in metrics.snapshot().items()
        if key.startswith(("ring_", "sim_store_blocked_total"))
    }
    assert published == PINNED_RING_METRICS[platform_name]
