"""A non-finite arrival or delay is refused before it reaches a clock.

A NaN compares false against every bound, so a check written as "not
below zero" lets it through; an infinite timestamp gives an infinite
makespan and a NaN latency.  The offered timeline raises ``ValueError``
before any packet reaches the runtime, on the closed-form route and on
the discrete-event route alike, and the engine refuses a NaN or infinite
Timeout or schedule delay with ``SimulationError``.
"""

import math

import pytest

from repro.core.framework import SpeedyBox
from repro.nf import Monitor
from repro.obs import MetricsRegistry, PacketTracer
from repro.platform import BessPlatform
from repro.sim import Engine, SimulationError, Timeout
from repro.traffic import FlowSpec, TrafficGenerator

NAN, INF = float("nan"), float("inf")

#: (packet index, timestamp) written over an evenly spaced trace of six
BAD_TIMESTAMPS = {
    "nan-middle": (3, NAN),
    "nan-first": (0, NAN),
    "inf-last": (5, INF),
    "-inf-first": (0, -INF),
}

#: what is attached -> the replay a valid trace then takes
ROUTES = {"closed-form": ("nothing", "analytic"), "des": ("tracer", "des")}


def stamped(bad=None):
    spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000, 80, packets=6, payload=b"x" * 16)
    stream = TrafficGenerator([spec]).packets()
    for index, packet in enumerate(stream):
        packet.timestamp_ns = index * 100.0
    if bad is not None:
        index, value = bad
        stream[index].timestamp_ns = value
    return stream


def observed(attached):
    registry = MetricsRegistry(enabled=attached == "registry")
    tracer = PacketTracer(enabled=attached == "tracer")
    runtime = SpeedyBox([Monitor("mon")], metrics=registry)
    return runtime, BessPlatform(runtime, metrics=registry, tracer=tracer), registry, tracer


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_a_valid_trace_takes_the_route_under_test(route):
    attached, expected = ROUTES[route]
    __, platform, __, __ = observed(attached)
    taken = []
    finish_run = platform._finish_run

    def spy(run, timeline, delivery, name):
        taken.append(name)
        return finish_run(run, timeline, delivery, name)

    platform._finish_run = spy
    result = platform.run_load(stamped(), use_timestamps=True)
    assert taken == [expected]
    assert math.isfinite(result.makespan_ns)


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("case", sorted(BAD_TIMESTAMPS))
def test_a_non_finite_timestamp_raises_before_any_packet_is_processed(case, route):
    runtime, platform, registry, tracer = observed(ROUTES[route][0])
    before = registry.snapshot()
    with pytest.raises(ValueError, match="finite"):
        platform.run_load(stamped(BAD_TIMESTAMPS[case]), use_timestamps=True)
    assert runtime.stats()["packets"] == 0
    assert platform.packets == 0
    assert registry.snapshot() == before
    assert len(tracer) == 0


def test_a_gap_too_wide_for_a_float_raises():
    runtime, platform, __, __ = observed("nothing")
    stream = stamped()
    stream[0].timestamp_ns = -1.7e308
    stream[1].timestamp_ns = 1.7e308  # finite stamps, an infinite gap
    for packet in stream[2:]:
        packet.timestamp_ns = 1.7e308
    with pytest.raises(ValueError, match="finite"):
        platform.run_load(stream, use_timestamps=True)
    assert runtime.stats()["packets"] == 0


@pytest.mark.parametrize("delay", [NAN, INF])
def test_the_engine_refuses_a_timeout_it_cannot_wait(delay):
    with pytest.raises(SimulationError):
        Timeout(delay)


@pytest.mark.parametrize("delay", [NAN, INF])
def test_the_engine_refuses_a_schedule_it_cannot_wait(delay):
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(delay, lambda: None)
    assert engine.run() == 0.0  # nothing was queued
