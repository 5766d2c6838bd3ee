"""Unit tests for the metrics registry (repro.obs.registry)."""

import json

import pytest

from repro.obs import MetricsRegistry, NULL_REGISTRY
from repro.obs.registry import Counter, Gauge, Histogram


class TestCounter:
    def test_unlabeled_inc(self):
        counter = Counter("requests_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labeled_series_are_independent(self):
        counter = Counter("path_total")
        counter.labels(path="fast").inc(3)
        counter.labels(path="slow").inc()
        assert counter.value(path="fast") == 3
        assert counter.value(path="slow") == 1
        assert counter.value(path="never") == 0

    def test_label_order_does_not_matter(self):
        counter = Counter("c")
        counter.labels(a="1", b="2").inc()
        counter.labels(b="2", a="1").inc()
        assert counter.value(a="1", b="2") == 2

    def test_counters_cannot_decrease(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)
        with pytest.raises(ValueError):
            counter.labels(x="y").inc(-1)

    def test_series_rendering(self):
        counter = Counter("hits_total")
        counter.labels(result="hit").inc(7)
        assert counter.series() == {"hits_total{result=hit}": 7.0}


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("occupancy")
        gauge.set(10)
        gauge.inc(5)
        gauge.inc(-3)
        assert gauge.value() == 12

    def test_labeled_gauge(self):
        gauge = Gauge("ring_depth")
        gauge.labels(ring="ring0").set(4)
        gauge.labels(ring="ring1").set(9)
        assert gauge.value(ring="ring0") == 4
        assert gauge.value(ring="ring1") == 9


class TestHistogram:
    def test_observe_counts_and_sum(self):
        histogram = Histogram("latency", buckets=(10, 100, 1000))
        for value in (5, 50, 500, 5000):
            histogram.observe(value)
        assert histogram.count() == 4
        assert histogram.total() == 5555

    def test_cumulative_bucket_semantics(self):
        histogram = Histogram("latency", buckets=(10, 100, 1000))
        for value in (5, 50, 500, 5000):
            histogram.observe(value)
        series = histogram.series()
        assert series["latency_bucket{le=10}"] == 1
        assert series["latency_bucket{le=100}"] == 2
        assert series["latency_bucket{le=1000}"] == 3
        assert series["latency_bucket{le=+Inf}"] == 4
        # The cumulative counts never exceed the total observation count.
        assert max(v for k, v in series.items() if "_bucket" in k) == 4

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(100, 10))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total")
        b = registry.counter("x_total")
        assert a is b

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_snapshot_merges_all_series(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.gauge("b").labels(ring="r0").set(3)
        snapshot = registry.snapshot()
        assert snapshot == {"a_total": 1.0, "b{ring=r0}": 3.0}

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        counter = registry.counter("a_total")
        counter.inc(5)
        registry.gauge("g").set(7)
        registry.reset()
        assert registry.snapshot() == {}
        counter.inc()  # instruments stay usable after reset
        assert registry.snapshot() == {"a_total": 1.0}

    def test_to_json_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("a_total").labels(path="fast").inc(2)
        assert json.loads(json.dumps(registry.snapshot())) == {"a_total{path=fast}": 2.0}

    def test_render_is_a_text_table(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(3)
        rendered = registry.render()
        assert "a_total" in rendered
        assert "metric" in rendered


class TestDisabledMode:
    def test_null_registry_is_disabled(self):
        assert NULL_REGISTRY.enabled is False

    def test_disabled_instruments_are_shared_noops(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("a_total")
        gauge = registry.gauge("b")
        histogram = registry.histogram("c")
        assert counter is gauge is histogram  # the single null singleton
        counter.inc()
        counter.labels(path="fast").inc(100)
        gauge.set(5)
        histogram.observe(123)
        assert registry.snapshot() == {}
        assert len(registry) == 0

    def test_disabled_registry_registers_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("x_total").inc()
        assert "x_total" not in registry
