"""Prometheus text exposition: conventions and parser round-trip."""

import math

from repro.obs import MetricsRegistry, parse_prometheus, render_prometheus, write_prometheus


def make_registry():
    registry = MetricsRegistry()
    registry.counter("packets_total", "packets seen").inc(41)
    registry.counter("lookups_total", "MAT lookups").labels(result="hit").inc(9)
    registry.counter("lookups_total").labels(result="miss").inc(2)
    registry.gauge("occupancy", "rules resident").set(7)
    histogram = registry.histogram("latency_us", "per-packet latency", buckets=(1, 5, 10))
    for value in (0.5, 0.7, 3.0, 8.0, 25.0):
        histogram.observe(value)
    return registry


class TestRendering:
    def test_help_and_type_headers(self):
        text = render_prometheus(make_registry())
        assert "# HELP packets_total packets seen" in text
        assert "# TYPE packets_total counter" in text
        assert "# TYPE occupancy gauge" in text
        assert "# TYPE latency_us histogram" in text

    def test_histogram_follows_prometheus_conventions(self):
        """Cumulative buckets, +Inf == _count, and a _sum line."""
        parsed = parse_prometheus(render_prometheus(make_registry()))
        buckets = [
            (dict(labels).get("le"), value)
            for labels, value in parsed.series("latency_us_bucket")
        ]
        bounds = [le for le, _ in buckets]
        assert bounds == ["1.0", "5.0", "10.0", "+Inf"]
        counts = [value for _, value in buckets]
        assert counts == [2, 3, 4, 5]  # cumulative, monotonic
        assert counts == sorted(counts)
        assert parsed.value("latency_us_count") == 5
        assert counts[-1] == parsed.value("latency_us_count")
        assert parsed.value("latency_us_sum") == 0.5 + 0.7 + 3.0 + 8.0 + 25.0

    def test_labelled_series_render_sorted_and_quoted(self):
        text = render_prometheus(make_registry())
        assert 'lookups_total{result="hit"} 9' in text
        assert 'lookups_total{result="miss"} 2' in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
        assert len(parse_prometheus("")) == 0


class TestRoundTrip:
    def test_every_sample_survives_the_parser(self):
        registry = make_registry()
        parsed = parse_prometheus(render_prometheus(registry))
        assert parsed.value("packets_total") == 41
        assert parsed.value("lookups_total", result="hit") == 9
        assert parsed.value("lookups_total", result="miss") == 2
        assert parsed.value("occupancy") == 7
        assert parsed.types["lookups_total"] == "counter"
        assert parsed.helps["packets_total"] == "packets seen"

    def test_label_value_escaping_round_trips(self):
        registry = MetricsRegistry()
        hostile = 'quote " backslash \\ newline \n done'
        registry.counter("odd_total", "odd labels").labels(what=hostile).inc(3)
        text = render_prometheus(registry)
        assert "\n\n" not in text.strip()  # the newline was escaped
        parsed = parse_prometheus(text)
        assert parsed.value("odd_total", what=hostile) == 3

    def test_float_values_round_trip_exactly(self):
        registry = MetricsRegistry()
        registry.gauge("ratio", "").set(0.1 + 0.2)  # 0.30000000000000004
        parsed = parse_prometheus(render_prometheus(registry))
        assert parsed.value("ratio") == 0.1 + 0.2

    def test_write_prometheus_counts_samples(self, tmp_path):
        registry = make_registry()
        path = tmp_path / "metrics.prom"
        count = write_prometheus(registry, path)
        text = path.read_text()
        samples = [
            line for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert count == len(samples)
        # A fresh parse of the file agrees with an in-memory render.
        assert parse_prometheus(text).samples == parse_prometheus(
            render_prometheus(registry)
        ).samples

    def test_snapshot_agreement(self):
        """Exposition values match the registry's own snapshot."""
        registry = make_registry()
        parsed = parse_prometheus(render_prometheus(registry))
        snapshot = registry.snapshot()
        assert parsed.value("packets_total") == snapshot["packets_total"]
        assert parsed.value("lookups_total", result="hit") == (
            snapshot["lookups_total{result=hit}"]
        )


def test_nan_free_output():
    registry = MetricsRegistry()
    registry.histogram("empty_hist", "", buckets=(1.0,))
    for _, _, value in parse_prometheus(render_prometheus(registry)).samples:
        assert not math.isnan(value)
