"""The metrics registry: Counters, Gauges and Histograms with labels.

Every SpeedyBox component (classifier, Global MAT, Event Table, the
framework, both platform models and the discrete-event engine) publishes
its signals into a :class:`MetricsRegistry` handed to it at construction
time.  The registry follows the Prometheus naming conventions —
``*_total`` counters, bare gauges, ``_bucket``/``_sum``/``_count``
histogram series — so the snapshot keys read like a scrape.

Disabled by default
-------------------

The hot path must stay hot: when no registry is passed, components fall
back to :data:`NULL_REGISTRY`, whose instruments are shared no-op
singletons.  ``counter.inc()`` on a null instrument is a single empty
method call — no dict lookup, no label hashing, no allocation — so the
per-packet cost of the instrumentation layer rounds to zero when
observability is off, and the cycle *model* (``CycleMeter``) is never
touched either way: enabling metrics cannot change a simulated cycle
count.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

LabelSet = Tuple[Tuple[str, str], ...]

#: Default histogram buckets (generic latency-ish spread, powers of ~4).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
)


def _label_key(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelSet) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind when disabled."""

    __slots__ = ()

    def labels(self, **labels: object) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def value(self) -> float:
        return 0.0


NULL_INSTRUMENT = _NullInstrument()


class Counter:
    """A monotonically increasing count, optionally split by labels."""

    __slots__ = ("name", "help", "_values")

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: Dict[LabelSet, float] = {}

    def labels(self, **labels: object) -> "_BoundCounter":
        return _BoundCounter(self, _label_key({k: str(v) for k, v in labels.items()}))

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc by {amount!r})")
        self._inc((), amount)

    def _inc(self, key: LabelSet, amount: float) -> None:
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key({k: str(v) for k, v in labels.items()}), 0.0)

    def series(self) -> Dict[str, float]:
        return {_render_key(self.name, key): value for key, value in self._values.items()}

    def samples(self) -> List[Tuple[LabelSet, float]]:
        """(labels, value) pairs sorted by label set (exporter feed)."""
        return sorted(self._values.items())

    def reset(self) -> None:
        self._values.clear()


class _BoundCounter:
    __slots__ = ("_counter", "_key")

    def __init__(self, counter: Counter, key: LabelSet):
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self._counter.name} cannot decrease (inc by {amount!r})"
            )
        self._counter._inc(self._key, amount)

    def value(self) -> float:
        return self._counter._values.get(self._key, 0.0)


class Gauge:
    """A value that can go up and down (occupancy, high-water marks)."""

    __slots__ = ("name", "help", "_values")

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: Dict[LabelSet, float] = {}

    def labels(self, **labels: object) -> "_BoundGauge":
        return _BoundGauge(self, _label_key({k: str(v) for k, v in labels.items()}))

    def set(self, value: float) -> None:
        self._values[()] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._values[()] = self._values.get((), 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key({k: str(v) for k, v in labels.items()}), 0.0)

    def series(self) -> Dict[str, float]:
        return {_render_key(self.name, key): value for key, value in self._values.items()}

    def samples(self) -> List[Tuple[LabelSet, float]]:
        """(labels, value) pairs sorted by label set (exporter feed)."""
        return sorted(self._values.items())

    def reset(self) -> None:
        self._values.clear()


class _BoundGauge:
    __slots__ = ("_gauge", "_key")

    def __init__(self, gauge: Gauge, key: LabelSet):
        self._gauge = gauge
        self._key = key

    def set(self, value: float) -> None:
        self._gauge._values[self._key] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._gauge._values[self._key] = self._gauge._values.get(self._key, 0.0) + amount

    def value(self) -> float:
        return self._gauge._values.get(self._key, 0.0)


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "sum")

    def __init__(self, bucket_count: int):
        self.bucket_counts = [0] * bucket_count
        self.count = 0
        self.sum = 0.0


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``observe(v)`` increments every bucket whose upper bound is >= v; an
    implicit ``+Inf`` bucket equals ``count``.
    """

    __slots__ = ("name", "help", "buckets", "_series")

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram buckets must be sorted and non-empty: {buckets!r}")
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self._series: Dict[LabelSet, _HistogramSeries] = {}

    def labels(self, **labels: object) -> "_BoundHistogram":
        return _BoundHistogram(self, _label_key({k: str(v) for k, v in labels.items()}))

    def observe(self, value: float) -> None:
        self._observe((), value)

    def _observe(self, key: LabelSet, value: float) -> None:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        series.count += 1
        series.sum += value
        # Per-bucket counts; series() renders the cumulative (le=) view.
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                series.bucket_counts[index] += 1
                break

    def count(self, **labels: object) -> int:
        series = self._series.get(_label_key({k: str(v) for k, v in labels.items()}))
        return series.count if series else 0

    def total(self, **labels: object) -> float:
        series = self._series.get(_label_key({k: str(v) for k, v in labels.items()}))
        return series.sum if series else 0.0

    def series(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for key, series in self._series.items():
            cumulative = 0
            for bound, bucket in zip(self.buckets, series.bucket_counts):
                cumulative += bucket
                bucket_key = key + (("le", f"{bound:g}"),)
                out[_render_key(f"{self.name}_bucket", bucket_key)] = float(cumulative)
            out[_render_key(f"{self.name}_bucket", key + (("le", "+Inf"),))] = float(series.count)
            out[_render_key(f"{self.name}_count", key)] = float(series.count)
            out[_render_key(f"{self.name}_sum", key)] = series.sum
        return out

    def samples(self) -> List[Tuple[LabelSet, Dict[str, object]]]:
        """Structured per-label-set view for the Prometheus exporter.

        Each entry is ``(labels, {"buckets": [(bound, cumulative), ...],
        "count": n, "sum": s})`` with cumulative bucket counts (the
        explicit ``+Inf`` bucket is the exporter's job — it always equals
        ``count``).
        """
        out: List[Tuple[LabelSet, Dict[str, object]]] = []
        for key in sorted(self._series):
            series = self._series[key]
            cumulative = 0
            buckets: List[Tuple[float, int]] = []
            for bound, bucket in zip(self.buckets, series.bucket_counts):
                cumulative += bucket
                buckets.append((bound, cumulative))
            out.append((key, {"buckets": buckets, "count": series.count, "sum": series.sum}))
        return out

    def reset(self) -> None:
        self._series.clear()


class _BoundHistogram:
    __slots__ = ("_histogram", "_key")

    def __init__(self, histogram: Histogram, key: LabelSet):
        self._histogram = histogram
        self._key = key

    def observe(self, value: float) -> None:
        self._histogram._observe(self._key, value)


class MetricsRegistry:
    """Name → instrument, with get-or-create semantics.

    ``enabled=False`` turns the registry into a null object: every
    ``counter()``/``gauge()``/``histogram()`` call returns the shared
    no-op instrument and ``snapshot()`` is empty.  Components therefore
    never branch on "is observability on" — they always publish, and the
    registry decides whether publishing means anything.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: "Dict[str, object]" = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _get_or_create(self, name: str, factory, kind: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if getattr(existing, "kind", None) != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}, "  # type: ignore[attr-defined]
                    f"requested {kind}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        return self._get_or_create(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        return self._get_or_create(name, lambda: Gauge(name, help), "gauge")

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        return self._get_or_create(name, lambda: Histogram(name, help, buckets), "histogram")

    def metric(self, name: str):
        """The registered instrument, or None."""
        return self._metrics.get(name)

    def instruments(self) -> List[object]:
        """Every registered instrument, sorted by metric name."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, float]:
        """Every series as a flat ``name{label=value,...} -> value`` dict."""
        out: Dict[str, float] = {}
        for name in sorted(self._metrics):
            out.update(self._metrics[name].series())  # type: ignore[attr-defined]
        return out

    def render(self, title: str = "metrics") -> str:
        """The snapshot as an aligned text table."""
        from repro.stats.tables import format_table

        rows = [[key, value] for key, value in sorted(self.snapshot().items())]
        return format_table(["metric", "value"], rows, title=title)

    def reset(self) -> None:
        for metric in self._metrics.values():
            metric.reset()  # type: ignore[attr-defined]


#: The shared disabled registry — the default everywhere.
NULL_REGISTRY = MetricsRegistry(enabled=False)
