"""Autoscaler signals derived from the metrics registry and load results.

The load-driven autoscaler (``repro.scale.autoscaler``) does not reach
into platform internals; it watches the same observability surfaces an
operator would:

- **ring occupancy** — the deepest high-water mark any inter-stage ring
  reached, as a fraction of ring capacity, read from the registry's
  ``ring_high_watermark`` gauge (published by every loaded run);
- **core utilisation** — requested service time over available
  core-time, computed from the cluster's per-replica busy totals;
- **p99 latency** — from the merged loaded-run latency population.

Keeping the derivation here (``repro.obs``) keeps the scaling layer's
inputs inspectable: the exact numbers the autoscaler saw are in the
``metrics.prom`` of a run record written with ``--obs-out DIR --obs full``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.obs.registry import MetricsRegistry


@dataclass(frozen=True)
class SignalSample:
    """One autoscaler observation window."""

    ring_occupancy: float     # max ring high-water / capacity, 0..1
    core_utilisation: float   # offered service time / available core-time
    p99_latency_ns: float
    throughput_mpps: float
    replicas: int

    def describe(self) -> str:
        return (
            f"rings {self.ring_occupancy:.0%}, cores {self.core_utilisation:.0%}, "
            f"p99 {self.p99_latency_ns / 1000.0:.1f}us, "
            f"{self.throughput_mpps:.2f} Mpps @ {self.replicas} replica(s)"
        )


class ClusterSignals:
    """Derive :class:`SignalSample` windows for the autoscaler."""

    def __init__(self, registry: MetricsRegistry, ring_capacity: int):
        if ring_capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {ring_capacity!r}")
        self.registry = registry
        self.ring_capacity = ring_capacity

    def ring_occupancy(self) -> float:
        """Max published ring high-water mark as a fraction of capacity."""
        gauge = self.registry.metric("ring_high_watermark")
        if gauge is None:
            return 0.0
        series = gauge.series()
        if not series:
            return 0.0
        return min(1.0, max(series.values()) / self.ring_capacity)

    def sample(
        self,
        makespan_ns: float,
        p99_latency_ns: float,
        throughput_mpps: float,
        busy_ns: Mapping[int, float],
        cores_per_replica: float,
        physical_cores: Optional[int] = None,
    ) -> SignalSample:
        """Fold one loaded-run window into a sample.

        ``busy_ns`` maps replica id to its total requested service time;
        the denominator is the shared pool when ``physical_cores`` is
        set, else each replica's own ``cores_per_replica``.
        """
        replicas = max(1, len(busy_ns))
        if physical_cores is not None:
            available = float(physical_cores)
        else:
            available = cores_per_replica * replicas
        utilisation = 0.0
        if makespan_ns > 0 and available > 0:
            utilisation = sum(busy_ns.values()) / (makespan_ns * available)
        return SignalSample(
            ring_occupancy=self.ring_occupancy(),
            core_utilisation=min(1.0, utilisation),
            p99_latency_ns=p99_latency_ns,
            throughput_mpps=throughput_mpps,
            replicas=replicas,
        )
