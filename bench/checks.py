"""Untimed correctness checks; every failing packet counts in ``failed``.

Policy drops (ACL deny, Snort) are outcomes, not failures: a packet
fails when the run loses it, when a repeat's simulated result differs
from repeat 0's, or when SpeedyBox's output for it diverges from the
original chain's.
"""

from __future__ import annotations

import hashlib
import struct
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.framework import ServiceChain, SpeedyBox
from repro.core.verification import verify_equivalence
from repro.scale.cluster import PLATFORM_CLASSES
from repro.stats import Distribution
from repro.traffic.generator import clone_packets

from bench.workloads import Workload

#: the equivalence oracle and the Fig. 9 reduction run over the
#: workload's first whole flows totalling at most this many packets
CHECK_PACKETS = 20_000


@dataclass
class Tally:
    """Operations attempted and failed, by check."""

    checks: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def add(self, what: str, attempted: int, failed: int) -> None:
        before = self.checks.get(what, (0, 0))
        self.checks[what] = (before[0] + attempted, before[1] + failed)

    @property
    def attempted(self) -> int:
        return sum(attempted for attempted, __ in self.checks.values())

    @property
    def failed(self) -> int:
        return sum(failed for __, failed in self.checks.values())


def sim_digest(result) -> str:
    """sha256 over everything simulated about a run: a host-side
    optimisation must leave it identical, bit for bit."""
    digest = hashlib.sha256()
    digest.update(
        struct.pack("<qqqd", result.offered, result.delivered, result.dropped, result.makespan_ns)
    )
    digest.update(array("d", result.latencies_ns).tobytes())
    return digest.hexdigest()


def check_repeats(tally: Tally, repeats: List) -> None:
    """Conservation per repeat, and every repeat's digest equals repeat 0's."""
    reference = repeats[0].digest
    for repeat in repeats:
        lost = repeat.packets - (repeat.delivered + repeat.dropped + repeat.recovered)
        tally.add("conservation", repeat.packets, abs(lost))
        tally.add(
            "repeat_digest", repeat.packets, 0 if repeat.digest == reference else repeat.packets
        )


def flow_times_us(runtime, platform_name: str, packets) -> List[float]:
    """Fig. 9's metric, as benchmarks/harness.per_flow_processing_time_us:
    per flow, the sum of its packets' unloaded processing latencies."""
    platform = PLATFORM_CLASSES[platform_name](runtime)
    totals: Dict[object, float] = {}
    for packet in clone_packets(packets):
        flow = packet.five_tuple()  # identity before the chain rewrites it
        outcome = platform.process(packet)
        totals[flow] = totals.get(flow, 0.0) + outcome.latency_ns / 1000.0
    return list(totals.values())


def check_equivalence(tally: Tally, workload: Workload) -> float:
    """Original chain vs SpeedyBox over the check prefix: one failure per
    divergent packet.  Returns the p50 flow-time reduction in percent."""
    packets = workload.check_packets(CHECK_PACKETS)
    report = verify_equivalence(workload.chain, packets)
    tally.add("equivalence", len(packets), len(report.divergences))
    original = Distribution(
        flow_times_us(ServiceChain(workload.chain()), workload.platform_name, packets)
    )
    speedybox = Distribution(
        flow_times_us(SpeedyBox(workload.chain()), workload.platform_name, packets)
    )
    return 100.0 * (1.0 - speedybox.p50 / original.p50)


def check_uninstrumented(tally: Tally, workload: Workload, digest: str) -> Optional[float]:
    """Observation must not change results: a telemetry workload's load
    through the same configuration without telemetry has to give
    ``digest``.  Returns that run's ``run_load`` seconds (``None`` when
    the workload has no telemetry on)."""
    system = workload.uninstrumented()
    if system is None:
        return None
    load = workload.synthesize()
    started = time.perf_counter()
    result = workload.offer(system, load)
    seconds = time.perf_counter() - started
    same = sim_digest(result) == digest
    tally.add("uninstrumented_digest", len(load), 0 if same else len(load))
    return seconds
