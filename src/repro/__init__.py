"""SpeedyBox reproduction: low-latency NFV service chains with cross-NF
runtime consolidation (Jiang et al., ICDCS 2019).

Quickstart::

    from repro import SpeedyBox, ServiceChain, BessPlatform
    from repro.nf import IPFilter, Monitor
    from repro.traffic import FlowSpec, TrafficGenerator

    chain = [IPFilter("fw"), Monitor("mon")]
    platform = BessPlatform(SpeedyBox(chain))
    for packet in TrafficGenerator([FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1234, 80, packets=10)]):
        platform.process(packet)
    print(platform.stats.summary())

Package layout: ``repro.core`` (Local/Global MAT, Event Table,
classifier - the paper's contribution), ``repro.nf`` (Snort, Maglev,
IPFilter, Monitor, MazuNAT, ...), ``repro.platform`` (BESS and OpenNetVM
models + cycle-cost model), ``repro.sim`` (discrete-event engine),
``repro.net`` (packets), ``repro.traffic`` (workloads), ``repro.stats``
(measurement), ``repro.obs`` (metrics registry + packet-path tracing —
see docs/observability.md).
"""

from repro.core import ServiceChain, SpeedyBox
from repro.obs import MetricsRegistry, PacketTracer
from repro.platform import BessPlatform, CostModel, OpenNetVMPlatform

__version__ = "1.7.0"

__all__ = [
    "BessPlatform",
    "CostModel",
    "MetricsRegistry",
    "OpenNetVMPlatform",
    "PacketTracer",
    "ServiceChain",
    "SpeedyBox",
    "__version__",
]
