"""Workload generation.

- :mod:`repro.traffic.generator` — flow-aware packet generator (the
  substitution for the paper's DPDK pktgen): TCP handshake/FIN semantics,
  configurable payloads, deterministic interleavings.
- :mod:`repro.traffic.datacenter` — a synthetic model of the Benson et
  al. IMC'10 datacenter traces the paper replays for Fig. 9 (heavy-tailed
  flow sizes, mice/elephant mix), with payloads synthesised to exercise
  Snort rules exactly as the paper does ("since the payloads in the trace
  are null for anonymization, we synthesize the testing traffic with
  customized payloads according to the inspection rules in Snort").
- :mod:`repro.traffic.payloads` — the payload synthesiser.
- :mod:`repro.traffic.columnar` — struct-of-arrays :class:`PacketBatch`
  for the batch engine (five-tuple/size/timestamp columns, no per-packet
  objects), with :func:`uniform_batch` for vectorized million-flow
  workloads.
"""

from repro.traffic.columnar import LazyPacketView, PacketBatch, uniform_batch
from repro.traffic.datacenter import DatacenterTraceConfig, DatacenterTraceGenerator
from repro.traffic.generator import FlowSpec, TrafficGenerator, packets_for_flow
from repro.traffic.payloads import PayloadSynthesizer

__all__ = [
    "DatacenterTraceConfig",
    "DatacenterTraceGenerator",
    "FlowSpec",
    "LazyPacketView",
    "PacketBatch",
    "PayloadSynthesizer",
    "TrafficGenerator",
    "packets_for_flow",
    "uniform_batch",
]
