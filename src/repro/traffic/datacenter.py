"""A synthetic Benson-et-al. datacenter trace (Fig. 9 workload).

The paper's real-world-chain experiment replays "the popular datacenter
trace" of Benson, Akella and Maltz (IMC'10).  That trace is not
redistributable, so this module generates a synthetic trace reproducing
the published characteristics the experiment depends on:

- **flow sizes are heavy-tailed**: most flows are mice (< 10 KB, a
  handful of packets); a small fraction are elephants.  We sample packet
  counts from a log-normal body with a Pareto tail, clipped to a
  configurable maximum.
- **packet sizes are bimodal**: concentrated around small (ACK-ish,
  40–100 B payloads here rendered as short payloads) and near-MTU sizes.
- **five-tuples**: intra-DC address pools with many clients talking to a
  small set of service ports.

Payloads are synthesised against the Snort rule set in play (see
:mod:`repro.traffic.payloads`), matching the paper's methodology.
Everything is seeded and deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.net.flow import FiveTuple, PROTO_TCP
from repro.nf.snort.rules import SnortRule
from repro.traffic.generator import FlowSpec
from repro.traffic.payloads import PayloadSynthesizer


@dataclass
class DatacenterTraceConfig:
    """Shape parameters of the synthetic trace."""

    flows: int = 200
    seed: int = 2019

    # Flow-size model: log-normal body + Pareto tail.
    lognormal_mu: float = 1.2      # median flow ≈ e^1.2 ≈ 3.3 packets
    lognormal_sigma: float = 0.9
    elephant_fraction: float = 0.05
    pareto_alpha: float = 1.3
    pareto_scale: float = 20.0
    max_packets_per_flow: int = 500

    # Packet-size model (payload bytes): bimodal mice/MTU mix.
    small_payload: int = 26        # 64 B frames end to end
    large_payload: int = 1400
    large_packet_fraction: float = 0.35

    # Address pools.
    client_subnet: str = "10.1"    # 10.1.x.y clients
    server_subnet: str = "10.2"    # 10.2.x.y servers
    server_count: int = 16
    service_ports: Sequence[int] = (80, 443, 8080, 11211)

    # Snort-facing payload mix.
    malicious_fraction: float = 0.2

    # TCP lifecycle.
    with_handshake: bool = True
    with_fin: bool = True

    def __post_init__(self):
        if self.flows < 0:
            raise ValueError(f"flows must be non-negative, got {self.flows!r}")
        if self.server_count < 1:
            raise ValueError(f"server_count must be at least 1, got {self.server_count!r}")
        if not self.service_ports:
            raise ValueError("service_ports must name at least one port")
        if self.max_packets_per_flow < 1:
            raise ValueError(
                f"max_packets_per_flow must be at least 1, got {self.max_packets_per_flow!r}"
            )
        for name in ("elephant_fraction", "large_packet_fraction", "malicious_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value!r}")


class DatacenterTraceGenerator:
    """Builds :class:`FlowSpec` lists with datacenter characteristics."""

    def __init__(
        self,
        config: Optional[DatacenterTraceConfig] = None,
        rules: Sequence[SnortRule] = (),
    ):
        self.config = config or DatacenterTraceConfig()
        self._random = random.Random(self.config.seed)
        self._service_ports = list(self.config.service_ports)
        self._payloads = PayloadSynthesizer(rules, seed=self.config.seed + 1)
        self._has_rules = any(rule.contents for rule in rules)

    # -- distribution sampling -------------------------------------------------

    def sample_flow_packets(self) -> int:
        """Packets in one flow: log-normal body, Pareto tail for elephants."""
        cfg = self.config
        if self._random.random() < cfg.elephant_fraction:
            size = cfg.pareto_scale * (1.0 - self._random.random()) ** (-1.0 / cfg.pareto_alpha)
        else:
            size = math.exp(self._random.gauss(cfg.lognormal_mu, cfg.lognormal_sigma))
        return max(1, min(cfg.max_packets_per_flow, int(round(size))))

    def sample_payload_length(self) -> int:
        cfg = self.config
        if self._random.random() < cfg.large_packet_fraction:
            return cfg.large_payload
        return cfg.small_payload

    def _sample_five_tuple(self, index: int) -> FiveTuple:
        cfg = self.config
        client_host = self._random.randrange(1, 250)
        client_net = self._random.randrange(1, 250)
        server = self._random.randrange(cfg.server_count)
        src_ip = f"{cfg.client_subnet}.{client_net}.{client_host}"
        dst_ip = f"{cfg.server_subnet}.0.{server + 1}"
        src_port = 20000 + (index % 40000)
        dst_port = self._random.choice(self._service_ports)
        return FiveTuple.make(src_ip, dst_ip, src_port, dst_port, PROTO_TCP)

    # -- trace construction ------------------------------------------------------

    def generate_flows(self) -> List[FlowSpec]:
        """The full trace as flow specs (seeded, reproducible)."""
        cfg = self.config
        flows: List[FlowSpec] = []
        seen = set()
        for index in range(cfg.flows):
            five_tuple = self._sample_five_tuple(index)
            while five_tuple in seen:
                five_tuple = self._sample_five_tuple(index + len(seen) * 101)
            seen.add(five_tuple)

            packets = self.sample_flow_packets()
            malicious = (
                self._has_rules and self._random.random() < cfg.malicious_fraction
            )
            payloads = self._flow_payloads(packets, malicious)
            flows.append(
                FlowSpec(
                    five_tuple=five_tuple,
                    packets=packets,
                    payload=self._payload_policy(payloads),
                    handshake=cfg.with_handshake,
                    fin=cfg.with_fin,
                )
            )
        return flows

    def _flow_payloads(self, packets: int, malicious: bool) -> List[bytes]:
        lengths = [self.sample_payload_length() for __ in range(packets)]
        if malicious:
            rule = next(rule for rule in self._payloads.rules if rule.contents)
            return [self._payloads.matching(rule, length) for length in lengths]
        return [self._payloads.benign(length) for length in lengths]

    @staticmethod
    def _payload_policy(payloads: List[bytes]):
        def policy(index: int) -> bytes:
            return payloads[index % len(payloads)]

        return policy

    def timestamped_packets(
        self,
        mean_flow_gap_ns: float = 20_000.0,
        burst_size: int = 4,
        intra_burst_gap_ns: float = 1_000.0,
        mean_off_gap_ns: float = 60_000.0,
    ) -> List["Packet"]:
        """Expand the trace to packets with ON/OFF arrival timestamps.

        Benson et al. characterise datacenter traffic as ON/OFF at packet
        granularity: flows start at (exponential) random offsets, send
        bursts of back-to-back packets, then pause.  The returned packets
        carry ``timestamp_ns`` and are globally time-ordered, ready for
        ``Platform.run_load(..., use_timestamps=True)`` replay.
        """
        from repro.traffic.generator import packets_for_flow

        all_packets = []
        flow_start = 0.0
        for spec in self.generate_flows():
            flow_start += self._random.expovariate(1.0 / mean_flow_gap_ns)
            timestamp = flow_start
            for index, packet in enumerate(packets_for_flow(spec)):
                if index:
                    if index % burst_size == 0:
                        timestamp += self._random.expovariate(1.0 / mean_off_gap_ns)
                    else:
                        timestamp += intra_burst_gap_ns
                packet.timestamp_ns = timestamp
                all_packets.append(packet)
        all_packets.sort(key=lambda packet: packet.timestamp_ns)
        return all_packets

    def flow_size_histogram(self, flows: Sequence[FlowSpec]) -> dict:
        """Bucketised flow sizes (sanity checks / docs)."""
        buckets = {"1-2": 0, "3-9": 0, "10-99": 0, "100+": 0}
        for spec in flows:
            if spec.packets <= 2:
                buckets["1-2"] += 1
            elif spec.packets <= 9:
                buckets["3-9"] += 1
            elif spec.packets <= 99:
                buckets["10-99"] += 1
            else:
                buckets["100+"] += 1
        return buckets
