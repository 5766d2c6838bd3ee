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
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.net.flow import FiveTuple, PROTO_TCP
from repro.net.packet import Packet
from repro.nf.snort.rules import SnortRule
from repro.traffic.generator import FlowSpec, packets_for_flow
from repro.traffic.payloads import PayloadRequest, PayloadSynthesizer


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
        if self.pareto_alpha <= 0:
            raise ValueError(f"pareto_alpha must be positive, got {self.pareto_alpha!r}")
        if self.pareto_scale <= 0:
            raise ValueError(f"pareto_scale must be positive, got {self.pareto_scale!r}")
        if self.lognormal_sigma < 0:
            raise ValueError(
                f"lognormal_sigma must be non-negative, got {self.lognormal_sigma!r}"
            )
        for name in ("small_payload", "large_payload"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")


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
        #: the rule every malicious flow's payloads match
        self._malicious_rule = next(
            (rule for rule in self._payloads.rules if rule.contents), None
        )

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
        """The full trace as flow specs (seeded, reproducible).

        Each flow's five-tuple, size, malicious flag and payload lengths
        are drawn flow after flow; the payloads then come from one bulk
        call, on the synthesizer's own stream.
        """
        cfg = self.config
        shapes = []
        requests: List[PayloadRequest] = []
        seen = set()
        for index in range(cfg.flows):
            five_tuple = self._sample_five_tuple(index)
            while five_tuple in seen:
                five_tuple = self._sample_five_tuple(index + len(seen) * 101)
            seen.add(five_tuple)

            packets = self.sample_flow_packets()
            malicious = (
                self._malicious_rule is not None
                and self._random.random() < cfg.malicious_fraction
            )
            rule = self._malicious_rule if malicious else None
            requests.extend((self.sample_payload_length(), rule) for __ in range(packets))
            shapes.append((five_tuple, packets))
        payloads = self._payloads.payloads(requests)
        flows: List[FlowSpec] = []
        start = 0
        for five_tuple, packets in shapes:
            flows.append(
                FlowSpec(
                    five_tuple=five_tuple,
                    packets=packets,
                    payload=self._payload_policy(payloads[start : start + packets]),
                    handshake=cfg.with_handshake,
                    fin=cfg.with_fin,
                )
            )
            start += packets
        return flows

    @staticmethod
    def _payload_policy(payloads: List[bytes]):
        def policy(index: int) -> bytes:
            return payloads[index % len(payloads)]

        return policy

    def timestamped_packets(self) -> List[Packet]:
        """Expand the trace to packets with ON/OFF arrival timestamps.

        Benson et al. characterise datacenter traffic as ON/OFF at packet
        granularity: flows start at (exponential, mean 20 µs) random
        offsets, send bursts of four packets 1 µs apart, then pause
        (exponential, mean 60 µs).  The returned packets
        carry ``timestamp_ns`` and are globally time-ordered, ready for
        ``Platform.run_load(..., use_timestamps=True)`` replay.
        """
        all_packets: List[Packet] = []
        expovariate = self._random.expovariate
        flow_start = 0.0
        for spec in self.generate_flows():
            flow_start += expovariate(1.0 / 20_000.0)
            timestamp = flow_start
            timestamps = [timestamp]
            for index in range(1, spec.total_packets):
                if index % 4 == 0:
                    timestamp += expovariate(1.0 / 60_000.0)
                else:
                    timestamp += 1_000.0
                timestamps.append(timestamp)
            all_packets.extend(packets_for_flow(spec, timestamps))
        all_packets.sort(key=lambda packet: packet.timestamp_ns)
        return all_packets
