"""Token-bucket policer: per-flow rate limiting with oscillating events.

A policer is the hardest stateful NF for runtime consolidation: its
per-flow action *flip-flops* between FORWARD and DROP as the bucket
drains and refills — events are not rare, they are the steady state.
SpeedyBox still expresses it exactly, with two recurring Event Table
entries per flow:

- ``exhausted`` (tokens < 1)  → replace the action with DROP,
- ``replenished`` (tokens ≥ 1) → restore FORWARD.

To be packet-exact between the original path and the fast path, the NF
uses the same check-then-update ordering as the Fig. 3 DoS example: the
verdict for a packet is taken on the bucket state as of the *previous*
packet, then the state function refills the bucket (by the packet's
timestamp) and consumes a token if the packet was forwarded.

Buckets refill in virtual time (``packet.timestamp_ns``), so the policer
needs timestamped traffic (e.g. ``DatacenterTraceGenerator
.timestamped_packets()``); untimestamped packets all share t=0 and only
the initial burst passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.actions import Drop, Forward
from repro.core.local_mat import InstrumentationAPI
from repro.core.state_function import PayloadClass
from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.platform.costs import Operation

# Enum members hoisted off the per-packet path (a class read runs Enum's hook)
_COUNTER_UPDATE, _EXACT_MATCH_LOOKUP = Operation.COUNTER_UPDATE, Operation.EXACT_MATCH_LOOKUP
_DROP_FREE, _IGNORE = Operation.DROP_FREE, PayloadClass.IGNORE


@dataclass
class Bucket:
    tokens: float
    last_refill_ns: float


class TokenBucketPolicer(NetworkFunction):
    """Per-flow token bucket: ``rate_pps`` sustained, ``burst`` depth."""

    def __init__(self, name: str = "policer", rate_pps: float = 10_000.0, burst: float = 5.0):
        super().__init__(name)
        if rate_pps <= 0:
            raise ValueError(f"rate must be positive, got {rate_pps!r}")
        if burst < 1:
            raise ValueError(f"burst must be at least one packet, got {burst!r}")
        self.rate_pps = rate_pps
        self.burst = float(burst)
        self.buckets: Dict[FiveTuple, Bucket] = {}
        #: the verdict currently installed per flow ("forward" | "drop")
        self.mode: Dict[FiveTuple, str] = {}
        self.forwarded = 0
        self.policed = 0

    # -- bucket mechanics -----------------------------------------------------

    def _bucket(self, key: FiveTuple, now_ns: float) -> Bucket:
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = Bucket(tokens=self.burst, last_refill_ns=now_ns)
            self.buckets[key] = bucket
        return bucket

    def _refill(self, bucket: Bucket, now_ns: float) -> None:
        elapsed_s = max(0.0, now_ns - bucket.last_refill_ns) / 1e9
        bucket.tokens = min(self.burst, bucket.tokens + elapsed_s * self.rate_pps)
        bucket.last_refill_ns = max(bucket.last_refill_ns, now_ns)

    # -- the state function and event conditions -------------------------------

    def account(self, packet: Packet, key: FiveTuple) -> None:
        """State function (IGNORE payload): refill, then consume if the
        packet was forwarded (check-then-update ordering)."""
        self.charge(_COUNTER_UPDATE)
        bucket = self._bucket(key, packet.timestamp_ns)
        self._refill(bucket, packet.timestamp_ns)
        if not packet.dropped:
            bucket.tokens = max(0.0, bucket.tokens - 1.0)
            self.forwarded += 1
        else:
            self.policed += 1

    def exhausted(self, key: FiveTuple) -> bool:
        bucket = self.buckets.get(key)
        return bucket is not None and bucket.tokens < 1.0

    def replenished(self, key: FiveTuple) -> bool:
        bucket = self.buckets.get(key)
        return bucket is not None and bucket.tokens >= 1.0

    # Edge-triggered event conditions: fire only when the bucket state
    # disagrees with the currently installed verdict, otherwise a healthy
    # flow would re-consolidate on every packet.

    def needs_drop(self, key: FiveTuple) -> bool:
        return self.exhausted(key) and self.mode.get(key, "forward") != "drop"

    def needs_forward(self, key: FiveTuple) -> bool:
        return self.replenished(key) and self.mode.get(key, "forward") == "drop"

    def flip_to_drop(self, key: FiveTuple) -> Drop:
        """Event update function: install DROP for the flow."""
        self.mode[key] = "drop"
        return Drop()

    def flip_to_forward(self, key: FiveTuple) -> Forward:
        """Event update function: restore FORWARD for the flow."""
        self.mode[key] = "forward"
        return Forward()

    # -- packet processing -------------------------------------------------------

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        self.ingress(packet)
        key = packet.five_tuple()
        fid = api.nf_extract_fid(packet)
        self.charge(_EXACT_MATCH_LOOKUP)

        # Verdict on the bucket as of the previous packet (check first).
        if self.exhausted(key):
            self.mode[key] = "drop"
            self.charge(_DROP_FREE)
            packet.drop()
            api.add_header_action(fid, Drop())
        else:
            self.mode[key] = "forward"
            api.add_header_action(fid, Forward())

        api.add_state_function(
            fid, self.account, _IGNORE, args=(key,), name="account"
        )
        # Two recurring, edge-triggered events flip the flow's action
        # whenever the bucket state disagrees with the installed verdict.
        api.register_event(
            fid,
            self.needs_drop,
            args=(key,),
            update_function_handler=self.flip_to_drop,
            one_shot=False,
        )
        api.register_event(
            fid,
            self.needs_forward,
            args=(key,),
            update_function_handler=self.flip_to_forward,
            one_shot=False,
        )
        self.account(packet, key)

    def handle_flow_close(self, packet: Packet) -> None:
        self.buckets.pop(packet.five_tuple(), None)
        self.mode.pop(packet.five_tuple(), None)

    def reset(self) -> None:
        super().reset()
        self.buckets.clear()
        self.mode.clear()
        self.forwarded = 0
        self.policed = 0
