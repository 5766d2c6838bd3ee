"""The CPU cycle-cost model.

The paper's evaluation reports CPU cycles per packet, Mpps and µs latency
measured on a 2.00 GHz Xeon E5-2660 v4.  This module is the substitution
for that testbed: every primitive operation a platform, NF or SpeedyBox
component performs is charged to a :class:`CycleMeter` under an
:class:`Operation` tag, and a :class:`CostModel` maps tags to cycle
counts.

Calibration
-----------

Default constants are calibrated against the paper's anchor numbers
(DESIGN.md "Cost-model calibration"):

- one IPFilter hop on the original BESS chain ≈ 530 cycles (Table III);
- the SpeedyBox fast path for one consolidated header action ≈ 540–600
  cycles — slightly *more* than a single NF hop, so SpeedyBox loses at
  chain length 1 and wins ≈ (N−1)/N beyond (Fig. 4);
- per-hop ring transfer on OpenNetVM adds enqueue+dequeue+cache-miss
  cycles, which is why ONVM per-NF costs exceed BESS's and why header
  consolidation contributes relatively less there (Fig. 7).

Absolute Mpps values are model outputs and differ from the testbed's;
EXPERIMENTS.md compares shapes, ratios and crossovers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Optional


class Operation(enum.Enum):
    """Every primitive operation the simulation charges cycles for."""

    # NIC / platform transport
    NIC_RX = "nic_rx"
    NIC_TX = "nic_tx"
    NF_DISPATCH = "nf_dispatch"              # BESS module hop inside one process
    RING_ENQUEUE = "ring_enqueue"            # ONVM shared-memory ring ops
    RING_DEQUEUE = "ring_dequeue"
    CROSS_CORE_SYNC = "cross_core_sync"      # cache-line transfer between cores

    # Packet handling common to all NFs
    PARSE = "parse"                          # L2-L4 header parse
    EXACT_MATCH_LOOKUP = "exact_match_lookup"  # hash-table flow lookup
    ACL_RULE_SCAN = "acl_rule_scan"          # per ACL rule, linear scan
    FIELD_WRITE = "field_write"              # rewrite one header field
    MERGED_FIELD_WRITE = "merged_field_write"  # extra field in a consolidated modify
    CHECKSUM_UPDATE = "checksum_update"      # incremental checksum fixup
    ENCAP_OP = "encap_op"
    DECAP_OP = "decap_op"
    DROP_FREE = "drop_free"                  # descriptor release on drop

    # NF-internal work
    PAYLOAD_BYTE_SCAN = "payload_byte_scan"  # DPI, per byte
    PAYLOAD_BYTE_WRITE = "payload_byte_write"
    PATTERN_MATCH_SETUP = "pattern_match_setup"  # per-packet matcher init
    COUNTER_UPDATE = "counter_update"        # monitor per-flow counter
    HASH_COMPUTE = "hash_compute"            # consistent hashing etc.
    NAT_PORT_ALLOC = "nat_port_alloc"        # initial packets only
    CONNECTION_TRACK = "connection_track"    # per-packet conntrack touch

    # SpeedyBox machinery
    FID_HASH = "fid_hash"
    METADATA_ATTACH = "metadata_attach"
    METADATA_DETACH = "metadata_detach"
    MAT_BEGIN_RECORD = "mat_begin_record"
    MAT_RECORD_HA = "mat_record_ha"
    MAT_RECORD_SF = "mat_record_sf"
    EVENT_REGISTER = "event_register"
    EVENT_CHECK = "event_check"              # per active event per packet
    GLOBAL_MAT_LOOKUP = "global_mat_lookup"
    FAST_PATH_DISPATCH = "fast_path_dispatch"  # fixed fast-path executor cost
    CONSOLIDATE_ACTION = "consolidate_action"  # per source action, once per flow
    GLOBAL_RULE_INSTALL = "global_rule_install"
    SF_INVOKE = "sf_invoke"                  # per state-function call overhead
    WORKER_FORK = "worker_fork"              # per parallel wave (width > 1)
    WORKER_JOIN = "worker_join"
    FLOW_DELETE = "flow_delete"              # FIN/RST cleanup


# Enum's default __hash__ is a Python-level method call; meters hash an
# Operation on every charge, millions of times per run.  Members are
# singletons compared by identity, so the C-level id hash is equivalent
# (dicts keyed by Operation keep insertion order either way).
Operation.__hash__ = object.__hash__  # type: ignore[method-assign]


@dataclass(frozen=True)
class CostModel:
    """Cycles per operation, plus the clock that converts cycles to time."""

    clock_ghz: float = 2.0

    nic_rx: float = 130.0
    nic_tx: float = 130.0
    nf_dispatch: float = 270.0
    ring_enqueue: float = 70.0
    ring_dequeue: float = 70.0
    cross_core_sync: float = 300.0

    parse: float = 180.0
    exact_match_lookup: float = 80.0
    acl_rule_scan: float = 12.0
    field_write: float = 60.0
    merged_field_write: float = 35.0
    checksum_update: float = 90.0
    encap_op: float = 150.0
    decap_op: float = 110.0
    drop_free: float = 60.0

    payload_byte_scan: float = 0.75  # Aho-Corasick DPI, ~2.7 B/cycle w/ SIMD
    payload_byte_write: float = 1.2
    pattern_match_setup: float = 220.0
    counter_update: float = 260.0
    hash_compute: float = 50.0
    nat_port_alloc: float = 200.0
    connection_track: float = 45.0

    fid_hash: float = 45.0
    metadata_attach: float = 15.0
    metadata_detach: float = 10.0
    mat_begin_record: float = 30.0
    mat_record_ha: float = 40.0
    mat_record_sf: float = 50.0
    event_register: float = 60.0
    event_check: float = 25.0
    global_mat_lookup: float = 150.0
    fast_path_dispatch: float = 200.0
    consolidate_action: float = 90.0
    global_rule_install: float = 120.0
    sf_invoke: float = 25.0
    worker_fork: float = 40.0
    worker_join: float = 50.0
    flow_delete: float = 80.0

    @cached_property
    def op_cycles(self) -> Dict[Operation, float]:
        """Operation -> cycles table, built once per model instance.

        Meters converting themselves to cycles hit this dict instead of
        paying an enum-attribute ``getattr`` per operation per packet.
        (``cached_property`` writes straight into ``__dict__``, which is
        allowed on a frozen dataclass; ``with_overrides`` copies get a
        fresh cache.)
        """
        return {operation: getattr(self, operation.value) for operation in Operation}

    def ns_per_cycle(self) -> float:
        return 1.0 / self.clock_ghz

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles * self.ns_per_cycle()

    def with_overrides(self, **overrides: float) -> "CostModel":
        """A copy with some constants replaced (ablation benches)."""
        return replace(self, **overrides)

class CycleMeter:
    """Accumulates operation counts plus direct cycle charges.

    NFs and framework components charge operations while processing one
    packet (or one stage of one packet); the platform converts the meter
    to cycles with its :class:`CostModel`.
    """

    __slots__ = ("counts", "direct_cycles", "_memo_model", "_memo_cycles")

    def __init__(self, counts: Optional[Dict[Operation, float]] = None):
        #: a caller that hands ``counts`` gives up the dict to the meter
        self.counts: Dict[Operation, float] = {} if counts is None else counts
        self.direct_cycles = 0.0
        #: memo of the last cycles() conversion — hot meters (e.g. the
        #: shared fixed meter of a compiled flow) are converted with the
        #: same model thousands of times without changing in between
        self._memo_model: Optional[CostModel] = None
        self._memo_cycles = 0.0

    def charge(self, operation: Operation, times: float = 1.0) -> None:
        if times:
            self.counts[operation] = self.counts.get(operation, 0.0) + times
            self._memo_model = None

    def charge_cycles(self, cycles: float) -> None:
        self.direct_cycles += cycles
        self._memo_model = None

    def merge(self, other: "CycleMeter") -> None:
        for operation, times in other.counts.items():
            self.counts[operation] = self.counts.get(operation, 0.0) + times
        self.direct_cycles += other.direct_cycles
        self._memo_model = None

    def cycles(self, model: CostModel) -> float:
        if self._memo_model is model:
            return self._memo_cycles
        total = self.direct_cycles
        table = model.op_cycles
        for operation, times in self.counts.items():
            total += table[operation] * times
        self._memo_model = model
        self._memo_cycles = total
        return total

    def count(self, operation: Operation) -> float:
        return self.counts.get(operation, 0.0)

    def reset(self) -> None:
        self.counts.clear()
        self.direct_cycles = 0.0
        self._memo_model = None

    def copy(self) -> "CycleMeter":
        meter = CycleMeter()
        meter.counts = dict(self.counts)
        meter.direct_cycles = self.direct_cycles
        return meter

    def __repr__(self) -> str:
        ops = sum(self.counts.values())
        return f"<CycleMeter {len(self.counts)} op kinds, {ops:.0f} ops, +{self.direct_cycles:.0f}cyc>"


class NullMeter(CycleMeter):
    """A meter that records nothing (functional-only runs)."""

    def charge(self, operation: Operation, times: float = 1.0) -> None:
        return None

    def charge_cycles(self, cycles: float) -> None:
        return None


#: Shared do-nothing meter for purely functional processing.
NULL_METER = NullMeter()
