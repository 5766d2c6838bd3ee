"""Shared harness for the equivalence test suites (§VII-C methodology).

"The methodology is to inject various packets into the system to cover
different conditional branches in the code.  If the system generates
identical packet outputs and state, we are confident that SpeedyBox
guarantees equivalence."

:func:`run_lockstep` drives the original chain and a SpeedyBox-wrapped
copy of the same chain over byte-identical packet streams, optionally
applying mid-stream interventions (e.g. failing a Maglev backend before
packet 6) to *both* runs at the same packet index, and asserts the packet
outputs are identical.  NF-state comparisons are the caller's to add.

The references the fast engine is checked against live here or are
reached from here.  :class:`InterpretedSpeedyBox` carries the
step-by-step fast-path interpreter (and :func:`apply_consolidated` the
step-by-step action walk), independent of the rule program both
production routes run; :func:`lockstep` drives it against a compiling
runtime packet by packet.  :func:`des_run_load` *selects* the
discrete-event replay by running ``src/`` code, not by copying it, and
:func:`reference_result` reads any replay's per-packet timeline the way
RFC 2544 does, in plain Python, without ``src/``'s result builder.

Code only the tests use lives here too, beside them (the source gate's
method-level check keeps it out of ``src/``): the reference semantics
:func:`apply_sequentially` and :func:`xor_merge_bytes`, the columnar
twin of the generator :func:`batch_from_specs`, the pcap reader
:func:`read_pcap`, the RFC 1071 :func:`internet_checksum`, the
reference state-function calls :func:`invoke`, :func:`execute_batch`
and :func:`execute_schedule`, and small readings of NF and schedule
internals.

The trace exporters' reference encoders live here as well:
:func:`to_chrome` builds a tracer's Chrome document one dict per event,
and :func:`chrome_reference` / :func:`spans_jsonl_reference` encode it
and a flow span recorder's records with ``json.dumps`` — the bytes
``PacketTracer.write_chrome`` and ``FlowSpanRecorder.write_jsonl``
render from pre-encoded fragments must equal theirs.

Hostile addresses come from here too: :func:`colliding_flows` (a
committed fixture of five-tuples on one FID), their
:func:`friendly_twins`, :func:`batch_over` to offer either as a
``PacketBatch``, :func:`three_bit_homes` to make nearly every flow
collide, and :func:`assert_classifier_invariants` for what must hold of
the flow table whatever happened to it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
import random
import struct
from pathlib import Path
from typing import (
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)
from unittest import mock

import repro.core.batchlane as batchlane_module
import repro.core.classifier as classifier_module
from repro.core.actions import HeaderAction
from repro.core.classifier import fid_of
from repro.core.consolidation import ConsolidatedAction
from repro.core.framework import ProcessReport, ServiceChain, SpeedyBox
from repro.net.addresses import MACAddress
from repro.net.flow import PROTO_TCP, PROTO_UDP, FiveTuple
from repro.net.headers import (
    TCP_ACK,
    TCP_FIN,
    TCP_SYN,
    EthernetHeader,
    IPv4Header,
    TCPHeader,
    UDPHeader,
)
from repro.net.packet import Packet
from repro.net.pcap import LINKTYPE_ETHERNET, MAGIC_NS, MAGIC_US
from repro.net.trace import load_trace, write_trace
from repro.platform.base import LoadResult, Platform, arrival_gaps
from repro.platform.costs import NULL_METER, CostModel, CycleMeter, Operation
from repro.sim import Engine
from repro.traffic.columnar import (
    _BASE_SEQ,
    KIND_DATA,
    KIND_FIN,
    KIND_SYN,
    PacketBatch,
    uniform_batch,
)
from repro.traffic.generator import FlowSpec, clone_packets
from repro.vector import np

Intervention = Callable[[ServiceChain, SpeedyBox], None]

#: the ISSUE 23 pair: two UDP five-tuples whose home FID is 23
FID23_PAIR = (
    FiveTuple.make("10.0.0.1", "99.0.0.1", 7841, 80, protocol=PROTO_UDP),
    FiveTuple.make("10.0.0.1", "99.0.0.1", 18664, 82, protocol=PROTO_UDP),
)


@functools.lru_cache(maxsize=None)
def _collision_fixture() -> dict:
    path = Path(__file__).resolve().parents[1] / "fixtures" / "fid_collisions.json"
    return json.loads(path.read_text())


def colliding_flows(k: int, protocol: str = "udp") -> List[FiveTuple]:
    """``k`` five-tuples that hash to one FID, from the committed fixture
    (``tests/fixtures/make_fid_collisions.py``; 256 UDP, 16 TCP).  The
    equality is re-checked here, so a change of hash fails loudly."""
    flows = [FiveTuple(*fields) for fields in _collision_fixture()[protocol][:k]]
    assert len(flows) == k, f"the fixture holds fewer than {k} {protocol} flows"
    assert len({fid_of(flow) for flow in flows}) == 1, (
        "fid_of changed: regenerate tests/fixtures/fid_collisions.json"
    )
    return flows


def _flow_order(specs: Sequence[FlowSpec], interleave: str, seed: int) -> List[int]:
    """Per-packet flow index sequence, mirroring ``TrafficGenerator``."""
    counts = [spec.total_packets for spec in specs]
    order: List[int] = []
    if interleave == "sequential":
        for flow, count in enumerate(counts):
            order.extend([flow] * count)
    elif interleave == "round_robin":
        remaining = list(counts)
        left = sum(remaining)
        while left:
            for flow in range(len(specs)):
                if remaining[flow]:
                    order.append(flow)
                    remaining[flow] -= 1
                    left -= 1
    elif interleave == "shuffled":
        rng = random.Random(seed)
        remaining = list(counts)
        live = [i for i, count in enumerate(remaining) if count]
        while live:
            flow = rng.choice(live)
            order.append(flow)
            remaining[flow] -= 1
            if not remaining[flow]:
                live.remove(flow)
    else:
        raise ValueError(f"unknown interleave mode {interleave!r}")
    return order


def reference_packet(
    five_tuple: FiveTuple,
    payload: bytes = b"",
    tcp_flags: int = TCP_ACK,
    seq: int = 0,
    timestamp_ns: float = 0.0,
) -> Packet:
    """``Packet.from_five_tuple`` as it was before header stamping: every
    header built and validated from the five-tuple, fresh MAC addresses,
    then ``finalize()`` for the total length and checksum.  The oracle
    ``HeaderStamp`` is checked against."""
    ip = IPv4Header(five_tuple.src_ip, five_tuple.dst_ip, protocol=five_tuple.protocol)
    if five_tuple.protocol == PROTO_TCP:
        l4: Union[TCPHeader, UDPHeader] = TCPHeader(
            five_tuple.src_port, five_tuple.dst_port, seq=seq, flags=tcp_flags
        )
    elif five_tuple.protocol == PROTO_UDP:
        l4 = UDPHeader(five_tuple.src_port, five_tuple.dst_port, length=8 + len(payload))
    else:
        raise ValueError(f"unsupported protocol for packet synthesis: {five_tuple.protocol}")
    eth = EthernetHeader(MACAddress("02:00:00:00:00:02"), MACAddress("02:00:00:00:00:01"))
    packet = Packet(eth=eth, ip=ip, l4=l4, payload=payload, timestamp_ns=timestamp_ns)
    packet.finalize()
    return packet


def reference_packets_for_flow(spec: FlowSpec) -> List[Packet]:
    """``packets_for_flow`` as it was before header stamping: one
    :func:`reference_packet` per packet."""
    if spec.packets < 0:
        raise ValueError(f"negative packet count: {spec.packets}")
    is_tcp = spec.five_tuple.protocol == PROTO_TCP
    packets: List[Packet] = []
    seq = _BASE_SEQ
    if spec.handshake:
        if not is_tcp:
            raise ValueError("handshake requested for a non-TCP flow")
        packets.append(reference_packet(spec.five_tuple, tcp_flags=TCP_SYN, seq=seq))
        seq += 1
    for index in range(spec.packets):
        payload = spec.payload_for(index)
        packets.append(
            reference_packet(spec.five_tuple, payload=payload, tcp_flags=TCP_ACK, seq=seq)
        )
        seq += max(len(payload), 1)
    if spec.fin:
        if not is_tcp:
            raise ValueError("fin requested for a non-TCP flow")
        packets.append(reference_packet(spec.five_tuple, tcp_flags=TCP_FIN | TCP_ACK, seq=seq))
    return packets


def reference_trace(generator) -> List[Packet]:
    """``DatacenterTraceGenerator.timestamped_packets`` as it was before
    header stamping: each flow's reference packets, each timestamp set
    after the packet is built, in the same draw order."""
    packets: List[Packet] = []
    flow_start = 0.0
    for spec in generator.generate_flows():
        flow_start += generator._random.expovariate(1.0 / 20_000.0)
        timestamp = flow_start
        for index, packet in enumerate(reference_packets_for_flow(spec)):
            if index:
                if index % 4 == 0:
                    timestamp += generator._random.expovariate(1.0 / 60_000.0)
                else:
                    timestamp += 1_000.0
            packet.timestamp_ns = timestamp
            packets.append(packet)
    packets.sort(key=lambda packet: packet.timestamp_ns)
    return packets


def assert_same_packet(packet: Packet, reference: Packet) -> None:
    """Equal as built (headers packed without ``finalize``), on the wire
    (``serialize``) and in every descriptor field."""
    def as_built(p: Packet) -> bytes:
        return p.eth.pack() + p.ip.pack() + p.l4.pack() + p.payload

    assert type(packet.l4) is type(reference.l4)
    assert as_built(packet) == as_built(reference)
    assert packet.serialize() == reference.serialize()
    assert packet.timestamp_ns == reference.timestamp_ns
    assert packet.metadata == reference.metadata
    assert packet.encaps == reference.encaps
    assert packet.dropped == reference.dropped


def batch_from_specs(
    specs: Sequence[FlowSpec],
    interleave: str = "sequential",
    seed: int = 1,
) -> PacketBatch:
    """Columnar expansion of flow specs, order-identical to
    ``TrafficGenerator``: the columnar twin the batch-lane equivalence
    tests build their input with."""
    for spec in specs:
        if spec.packets < 0:
            raise ValueError(f"negative packet count: {spec.packets}")
        is_tcp = spec.five_tuple.protocol == PROTO_TCP
        if spec.handshake and not is_tcp:
            raise ValueError("handshake requested for a non-TCP flow")
        if spec.fin and not is_tcp:
            raise ValueError("fin requested for a non-TCP flow")

    order = _flow_order(specs, interleave, seed)
    cursor = [0] * len(specs)
    kinds: List[int] = []
    ordinals: List[int] = []
    seqs: List[int] = []
    # Per-flow running seq, matching packets_for_flow: SYN consumes 1,
    # each data packet consumes max(len(payload), 1).
    next_seq = [_BASE_SEQ] * len(specs)
    for flow in order:
        spec = specs[flow]
        ordinal = cursor[flow]
        cursor[flow] = ordinal + 1
        handshake = 1 if spec.handshake else 0
        if spec.handshake and ordinal == 0:
            kinds.append(KIND_SYN)
            seqs.append(next_seq[flow])
            next_seq[flow] += 1
        elif spec.fin and ordinal == spec.total_packets - 1:
            kinds.append(KIND_FIN)
            seqs.append(next_seq[flow])
        else:
            payload = spec.payload_for(ordinal - handshake)
            kinds.append(KIND_DATA)
            seqs.append(next_seq[flow])
            next_seq[flow] += max(len(payload), 1)
        ordinals.append(ordinal)

    i64, u8 = np.int64, np.uint8
    batch = PacketBatch(
        np.fromiter((spec.five_tuple.src_ip for spec in specs), i64),
        np.fromiter((spec.five_tuple.dst_ip for spec in specs), i64),
        np.fromiter((spec.five_tuple.src_port for spec in specs), i64),
        np.fromiter((spec.five_tuple.dst_port for spec in specs), i64),
        np.fromiter((spec.five_tuple.protocol for spec in specs), u8),
        np.fromiter((1 if spec.handshake else 0 for spec in specs), u8),
        np.fromiter(order, i64),
        np.fromiter(kinds, u8),
        np.fromiter(ordinals, np.int32),
        np.fromiter(seqs, np.uint32),
    )
    batch._payloads = [spec.payload for spec in specs]
    return batch


def batch_over(flows: Sequence[FiveTuple], packets_per_flow: int, **uniform_kwargs):
    """``uniform_batch``'s shape (no payload policy, so bulk-admissible)
    over the given five-tuples instead of its consecutive addresses."""
    batch = uniform_batch(len(flows), packets_per_flow, **uniform_kwargs)
    batch.flow_src_ip[:] = [flow.src_ip for flow in flows]
    batch.flow_src_port[:] = [flow.src_port for flow in flows]
    assert [batch.five_tuple_of(slot) for slot in range(len(flows))] == list(flows)
    return batch


@contextlib.contextmanager
def three_bit_homes():
    """Fold every home FID to three bits — the classifier's ``fid_of`` and
    the lane's ``fid_column`` alike — so with more than a handful of
    flows nearly every one is displaced.  The FID space stays 2**20."""
    scalar, column = classifier_module.fid_of, batchlane_module.fid_column
    with mock.patch.object(
        classifier_module, "fid_of", lambda five_tuple: scalar(five_tuple) & 7
    ), mock.patch.object(
        batchlane_module, "fid_column", lambda *columns: column(*columns) & 7
    ):
        yield


def displaced_index(classifier) -> dict:
    """What ``classifier._displaced`` must hold: the entries that probed."""
    return {
        entry.five_tuple: fid for fid, entry in classifier._flows.items() if entry.probes
    }


def assert_classifier_invariants(runtime: SpeedyBox) -> None:
    """Every live flow owns its FID, and the displaced index is exactly
    the flows that probed: what holds after any packet, eviction,
    teardown, import or export."""
    classifier = runtime.classifier
    flows = classifier._flows
    assert all(entry.fid == fid for fid, entry in flows.items())
    assert len({entry.five_tuple for entry in flows.values()}) == len(flows)
    assert classifier._displaced == displaced_index(classifier)
    for fid, entry in flows.items():
        assert classifier.fid_for(entry.five_tuple) == fid
        home = classifier_module.fid_of(entry.five_tuple)
        assert fid == (home + entry.probes) & (classifier_module.FID_SPACE - 1)
    # nothing keyed by FID outlives the classifier's entry for it
    tables = [runtime.global_mat.flows(), tuple(runtime._compiled_fids)]
    tables.append(tuple(runtime.event_table._by_fid))
    tables += [mat.flows() for mat in runtime.local_mats.values()]
    assert all(fid in flows for table in tables for fid in table)
    assert all(flows[fid].five_tuple == key for fid, key in runtime._compiled_fids.items())


def recorded_handlers(record) -> List[tuple]:
    """``(nf name, method name, handler)`` for every handler in a record:
    Local MAT batches, the Global MAT schedule, event conditions, update
    functions and update state functions."""
    functions = [fn for rule in record.local_rules.values() for fn in rule.sf_batch]
    if record.global_rule is not None:
        functions += [fn for batch in schedule_batches(record.global_rule.schedule) for fn in batch]
    handlers = []
    for event in record.events:
        functions += event.update_state_functions or []
        handlers.append((event.nf_name, event.condition_method, event.condition))
        if event.update_method is not None:
            handlers.append((event.nf_name, event.update_method, event.update_function))
    return [(fn.nf_name, fn.method, fn.handler) for fn in functions] + handlers


def assert_handlers_resolved_on(runtime: SpeedyBox, record) -> None:
    """Every handler in ``record`` is the named method of ``runtime``'s
    own NF — an import installs nothing bound elsewhere."""
    for nf_name, method, handler in recorded_handlers(record):
        owner = runtime.nf_by_name[nf_name]
        assert handler.__self__ is owner, (nf_name, method)
        assert handler == getattr(owner, method), (nf_name, method)


def friendly_twins(flows: Sequence[FiveTuple]) -> List[FiveTuple]:
    """Flows of the same shape on distinct FIDs, none of them the
    fixture's: flow ``i`` moves to source port ``20000 + i``."""
    twins = [
        FiveTuple(flow.src_ip, flow.dst_ip, 20000 + i, flow.dst_port, flow.protocol)
        for i, flow in enumerate(flows)
    ]
    fids = {fid_of(twin) for twin in twins}
    assert len(fids) == len(twins) and fid_of(flows[0]) not in fids
    return twins


def apply_consolidated(action: ConsolidatedAction, packet: Packet) -> None:
    """A consolidated action applied step by step, in its stated order:
    leading decaps, routing-field modifies, net encaps, finalisation-field
    modifies, the checksum refresh.  The reference ``compiled()`` is
    checked against."""
    if action.drop:
        packet.drop()
        return
    for decap in action.leading_decaps:
        decap.apply(packet)
    for field, op in action.routing_ops().items():
        field.write(packet, op.apply(field.read(packet)))
    for encap in action.net_encaps:
        encap.apply(packet)
    for field, op in action.finalisation_ops().items():
        field.write(packet, op.apply(field.read(packet)))
    packet.finalize()


def apply_sequentially(packet: Packet, actions: Iterable[HeaderAction]) -> None:
    """Reference semantics: apply actions in order, stopping at a drop.

    This is the *original chain* behaviour that consolidation must be
    equivalent to (minus the early-drop optimisation); the tests compare
    :func:`repro.core.consolidation.consolidate_header_actions` against it.
    """
    for action in actions:
        action.apply(packet)
        if packet.dropped:
            return


def xor_merge_bytes(original: bytes, outputs: Sequence[bytes]) -> bytes:
    """The paper's literal merge formula for modifies on different fields.

    Given the original packet bytes P0 and per-NF outputs P1..Pn (each the
    result of one modify applied to P0, touching disjoint bit ranges),
    computes  P0 ⊕ [(P0⊕P1) | (P0⊕P2) | ...]  — the merged packet, which
    cross-validates the FieldOp algebra.
    """
    if any(len(out) != len(original) for out in outputs):
        raise ValueError("all outputs must have the same length as the original")
    merged_diff = bytes(len(original))
    for out in outputs:
        diff = bytes(a ^ b for a, b in zip(original, out))
        merged_diff = bytes(a | b for a, b in zip(merged_diff, diff))
    return bytes(a ^ b for a, b in zip(original, merged_diff))


class PcapFormatError(ValueError):
    """Not a valid pcap byte stream."""


def _open_header(data: bytes) -> Tuple[str, float]:
    """Returns (struct byte-order prefix, ns per sub-second unit)."""
    if len(data) < 4:
        raise PcapFormatError("truncated pcap global header")
    raw = struct.unpack("<I", data[:4])[0]
    for order in ("<", ">"):
        magic = struct.unpack(order + "I", data[:4])[0]
        if magic == MAGIC_US:
            return order, 1000.0
        if magic == MAGIC_NS:
            return order, 1.0
    raise PcapFormatError(f"bad pcap magic 0x{raw:08x}")


def read_pcap(source: Union[str, Path, BinaryIO]) -> Iterator[Packet]:
    """Yield packets from a pcap file (Ethernet linktype only)."""
    own = isinstance(source, (str, Path))
    stream: BinaryIO = open(source, "rb") if own else source  # type: ignore[assignment]
    try:
        header = stream.read(struct.calcsize("IHHiIII"))
        order, tick = _open_header(header)
        fields = struct.unpack(order + "IHHiIII", header)
        linktype = fields[6]
        if linktype != LINKTYPE_ETHERNET:
            raise PcapFormatError(f"unsupported linktype {linktype}")
        record = struct.Struct(order + "IIII")
        while True:
            record_header = stream.read(record.size)
            if not record_header:
                return
            if len(record_header) < record.size:
                raise PcapFormatError("truncated pcap record header")
            seconds, subsec, included, original = record.unpack(record_header)
            if included != original:
                raise PcapFormatError("snap-length-truncated captures are not supported")
            wire = stream.read(included)
            if len(wire) < included:
                raise PcapFormatError("truncated pcap record body")
            packet = Packet.parse(wire)
            packet.timestamp_ns = seconds * 1_000_000_000.0 + subsec * tick
            yield packet
    finally:
        if own:
            stream.close()


def internet_checksum(data: bytes) -> int:
    """RFC 1071 internet checksum over ``data`` (pad odd lengths with 0)."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def checksum_valid(header) -> bool:
    """An IPv4 header whose checksum verifies (the one's-complement sum is 0)."""
    return internet_checksum(header.pack()) == 0


def roundtrip_bytes(packets: Iterable[Packet]) -> List[Packet]:
    """Packets written as a trace to an in-memory buffer and read back."""
    buffer = io.BytesIO()
    write_trace(buffer, packets)
    buffer.seek(0)
    return load_trace(buffer)


def maglev_entries(table) -> list:
    """A Maglev lookup table's slots by backend name (``None`` if empty)."""
    return [entry.name if entry is not None else None for entry in table._entries]


def maglev_slot_share(table) -> Dict[str, int]:
    """Slots owned per backend."""
    share: Dict[str, int] = {}
    for entry in table._entries:
        if entry is not None:
            share[entry.name] = share.get(entry.name, 0) + 1
    return share


def recover_backend(maglev, name: str) -> None:
    """Bring a failed Maglev backend back and rebuild the lookup table."""
    maglev.backend_by_name(name).healthy = True
    maglev.table.rebuild()


def rule_with_action(synth, action):
    """The synthesizer's first rule carrying ``action``."""
    for rule in synth.rules:
        if rule.action is action:
            return rule
    raise LookupError(f"rule set has no {action.value} rule")


def matching_action(synth, action, length: int = 64) -> bytes:
    """A payload matching the synthesizer's first rule with ``action``."""
    return synth.matching(rule_with_action(synth, action), length=length)


def near_miss(synth, rule, length: int = 64) -> bytes:
    """A payload one byte away from matching ``rule``.

    Embeds every content except the last, and the last with its final
    byte flipped — the hardest negative for a detection engine
    (everything matches except one byte).  Requires a rule with at least
    one content whose pattern is ≥ 2 bytes.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length!r}")
    if not rule.contents:
        raise ValueError(f"rule sid={rule.sid} has no contents to near-miss")
    last = rule.contents[-1].pattern
    if len(last) < 2:
        raise ValueError("near-miss needs a final content of at least 2 bytes")
    corrupted = last[:-1] + bytes([last[-1] ^ 0x01])
    parts = [content.pattern for content in rule.contents[:-1]] + [corrupted]
    body = b"-".join(parts)
    if len(body) < length:
        body = body + b"-" + synth._filler(length - len(body) - 1)
    if rule.payload_matches(body):
        raise RuntimeError(
            f"near-miss for sid={rule.sid} accidentally matches; "
            "the corrupted byte completes another occurrence"
        )
    return body


def mixed_stream(synth, count: int, malicious_fraction: float, length: int) -> List[bytes]:
    """``count`` payloads, each matching the synthesizer's first rule with
    contents with probability ``malicious_fraction``, benign otherwise."""
    candidates = [rule for rule in synth.rules if rule.contents]
    rule = candidates[0] if candidates else None
    payloads = []
    for __ in range(count):
        malicious = synth._random.random() < malicious_fraction and rule is not None
        payloads.append(synth.matching(rule, length) if malicious else synth.benign(length))
    return payloads


def cost_fields() -> Dict[str, float]:
    """Every cost field of the cycle model with its default value."""
    return {f.name: f.default for f in dataclasses.fields(CostModel) if f.name != "clock_ghz"}


def schedule_batches(schedule) -> list:
    """A parallel schedule's batches, wave by wave."""
    return [batch for wave in schedule.waves for batch in wave]


def invoke(function, packet):
    """One state-function call as the rule program makes it: count it,
    then run the handler on the packet and the recorded args."""
    function.invocations += 1
    return function.handler(packet, *function.args)


def execute_batch(batch, packet) -> list:
    """Run a batch's functions in recording order; returns their results."""
    return [invoke(function, packet) for function in batch]


def execute_schedule(schedule, packet) -> list:
    """Run a schedule functionally, wave by wave in chain order."""
    return [result for batch in schedule_batches(schedule) for result in execute_batch(batch, packet)]


def max_wave_width(schedule) -> int:
    """Worker cores a schedule needs to realise its full parallelism."""
    return max((len(wave) for wave in schedule.waves), default=0)


def merge_meter(total: CycleMeter, other: CycleMeter) -> None:
    """Add ``other``'s charges into ``total``."""
    for operation, times in other.counts.items():
        total.counts[operation] = total.counts.get(operation, 0.0) + times
    total.direct_cycles += other.direct_cycles
    total._memo_model = None


def total_meter(report: ProcessReport) -> CycleMeter:
    """All of a report's charges merged (platform-transport costs not included)."""
    total = report.fixed_meter.copy()
    for __, meter in report.nf_meters:
        merge_meter(total, meter)
    for wave in report.sf_waves:
        for __, meter in wave:
            merge_meter(total, meter)
    return total


class InterpretedSpeedyBox(SpeedyBox):
    """The interpreted oracle: no flow ever compiles, and every fast-path
    packet runs this class's step-by-step rule interpreter — its own
    charges, action walk and wave loop, not the rule program the
    production routes share.  Firing, re-consolidation and the tables are
    production's (``_check_events``)."""

    def _maybe_compile(self, classification) -> None:
        pass

    def _run_fast(self, packet: Packet, rule, report: ProcessReport) -> None:
        self.fast_packets += 1
        self._m_fast.inc()
        fid = rule.fid
        meter = report.fixed_meter
        meter.charge(Operation.FAST_PATH_DISPATCH)

        # (1) Event pre-check: has anything changed since the last packet?
        fired = self._check_events(fid, meter)
        if fired:
            report.events_fired += fired
            rule = self.global_mat.peek(fid) or rule

        # (2) Apply the consolidated header action.  Drop rules with
        #     state functions defer the actual drop: the batches up to the
        #     dropping NF must observe the packet exactly as the original
        #     path showed it to their NFs — rewritten by the upstream
        #     actions (pre_drop), and not yet dropped until the dropper's
        #     own position.
        is_drop_rule = rule.consolidated.drop
        if is_drop_rule:
            meter.charge(Operation.DROP_FREE)
            if rule.schedule.batch_count and rule.pre_drop is not None:
                self._apply_nondrop(rule.pre_drop, packet, meter)
        else:
            self._apply_nondrop(rule.consolidated, packet, meter)

        # (3) Execute the state-function schedule.
        for wave in rule.schedule.waves:
            wave_meters: List[Tuple[str, CycleMeter]] = []
            for batch in wave:
                if is_drop_rule and not packet.dropped and batch.nf_name == rule.dropper:
                    packet.drop()  # the dropper's own SFs see a dropped packet
                batch_meter = CycleMeter()
                owner = self.nf_by_name.get(batch.nf_name)
                if owner is not None:
                    owner.meter = batch_meter
                batch_meter.charge(Operation.SF_INVOKE, len(batch))
                try:
                    execute_batch(batch, packet)
                finally:
                    if owner is not None:
                        owner.meter = NULL_METER
                wave_meters.append((batch.nf_name, batch_meter))
            report.sf_waves.append(wave_meters)
        if is_drop_rule and not packet.dropped:
            packet.drop()

        # (4) Post-update event check ("as soon as states have been
        #     updated", §V-C1): affects *subsequent* packets.
        fired = self._check_events(fid, meter)
        report.events_fired += fired

        report.dropped = packet.dropped
        if report.dropped:
            self._m_drops.labels(cause=rule.dropper or "consolidated").inc()

    def _apply_nondrop(self, action: ConsolidatedAction, packet: Packet, meter: CycleMeter) -> None:
        """Charge and apply a consolidated action's non-drop effects."""
        meter.charge(Operation.DECAP_OP, len(action.leading_decaps))
        field_count = len(action.field_ops)
        if field_count:
            meter.charge(Operation.FIELD_WRITE)
            meter.charge(Operation.MERGED_FIELD_WRITE, field_count - 1)
            meter.charge(Operation.CHECKSUM_UPDATE)
        meter.charge(Operation.ENCAP_OP, len(action.net_encaps))
        apply_consolidated(action, packet)


def count_interpreted(runtime: SpeedyBox) -> list:
    """Wrap ``runtime._run_fast``; the returned list grows by one report
    per packet the interpreted route serves (the rest of a compiling
    runtime's fast-path packets rode ``CompiledFlow.run``)."""
    served: list = []
    run_fast = runtime._run_fast

    def counted(packet, rule, report):
        served.append(report)
        return run_fast(packet, rule, report)

    runtime._run_fast = counted
    return served


def fail_tracked_backend(nf_name: str) -> Callable[[SpeedyBox], None]:
    """An intervention on one runtime: fail the backend the first flow
    Maglev ``nf_name`` tracks is pinned to."""

    def intervene(runtime) -> None:
        maglev = nf_by_name(runtime, nf_name)
        maglev.fail_backend(next(iter(maglev.conntrack.values())).name)

    return intervene


def des_run_load(
    platform: Platform,
    packets: Sequence[Packet],
    inter_arrival_ns: float = 0.0,
    use_timestamps: bool = False,
    gaps: Optional[Sequence[float]] = None,
) -> LoadResult:
    """The DES oracle: the platform's own functional pass, replayed by
    the generator engine whatever the plans' shape, read by
    :func:`reference_result` (a packet is dropped when the runtime
    dropped it).  Explicit ``gaps`` offer the packets as a cluster
    offers a replica its share of a global timeline (the first gap need
    not be zero)."""
    if gaps is None:
        gaps = arrival_gaps(packets, inter_arrival_ns, use_timestamps)
    run = platform._functional_pass(packets)
    engine = Engine()
    pipeline = platform._spawn_pipeline(engine, run.table, run.plan_ids, gaps)
    engine.run()
    return reference_result(
        pipeline.arrival, pipeline.finish, [packet.dropped for packet in packets]
    )


def reference_result(arrival, finish, dropped=None) -> LoadResult:
    """The reference reducer: a run's result from each packet's offered
    time, departure from the last hop and drop flag (none dropped when
    ``dropped`` is None), as RFC 2544 reads a run.  A packet is delivered
    unless it was dropped; only delivered packets have a latency, listed
    in the order they left (ties in offered order); the makespan is the
    last departure of any packet, and the rate is delivered packets over
    it."""
    offered = len(arrival)
    if dropped is None:
        dropped = [False] * offered
    left = sorted(range(offered), key=lambda index: finish[index])
    latencies = [float(finish[index]) - float(arrival[index])
                 for index in left if not dropped[index]]
    return LoadResult(
        offered=offered,
        delivered=len(latencies),
        dropped=offered - len(latencies),
        makespan_ns=max((float(end) for end in finish), default=0.0),
        latencies_ns=latencies,
    )


def ingest_rows(timeseries, rows) -> list:
    """Hand ``timeseries`` one finished run, given as per-packet rows
    ``(arrival_ns, latency_ns, replica, outcome, fast)`` in offered
    order; ``outcome`` is ``"ok"``, ``"drop"`` or ``"buffer"`` (a
    buffered row's latency is ``None``), and a row may stop after its
    latency (replica 0, ``"ok"``, not fast).  Returns the closed windows."""
    defaults = (0, "ok", False)
    full = [tuple(row) + defaults[len(row) - 2:] for row in rows]
    arrival, latency, replica, outcome, fast = (list(column) for column in zip(*full)) if full else ([],) * 5
    return timeseries.ingest_result(
        arrival,
        [math.nan if value is None else value for value in latency],
        replica,
        fast,
        [kind == "drop" for kind in outcome],
        [kind == "buffer" for kind in outcome],
    )


def run_lockstep(
    build_chain: Callable[[], list],
    packets: Sequence[Packet],
    interventions: Optional[Dict[int, Intervention]] = None,
    compare_outputs: bool = True,
    sbox_kwargs: Optional[dict] = None,
) -> Tuple[ServiceChain, SpeedyBox, List[Packet], List[Packet], List[ProcessReport]]:
    """Process the same stream through baseline and SpeedyBox runs.

    ``interventions[i]`` runs *before* packet ``i`` is processed, against
    both runtimes.  Returns both runtimes, both (mutated) packet lists and
    the SpeedyBox reports.
    """
    interventions = interventions or {}
    baseline = ServiceChain(build_chain())
    speedybox = SpeedyBox(build_chain(), **(sbox_kwargs or {}))

    base_packets = clone_packets(packets)
    sbox_packets = clone_packets(packets)
    reports: List[ProcessReport] = []

    for index, (base_pkt, sbox_pkt) in enumerate(zip(base_packets, sbox_packets)):
        if index in interventions:
            interventions[index](baseline, speedybox)
        baseline.process(base_pkt)
        reports.append(speedybox.process(sbox_pkt))

    if compare_outputs:
        assert_output_equivalence(base_packets, sbox_packets)
    return baseline, speedybox, base_packets, sbox_packets, reports


def assert_output_equivalence(base_packets: Sequence[Packet], sbox_packets: Sequence[Packet]) -> None:
    """Packet-for-packet: same drop decisions, same bytes on the wire."""
    assert len(base_packets) == len(sbox_packets)
    for index, (base_pkt, sbox_pkt) in enumerate(zip(base_packets, sbox_packets)):
        assert base_pkt.dropped == sbox_pkt.dropped, (
            f"packet {index}: drop mismatch (baseline={base_pkt.dropped}, "
            f"speedybox={sbox_pkt.dropped})"
        )
        if not base_pkt.dropped:
            assert base_pkt.serialize() == sbox_pkt.serialize(), (
                f"packet {index}: wire bytes differ\n"
                f"  baseline : {base_pkt!r}\n  speedybox: {sbox_pkt!r}"
            )


def nf_by_name(runtime, name: str):
    for nf in runtime.nfs:
        if nf.name == name:
            return nf
    raise KeyError(name)


def report_view(report: ProcessReport) -> tuple:
    """A :class:`ProcessReport` as comparable values.

    Reports hold :class:`~repro.platform.costs.CycleMeter` objects, which
    compare by identity; two runtimes that must report a packet alike
    compare these views instead.  Charges compare *in order*: a meter's
    cycle total is a float sum in ``counts`` insertion order.
    """

    def meter(m):
        return (list(m.counts.items()), m.direct_cycles)

    return (
        report.path,
        report.fid,
        report.dropped,
        report.closing,
        report.events_fired,
        meter(report.fixed_meter),
        [(name, meter(m)) for name, m in report.nf_meters],
        [[(name, meter(m)) for name, m in wave] for wave in report.sf_waves],
    )


def nf_state(runtime):
    """Every NF's counters and per-flow tables (dataclass values compare)."""
    return {
        nf.name: {k: v for k, v in vars(nf).items() if isinstance(v, (dict, int, float))}
        for nf in runtime.nfs
    }


def lockstep(build_chain, packets, interventions=None, **sbox_kwargs):
    """One stream through a compiling and an interpreted runtime.

    ``interventions[i]`` runs against both runtimes before packet ``i``.
    Returns the compiling runtime's ``(report, on_lane)`` per packet,
    ``on_lane`` false when ``_run_fast`` (or the slow path) served it.
    """
    interventions = interventions or {}
    fast = SpeedyBox(build_chain(), **sbox_kwargs)
    oracle = InterpretedSpeedyBox(build_chain(), **sbox_kwargs)
    interpreted = count_interpreted(fast)
    served = []
    streams = zip(clone_packets(packets), clone_packets(packets))
    for index, (fast_pkt, oracle_pkt) in enumerate(streams):
        if index in interventions:
            interventions[index](fast)
            interventions[index](oracle)
        calls = len(interpreted)
        report = fast.process(fast_pkt)
        assert report_view(report) == report_view(oracle.process(oracle_pkt)), index
        assert fast_pkt.dropped == oracle_pkt.dropped, index
        assert fast_pkt.serialize() == oracle_pkt.serialize(), index
        served.append((report, report.is_fast and len(interpreted) == calls))
    assert fast.stats() == oracle.stats()
    for counter in ("total_registered", "total_checks", "total_triggered"):
        assert getattr(fast.event_table, counter) == getattr(oracle.event_table, counter)
    assert nf_state(fast) == nf_state(oracle)
    return served


# -- reference trace encoders ----------------------------------------------------


def to_chrome(tracer) -> dict:
    """``tracer``'s capture as a Chrome trace-event object, one dict per
    event: ``thread_name`` metadata per track in first-use order, then
    the spans, instants and counter samples stably sorted by ``ts``."""
    tids = {track: index for index, track in enumerate(tracer.tracks())}
    events = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": track}}
        for track, tid in tids.items()
    ]
    spans, instants, counters = tracer.events()
    timed = [
        {"name": span.name, "ph": "X", "pid": 0, "tid": tids[span.track],
         "ts": span.start_ns / 1000.0, "dur": span.dur_ns / 1000.0, "args": span.args}
        for span in spans
    ]
    timed += [
        {"name": instant.name, "ph": "i", "s": "t", "pid": 0, "tid": tids[instant.track],
         "ts": instant.ts_ns / 1000.0, "args": instant.args}
        for instant in instants
    ]
    timed += [
        {"name": f"{sample.track}:{sample.name}", "ph": "C", "pid": 0,
         "tid": tids[sample.track], "ts": sample.ts_ns / 1000.0,
         "args": {sample.name: sample.value}}
        for sample in counters
    ]
    timed.sort(key=lambda event: event["ts"])
    return {"traceEvents": events + timed, "displayTimeUnit": "ns"}


def chrome_reference(tracer) -> str:
    """What ``tracer.write_chrome`` must write, encoded with ``json.dumps``."""
    return json.dumps(to_chrome(tracer))


def spans_jsonl_reference(recorder) -> str:
    """What ``recorder.write_jsonl`` must write, one ``json.dumps`` a span."""
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in recorder.records)


def read_chrome(tracer) -> dict:
    """The document ``tracer.write_chrome`` writes, parsed back."""
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.json"
        tracer.write_chrome(path)
        return json.loads(path.read_text())
