"""Exhaustive oracle for the field program ``ConsolidatedAction.compiled()``.

``compiled()`` writes a constant address or port set as a direct store on
its header and leaves every other modify to a bound read → apply → write
step.  This file holds it to a reference walk written here with the
accessors alone — :meth:`PacketField.read` / ``write``, then
:meth:`FieldOp.apply`, then :meth:`Packet.finalize` — over every case
within fixed bounds, with no sampling:

- every :class:`PacketField` × {set, adjust, set then adjust (``FieldOp.then``)};
- on a TCP and a UDP packet, one field at a time and every pair of fields;
- with no envelope, a leading decap, or a net encap.

Both runs start from clones of one packet and must serialize to the same
bytes with the same ``dropped`` flag.  The errors hold too: a port write
on a packet without L4, and an out-of-range TTL or DSCP, raise
``ValueError`` on both.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.actions import Decap, Encap, FieldOp
from repro.core.consolidation import ConsolidatedAction
from repro.net import AuthenticationHeader, FiveTuple, Packet, PacketField, VxlanHeader
from repro.net.flow import PROTO_TCP, PROTO_UDP

#: per field: (constant set, delta) in range for the base packets below
#: and for each other (a set then adjust lands on set + delta)
VALUES = {
    PacketField.SRC_MAC: (0x0200000000AB, 7),
    PacketField.DST_MAC: (0x02000000CD00, -3),
    PacketField.SRC_IP: (0xC0A80A01, 5),
    PacketField.DST_IP: (0xCB007109, -9),
    PacketField.TTL: (17, -1),
    PacketField.DSCP: (46, 2),
    PacketField.SRC_PORT: (8080, 3),
    PacketField.DST_PORT: (443, -2),
}


def ops_of(field):
    """The three shapes of one field's modify."""
    value, delta = VALUES[field]
    return (
        FieldOp.set(value),
        FieldOp.adjust(delta),
        FieldOp.set(value).then(FieldOp.adjust(delta)),
    )


def field_maps():
    """Every one-field and two-field modify, each op in each shape."""
    fields = list(PacketField)
    for field in fields:
        for op in ops_of(field):
            yield {field: op}
    for first, second in itertools.combinations(fields, 2):
        for op_a, op_b in itertools.product(ops_of(first), ops_of(second)):
            yield {first: op_a, second: op_b}


def base_packet(protocol, envelope):
    five_tuple = FiveTuple.make("10.1.2.3", "172.16.5.6", 40000, 80, protocol)
    packet = Packet.from_five_tuple(five_tuple, payload=b"field-program")
    if envelope == "decap":
        packet.push_encap(AuthenticationHeader(next_header=protocol, spi=7))
        packet.finalize()
    return packet


def action_for(ops, envelope):
    if envelope == "decap":
        return ConsolidatedAction(leading_decaps=[Decap(AuthenticationHeader)], field_ops=ops)
    if envelope == "encap":
        return ConsolidatedAction(field_ops=ops, net_encaps=[Encap(VxlanHeader(vni=42))])
    return ConsolidatedAction(field_ops=ops)


def reference_walk(action: ConsolidatedAction, packet: Packet) -> None:
    """The action in its stated order with the field accessors alone."""
    if action.drop:
        packet.drop()
        return
    for decap in action.leading_decaps:
        decap.apply(packet)
    for field, op in action.field_ops.items():
        if not field.is_finalisation_field:
            field.write(packet, op.apply(field.read(packet)))
    for encap in action.net_encaps:
        encap.apply(packet)
    for field, op in action.field_ops.items():
        if field.is_finalisation_field:
            field.write(packet, op.apply(field.read(packet)))
    packet.finalize()


def outcomes(action, packet):
    """(bytes, dropped) of the compiled program and of the reference walk,
    each run on its own clone of ``packet``."""
    compiled, reference = packet.clone(), packet.clone()
    action.compiled()(compiled)
    reference_walk(action, reference)
    return (
        (compiled.serialize(), compiled.dropped),
        (reference.serialize(), reference.dropped),
    )


@pytest.mark.parametrize("envelope", ["none", "decap", "encap"])
@pytest.mark.parametrize("protocol", [PROTO_TCP, PROTO_UDP], ids=["tcp", "udp"])
def test_compiled_writes_every_field_as_the_reference_walk(protocol, envelope):
    packet = base_packet(protocol, envelope)
    cases = 0
    for ops in field_maps():
        got, want = outcomes(action_for(ops, envelope), packet)
        assert got == want, (protocol, envelope, ops)
        cases += 1
    # 8 fields x 3 shapes, plus 28 pairs x 9 shape pairs
    assert cases == 24 + 28 * 9


@pytest.mark.parametrize("protocol", [PROTO_TCP, PROTO_UDP], ids=["tcp", "udp"])
def test_drop_and_forward(protocol):
    packet = base_packet(protocol, "none")
    for action in (ConsolidatedAction(drop=True), ConsolidatedAction()):
        got, want = outcomes(action, packet)
        assert got == want
        assert got[1] == action.drop


@pytest.mark.parametrize(
    "field, op",
    [
        (PacketField.SRC_PORT, FieldOp.set(9)),
        (PacketField.DST_PORT, FieldOp.set(9)),
        (PacketField.DST_PORT, FieldOp.adjust(1)),
        (PacketField.TTL, FieldOp.set(256)),
        (PacketField.TTL, FieldOp.adjust(-65)),
        (PacketField.DSCP, FieldOp.set(64)),
        (PacketField.DSCP, FieldOp.adjust(-1)),
    ],
)
def test_an_impossible_write_raises_on_both(field, op):
    # A packet without L4 for the ports; the default TTL 64 / DSCP 0 for the rest.
    packet = Packet() if field.value.endswith("port") else base_packet(PROTO_TCP, "none")
    action = ConsolidatedAction(field_ops={field: op})
    with pytest.raises(ValueError):
        action.compiled()(packet.clone())
    with pytest.raises(ValueError):
        reference_walk(action, packet.clone())
