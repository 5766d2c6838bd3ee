"""Unit tests for header actions (repro.core.actions)."""

import pytest

from repro.core.actions import (
    Decap,
    Drop,
    Encap,
    FieldOp,
    Forward,
    HeaderActionKind,
    Modify,
)
from repro.net import AuthenticationHeader, FiveTuple, Packet, PacketField, VxlanHeader
from repro.net.addresses import ip_to_int, ip_to_str
from tests.integration.helpers import apply_sequentially


def make_packet(**kwargs):
    ft = FiveTuple.make("10.0.0.1", "10.0.0.2", 1234, 80)
    return Packet.from_five_tuple(ft, **kwargs)


class TestFieldOp:
    def test_set_applies(self):
        assert FieldOp.set(7).apply(100) == 7

    def test_adjust_applies(self):
        assert FieldOp.adjust(-3).apply(100) == 97

    def test_set_then_set_latter_wins(self):
        composed = FieldOp.set(1).then(FieldOp.set(2))
        assert composed.apply(99) == 2

    def test_set_then_adjust(self):
        composed = FieldOp.set(10).then(FieldOp.adjust(-2))
        assert composed.apply(99) == 8

    def test_adjust_then_adjust_sums(self):
        composed = FieldOp.adjust(-1).then(FieldOp.adjust(-2))
        assert composed.apply(64) == 61

    def test_adjust_then_set(self):
        composed = FieldOp.adjust(-5).then(FieldOp.set(40))
        assert composed.apply(64) == 40

    def test_composition_equals_sequential_application(self):
        ops = [FieldOp.adjust(-1), FieldOp.set(50), FieldOp.adjust(3), FieldOp.adjust(-2)]
        composed = ops[0]
        for op in ops[1:]:
            composed = composed.then(op)
        sequential = 64
        for op in ops:
            sequential = op.apply(sequential)
        assert composed.apply(64) == sequential

    def test_equality_and_hash(self):
        assert FieldOp.set(5) == FieldOp.set(5)
        assert FieldOp.set(5) != FieldOp.adjust(5)
        assert hash(FieldOp.adjust(2)) == hash(FieldOp.adjust(2))


class TestBasicActions:
    def test_forward_is_identity(self):
        packet = make_packet()
        before = packet.serialize()
        Forward().apply(packet)
        assert packet.serialize() == before

    def test_drop_marks_descriptor(self):
        packet = make_packet()
        Drop().apply(packet)
        assert packet.dropped

    def test_kinds(self):
        assert Forward().kind is HeaderActionKind.FORWARD
        assert Drop().kind is HeaderActionKind.DROP
        assert Modify.set(ttl=9).kind is HeaderActionKind.MODIFY

    def test_forward_drop_equality(self):
        assert Forward() == Forward()
        assert Drop() == Drop()
        assert Forward() != Drop()


class TestModify:
    def test_set_fields(self):
        packet = make_packet()
        Modify.set(dst_ip=ip_to_int("9.9.9.9"), dst_port=8080).apply(packet)
        assert ip_to_str(packet.ip.dst_ip) == "9.9.9.9"
        assert packet.l4.dst_port == 8080

    def test_ttl_dec(self):
        packet = make_packet()
        original_ttl = packet.ip.ttl
        Modify.ttl_dec().apply(packet)
        assert packet.ip.ttl == original_ttl - 1

    def test_empty_modify_rejected(self):
        with pytest.raises(ValueError):
            Modify({})

    def test_touched_fields(self):
        action = Modify.set(dst_ip=1, src_port=2)
        assert set(action.ops) == {PacketField.DST_IP, PacketField.SRC_PORT}

    def test_equality(self):
        assert Modify.set(ttl=3) == Modify.set(ttl=3)
        assert Modify.set(ttl=3) != Modify.set(ttl=4)


class TestEncapDecap:
    def test_encap_pushes_clone(self):
        template = AuthenticationHeader(spi=42)
        packet = make_packet()
        Encap(template).apply(packet)
        assert len(packet.encaps) == 1
        assert packet.encaps[0] is not template
        assert packet.encaps[0].spi == 42

    def test_decap_pops(self):
        packet = make_packet()
        packet.push_encap(AuthenticationHeader(spi=1))
        Decap().apply(packet)
        assert not packet.encaps

    def test_typed_decap_validates(self):
        packet = make_packet()
        packet.push_encap(VxlanHeader(vni=1))
        with pytest.raises(ValueError):
            Decap(AuthenticationHeader).apply(packet)

    def test_decap_matches_encap(self):
        encap = Encap(AuthenticationHeader(spi=1))
        assert Decap(AuthenticationHeader).matches(encap)
        assert Decap().matches(encap)
        assert not Decap(VxlanHeader).matches(encap)

    def test_decap_on_bare_packet_raises(self):
        with pytest.raises(ValueError):
            Decap().apply(make_packet())


class TestApplySequentially:
    def test_stops_at_drop(self):
        packet = make_packet()
        actions = [Modify.set(ttl=10), Drop(), Modify.set(ttl=50)]
        apply_sequentially(packet, actions)
        assert packet.dropped
        assert packet.ip.ttl == 10  # action after the drop never ran

    def test_order_matters_same_field(self):
        packet = make_packet()
        apply_sequentially(packet, [Modify.set(dst_port=1), Modify.set(dst_port=2)])
        assert packet.l4.dst_port == 2
