"""Unit tests for header-action consolidation (repro.core.consolidation)."""

import pytest

from repro.core.actions import Decap, Drop, Encap, Forward, Modify
from repro.core.consolidation import ConsolidationError, consolidate_header_actions
from repro.net import AuthenticationHeader, FiveTuple, Packet, VxlanHeader
from repro.net.addresses import ip_to_int
from tests.integration.helpers import apply_sequentially, checksum_valid, xor_merge_bytes


def make_packet():
    return Packet.from_five_tuple(FiveTuple.make("10.0.0.1", "10.0.0.2", 1234, 80), payload=b"pp")


def consolidated_equals_sequential(actions):
    """Oracle: the consolidated action must equal sequential application."""
    seq_packet = make_packet()
    apply_sequentially(seq_packet, actions)

    con_packet = make_packet()
    consolidated = consolidate_header_actions(actions)
    consolidated.compiled()(con_packet)

    if seq_packet.dropped:
        return con_packet.dropped
    seq_packet.finalize()
    return con_packet.serialize() == seq_packet.serialize()


class TestDropDominance:
    def test_single_drop(self):
        result = consolidate_header_actions([Forward(), Drop(), Forward()])
        assert result.drop

    def test_drop_short_circuits(self):
        # Actions after the drop are irrelevant and must not be consolidated.
        result = consolidate_header_actions([Drop(), Modify.set(ttl=1)])
        assert result.drop
        assert not result.field_ops
        assert result.source_count == 1

    def test_drop_applies(self):
        packet = make_packet()
        consolidate_header_actions([Modify.set(ttl=3), Drop()]).compiled()(packet)
        assert packet.dropped


class TestForwardDefault:
    def test_all_forwards_is_noop(self):
        result = consolidate_header_actions([Forward()] * 5)
        assert result.is_noop

    def test_empty_list_is_noop(self):
        assert consolidate_header_actions([]).is_noop


class TestModifyMerge:
    def test_disjoint_fields_merge(self):
        actions = [Modify.set(dst_ip=ip_to_int("9.9.9.9")), Modify.set(dst_port=8080)]
        result = consolidate_header_actions(actions)
        assert len(result.field_ops) == 2
        assert consolidated_equals_sequential(actions)

    def test_same_field_latter_wins(self):
        actions = [Modify.set(dst_port=1111), Modify.set(dst_port=2222)]
        result = consolidate_header_actions(actions)
        assert len(result.field_ops) == 1
        packet = make_packet()
        result.compiled()(packet)
        assert packet.l4.dst_port == 2222

    def test_ttl_decrements_accumulate(self):
        actions = [Modify.ttl_dec(), Modify.ttl_dec(), Modify.ttl_dec()]
        packet = make_packet()
        original = packet.ip.ttl
        consolidate_header_actions(actions).compiled()(packet)
        assert packet.ip.ttl == original - 3

    def test_set_after_adjust(self):
        actions = [Modify.ttl_dec(), Modify.set(ttl=32), Modify.ttl_dec()]
        packet = make_packet()
        consolidate_header_actions(actions).compiled()(packet)
        assert packet.ip.ttl == 31
        assert consolidated_equals_sequential(actions)

    def test_zero_net_adjust_drops_out(self):
        actions = [Modify.adjust(ttl=-2), Modify.adjust(ttl=2)]
        result = consolidate_header_actions(actions)
        assert result.is_noop

    def test_checksum_valid_after_apply(self):
        packet = make_packet()
        consolidate_header_actions([Modify.set(dst_ip=ip_to_int("8.8.8.8"))]).compiled()(packet)
        assert checksum_valid(packet.ip)

    def test_mixed_routing_and_finalisation_fields(self):
        actions = [
            Modify.set(dst_ip=ip_to_int("8.8.4.4")),
            Modify.ttl_dec(),
            Modify.set(src_port=5555),
        ]
        assert consolidated_equals_sequential(actions)


class TestEncapDecapStack:
    def test_adjacent_encap_decap_cancel(self):
        actions = [Encap(AuthenticationHeader(spi=7)), Decap(AuthenticationHeader)]
        result = consolidate_header_actions(actions)
        assert result.is_noop

    def test_net_encap_survives(self):
        result = consolidate_header_actions([Encap(AuthenticationHeader(spi=7))])
        assert len(result.net_encaps) == 1
        assert consolidated_equals_sequential([Encap(AuthenticationHeader(spi=7))])

    def test_underflow_decap_becomes_leading(self):
        result = consolidate_header_actions([Decap(AuthenticationHeader)])
        assert len(result.leading_decaps) == 1
        packet = make_packet()
        packet.push_encap(AuthenticationHeader(spi=3))
        result.compiled()(packet)
        assert not packet.encaps

    def test_nested_stack_cancellation(self):
        actions = [
            Encap(AuthenticationHeader(spi=1)),
            Encap(VxlanHeader(vni=2)),
            Decap(VxlanHeader),
            Decap(AuthenticationHeader),
        ]
        result = consolidate_header_actions(actions)
        assert result.is_noop

    def test_decap_then_encap_both_survive(self):
        actions = [Decap(AuthenticationHeader), Encap(VxlanHeader(vni=9))]
        result = consolidate_header_actions(actions)
        assert len(result.leading_decaps) == 1
        assert len(result.net_encaps) == 1

    def test_mismatched_typed_decap_raises(self):
        actions = [Encap(AuthenticationHeader(spi=1)), Decap(VxlanHeader)]
        with pytest.raises(ConsolidationError):
            consolidate_header_actions(actions)

    def test_interleaved_modify_and_encap(self):
        actions = [
            Modify.set(dst_port=4321),
            Encap(AuthenticationHeader(spi=5)),
            Modify.set(dst_ip=ip_to_int("5.5.5.5")),
        ]
        assert consolidated_equals_sequential(actions)


class TestUnknownAction:
    def test_rejects_foreign_objects(self):
        with pytest.raises(ConsolidationError):
            consolidate_header_actions([object()])  # type: ignore[list-item]


class TestXorMergeFormula:
    def test_paper_formula_on_disjoint_fields(self):
        # Two modifies touching different bytes of the same buffer.
        original = bytes([0, 0, 0, 0])
        out1 = bytes([0xAA, 0, 0, 0])
        out2 = bytes([0, 0, 0xBB, 0])
        merged = xor_merge_bytes(original, [out1, out2])
        assert merged == bytes([0xAA, 0, 0xBB, 0])

    def test_single_output_is_identity(self):
        original = b"\x01\x02\x03"
        out = b"\x01\xFF\x03"
        assert xor_merge_bytes(original, [out]) == out

    def test_no_outputs_returns_original(self):
        assert xor_merge_bytes(b"abc", []) == b"abc"

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            xor_merge_bytes(b"abc", [b"ab"])

    def test_matches_field_level_merge_on_real_headers(self):
        # Cross-validate: the paper's byte formula against our field algebra.
        base = make_packet()
        p1 = base.clone()
        Modify.set(dst_ip=ip_to_int("9.9.9.9")).apply(p1)
        p2 = base.clone()
        Modify.set(src_port=4242).apply(p2)

        base_bytes = base.ip.pack() + base.l4.pack()
        p1_bytes = p1.ip.pack() + p1.l4.pack()
        p2_bytes = p2.ip.pack() + p2.l4.pack()
        merged = xor_merge_bytes(base_bytes, [p1_bytes, p2_bytes])

        both = base.clone()
        Modify.set(dst_ip=ip_to_int("9.9.9.9"), src_port=4242).apply(both)
        assert merged == both.ip.pack() + both.l4.pack()
