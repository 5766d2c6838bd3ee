"""Direct API tests for ConsolidatedAction and SnortIDS built from a rule file."""

import pytest

from repro.core.actions import Decap, Encap, FieldOp, Forward, Modify
from repro.core.consolidation import ConsolidatedAction, consolidate_header_actions
from repro.net import AuthenticationHeader, FiveTuple, Packet, PacketField
from repro.net.addresses import ip_to_int


def make_packet():
    return Packet.from_five_tuple(FiveTuple.make("10.0.0.1", "10.0.0.2", 1, 2), payload=b"a")


class TestConsolidatedActionApi:
    def test_is_noop_only_when_empty(self):
        assert ConsolidatedAction().is_noop
        assert not ConsolidatedAction(drop=True).is_noop
        assert not ConsolidatedAction(field_ops={PacketField.TTL: FieldOp.adjust(-1)}).is_noop
        assert not ConsolidatedAction(leading_decaps=[Decap()]).is_noop
        assert not ConsolidatedAction(net_encaps=[Encap(AuthenticationHeader())]).is_noop

    def test_routing_vs_finalisation_split(self):
        action = consolidate_header_actions(
            [Modify.set(dst_ip=ip_to_int("9.9.9.9")), Modify.ttl_dec(), Modify.set(dscp=10)]
        )
        routing = set(action.routing_ops())
        finalisation = set(action.finalisation_ops())
        assert routing == {PacketField.DST_IP}
        assert finalisation == {PacketField.TTL, PacketField.DSCP}
        assert len(action.field_ops) == 3

    def test_repr_variants(self):
        assert "DROP" in repr(ConsolidatedAction(drop=True))
        assert "FORWARD" in repr(ConsolidatedAction())
        modify = consolidate_header_actions([Modify.set(dst_port=1)])
        assert "modify(dst_port)" in repr(modify)
        encapped = consolidate_header_actions([Encap(AuthenticationHeader(spi=1))])
        assert "encap x1" in repr(encapped)

    def test_source_count_tracks_inputs(self):
        action = consolidate_header_actions([Forward(), Forward(), Modify.set(ttl=9)])
        assert action.source_count == 3

    def test_apply_is_repeatable_for_pure_sets(self):
        action = consolidate_header_actions([Modify.set(dst_port=7777)])
        packet = make_packet()
        action.compiled()(packet)
        first = packet.serialize()
        action.compiled()(packet)
        assert packet.serialize() == first  # sets are idempotent

    def test_apply_adjusts_are_not_idempotent(self):
        action = consolidate_header_actions([Modify.ttl_dec()])
        packet = make_packet()
        before = packet.ip.ttl
        action.compiled()(packet)
        action.compiled()(packet)
        assert packet.ip.ttl == before - 2


class TestSnortFromFile:
    def test_loads_rule_file(self, tmp_path):
        from repro.nf.snort import SnortIDS

        path = tmp_path / "local.rules"
        path.write_text(
            """
            # local rules
            var HOME_NET 10.0.0.0/8
            alert tcp $HOME_NET any -> any 80 (msg:"from file"; content:"evil"; sid:77;)
            """
        )
        snort = SnortIDS("filesnort", path.read_text())
        assert snort.name == "filesnort"
        assert len(snort.rules) == 1
        assert snort.rules[0].sid == 77
