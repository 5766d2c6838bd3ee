"""What the §V-B consolidator makes of each kind of recorded action, one
case per step of the algorithm: a forward is elided, a drop dominates,
modifies compose per field, an encap/decap pair cancels, a decap past
the stack is a leading decap of an arrival header."""

import pytest

from repro.core.actions import Decap, Drop, Encap, Forward, Modify
from repro.core.consolidation import ConsolidationError, consolidate_header_actions
from repro.net import AuthenticationHeader, VxlanHeader
from repro.net.addresses import ip_to_int


class TestExplain:
    def test_forward_elided(self):
        result = consolidate_header_actions([Forward()])
        assert result.is_noop
        assert result.source_count == 1

    def test_drop_short_circuits_narration(self):
        result = consolidate_header_actions([Forward(), Drop(), Modify.set(ttl=1)])
        assert result.drop
        # Nothing after the drop is consumed.
        assert not result.field_ops

    def test_modify_records_then_composes(self):
        result = consolidate_header_actions([Modify.set(dst_port=1), Modify.set(dst_port=2)])
        assert len(result.field_ops) == 1
        (field, op), = result.field_ops.items()
        assert (field.value, op.apply(7)) == ("dst_port", 2)

    def test_encap_decap_cancellation_narrated(self):
        result = consolidate_header_actions(
            [Encap(AuthenticationHeader(spi=1)), Decap(AuthenticationHeader)]
        )
        assert not result.net_encaps
        assert not result.leading_decaps

    def test_underflow_narrated(self):
        result = consolidate_header_actions([Decap()])
        assert len(result.leading_decaps) == 1

    def test_mismatched_decap_raises(self):
        with pytest.raises(ConsolidationError):
            consolidate_header_actions([Encap(AuthenticationHeader(spi=1)), Decap(VxlanHeader)])

    def test_summary_counts_match_consolidator(self):
        actions = [
            Modify.set(dst_ip=ip_to_int("9.9.9.9")),
            Encap(VxlanHeader(vni=3)),
            Modify.ttl_dec(),
            Forward(),
        ]
        result = consolidate_header_actions(actions)
        assert len(result.leading_decaps) == 0
        assert len(result.field_ops) == 2
        assert len(result.net_encaps) == 1

    def test_zero_net_adjust_excluded_from_live_count(self):
        result = consolidate_header_actions([Modify.adjust(ttl=-2), Modify.adjust(ttl=2)])
        assert len(result.field_ops) == 0

    def test_every_action_is_narrated(self):
        actions = [Forward(), Modify.set(dscp=5), Encap(VxlanHeader(vni=1))]
        result = consolidate_header_actions(actions)
        assert result.source_count == len(actions)
        assert len(result.field_ops) == 1
        assert len(result.net_encaps) == 1
