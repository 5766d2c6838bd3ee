"""Unit tests for Snort content modifiers and weighted Maglev backends."""

import pytest

from repro.nf.maglev import Backend, MaglevTable
from repro.nf.snort import DetectionEngine
from repro.nf.snort.rules import RuleParseError, parse_rule
from tests.integration.helpers import maglev_entries, maglev_slot_share


class TestContentModifiers:
    def test_offset_skips_prefix(self):
        rule = parse_rule('alert tcp any any -> any any (content:"abc"; offset:4; sid:1;)')
        assert rule.payload_matches(b"xxxxabc")
        assert not rule.payload_matches(b"abcxxxx")

    def test_depth_bounds_search(self):
        rule = parse_rule('alert tcp any any -> any any (content:"abc"; depth:5; sid:1;)')
        assert rule.payload_matches(b"xxabc")
        assert not rule.payload_matches(b"xxxabc")  # match ends at byte 6 > depth 5

    def test_offset_and_depth_combine(self):
        rule = parse_rule('alert tcp any any -> any any (content:"ab"; offset:2; depth:3; sid:1;)')
        assert rule.payload_matches(b"xxab")
        assert rule.payload_matches(b"xxxab")
        assert not rule.payload_matches(b"xxxxab")  # starts beyond offset+depth window

    def test_modifiers_apply_to_preceding_content_only(self):
        rule = parse_rule(
            'alert tcp any any -> any any (content:"aa"; offset:3; content:"bb"; sid:1;)'
        )
        assert rule.contents[0].offset == 3
        assert rule.contents[1].offset == 0
        assert rule.payload_matches(b"zzzaabb")
        assert not rule.payload_matches(b"aazzbb")  # first content before offset

    def test_modifier_without_content_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule("alert tcp any any -> any any (offset:3; sid:1;)")

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule('alert tcp any any -> any any (content:"a"; depth:0; sid:1;)')

    def test_nocase_with_offset(self):
        rule = parse_rule(
            'alert tcp any any -> any any (content:"AbC"; offset:2; nocase; sid:1;)'
        )
        assert rule.payload_matches(b"xxabc")
        assert not rule.payload_matches(b"abcxx")

    def test_engine_verifies_position_after_prescan(self):
        # The AC prescan finds the pattern anywhere; the engine must still
        # reject rules whose positional constraint fails.
        engine = DetectionEngine(
            [parse_rule('alert tcp any any -> any any (content:"evil"; offset:10; sid:7;)')]
        )
        from repro.net.flow import FiveTuple

        matcher = engine.assign_flow_matcher(FiveTuple.make("1.1.1.1", "2.2.2.2", 1, 2))
        assert matcher.inspect(b"evil-at-the-start").verdict == "clean"
        assert matcher.inspect(b"padpadpadpadevil").verdict == "alert"


class TestMaglevWeights:
    def make_backends(self):
        return [
            Backend.make("heavy", "192.168.1.1", 80, weight=3),
            Backend.make("light", "192.168.1.2", 80, weight=1),
        ]

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            Backend.make("bad", "192.168.1.1", 80, weight=0)

    def test_slot_share_proportional_to_weight(self):
        table = MaglevTable(self.make_backends(), table_size=1031)
        share = maglev_slot_share(table)
        ratio = share["heavy"] / share["light"]
        assert 2.5 <= ratio <= 3.5  # ~3x, with consistent-hashing noise

    def test_all_slots_still_filled(self):
        table = MaglevTable(self.make_backends(), table_size=131)
        assert all(entry is not None for entry in maglev_entries(table))

    def test_equal_weights_unchanged_behaviour(self):
        even = [
            Backend.make("a", "192.168.1.1", 80),
            Backend.make("b", "192.168.1.2", 80),
        ]
        table = MaglevTable(even, table_size=1031)
        share = maglev_slot_share(table)
        assert abs(share["a"] - share["b"]) / 1031 < 0.1

    def test_weighted_failover_still_minimal(self):
        backends = self.make_backends() + [Backend.make("extra", "192.168.1.3", 80, weight=2)]
        table = MaglevTable(backends, table_size=1031)
        from repro.net.flow import FiveTuple

        flows = [FiveTuple.make("10.0.0.1", "99.0.0.1", 1000 + i, 80) for i in range(200)]
        before = {flow: table.lookup(flow).name for flow in flows}
        backends[1].healthy = False  # fail "light"
        table.rebuild()
        moved = sum(
            1
            for flow in flows
            if before[flow] != "light" and table.lookup(flow).name != before[flow]
        )
        survivors = sum(1 for flow in flows if before[flow] != "light")
        assert moved <= max(2, survivors // 2)
