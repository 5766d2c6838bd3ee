"""Unit tests for Snort rule parsing (repro.nf.snort.rules)."""

import pytest

from repro.net.flow import FiveTuple, PROTO_TCP, PROTO_UDP
from repro.nf.snort.rules import (
    AddressSpec,
    PortSpec,
    RuleAction,
    RuleParseError,
    parse_rule,
    parse_rules,
)


class TestHeaderParsing:
    def test_basic_alert_rule(self):
        rule = parse_rule('alert tcp any any -> 10.0.0.0/24 80 (msg:"hi"; sid:1;)')
        assert rule.action is RuleAction.ALERT
        assert rule.protocol == PROTO_TCP
        assert rule.msg == "hi"
        assert rule.sid == 1

    def test_log_and_pass_actions(self):
        assert parse_rule("log udp any any -> any any (sid:2;)").action is RuleAction.LOG
        assert parse_rule("pass tcp any any -> any any (sid:3;)").action is RuleAction.PASS

    def test_unsupported_action(self):
        with pytest.raises(RuleParseError):
            parse_rule("explode tcp any any -> any any (sid:1;)")

    def test_unsupported_protocol(self):
        with pytest.raises(RuleParseError):
            parse_rule("alert icmp6 any any -> any any (sid:1;)")

    def test_ip_protocol_wildcard(self):
        rule = parse_rule("alert ip any any -> any any (sid:4;)")
        assert rule.protocol is None
        flow = FiveTuple.make("1.1.1.1", "2.2.2.2", 1, 2, protocol=PROTO_UDP)
        assert rule.header_matches(flow)

    def test_bidirectional(self):
        rule = parse_rule("alert tcp 10.0.0.1 any <> 10.0.0.2 80 (sid:5;)")
        forward = FiveTuple.make("10.0.0.1", "10.0.0.2", 999, 80)
        assert rule.header_matches(forward)
        assert rule.header_matches(forward.reversed())

    def test_unidirectional_does_not_reverse(self):
        rule = parse_rule("alert tcp 10.0.0.1 any -> 10.0.0.2 80 (sid:5;)")
        forward = FiveTuple.make("10.0.0.1", "10.0.0.2", 999, 80)
        assert rule.header_matches(forward)
        assert not rule.header_matches(forward.reversed())

    def test_garbage_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule("this is not a rule")


class TestAddressSpec:
    def test_any(self):
        assert AddressSpec.parse("any").matches(0x01020304)

    def test_cidr(self):
        spec = AddressSpec.parse("10.0.0.0/8")
        from repro.net.addresses import ip_to_int

        assert spec.matches(ip_to_int("10.9.9.9"))
        assert not spec.matches(ip_to_int("11.0.0.1"))

    def test_negation(self):
        spec = AddressSpec.parse("!10.0.0.0/8")
        from repro.net.addresses import ip_to_int

        assert not spec.matches(ip_to_int("10.9.9.9"))
        assert spec.matches(ip_to_int("11.0.0.1"))

    def test_not_any_rejected(self):
        with pytest.raises(RuleParseError):
            AddressSpec.parse("!any")

    def test_bad_prefix(self):
        with pytest.raises(RuleParseError):
            AddressSpec.parse("10.0.0.0/40")


class TestPortSpec:
    def test_single(self):
        spec = PortSpec.parse("80")
        assert spec.matches(80)
        assert not spec.matches(81)

    def test_range(self):
        spec = PortSpec.parse("1000:2000")
        assert spec.matches(1500)
        assert not spec.matches(999)

    def test_open_ranges(self):
        assert PortSpec.parse(":1024").matches(80)
        assert not PortSpec.parse(":1024").matches(2048)
        assert PortSpec.parse("49152:").matches(65000)

    def test_negated(self):
        spec = PortSpec.parse("!80")
        assert not spec.matches(80)
        assert spec.matches(81)

    def test_reversed_range_rejected(self):
        with pytest.raises(RuleParseError):
            PortSpec.parse("2000:1000")


class TestOptions:
    def test_content_simple(self):
        rule = parse_rule('alert tcp any any -> any any (content:"evil"; sid:1;)')
        assert rule.contents[0].pattern == b"evil"
        assert not rule.contents[0].nocase

    def test_content_nocase(self):
        rule = parse_rule('alert tcp any any -> any any (content:"EviL"; nocase; sid:1;)')
        assert rule.contents[0].nocase
        assert rule.payload_matches(b"--evil--")

    def test_multiple_contents_all_required(self):
        rule = parse_rule('alert tcp any any -> any any (content:"aa"; content:"bb"; sid:1;)')
        assert rule.payload_matches(b"aa..bb")
        assert not rule.payload_matches(b"aa only")

    def test_content_hex_escape(self):
        rule = parse_rule('alert tcp any any -> any any (content:"|90 90 90|"; sid:1;)')
        assert rule.contents[0].pattern == b"\x90\x90\x90"
        assert rule.payload_matches(b"\x00\x90\x90\x90\x00")

    def test_content_mixed_text_and_hex(self):
        rule = parse_rule('alert tcp any any -> any any (content:"GET|20|/"; sid:1;)')
        assert rule.contents[0].pattern == b"GET /"

    def test_bad_hex_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule('alert tcp any any -> any any (content:"|9|"; sid:1;)')

    def test_pcre(self):
        rule = parse_rule(r'alert tcp any any -> any any (pcre:"/ev[i1]l/"; sid:1;)')
        assert rule.payload_matches(b"xx ev1l xx")
        assert not rule.payload_matches(b"good")

    def test_pcre_case_insensitive_flag(self):
        rule = parse_rule(r'alert tcp any any -> any any (pcre:"/evil/i"; sid:1;)')
        assert rule.payload_matches(b"EVIL")

    def test_pcre_bad_flag(self):
        with pytest.raises(RuleParseError):
            parse_rule(r'alert tcp any any -> any any (pcre:"/x/q"; sid:1;)')

    def test_semicolon_inside_quoted_content(self):
        rule = parse_rule('alert tcp any any -> any any (content:"a;b"; sid:9;)')
        assert rule.contents[0].pattern == b"a;b"

    def test_unknown_option_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule("alert tcp any any -> any any (frobnicate:1; sid:1;)")

    def test_rev_and_priority(self):
        rule = parse_rule("alert tcp any any -> any any (sid:7; rev:3; priority:1;)")
        assert rule.rev == 3
        assert rule.priority == 1

    @pytest.mark.parametrize(
        "option",
        ["offset:2x", "depth:four", "distance:1.5", "within:", "sid:9x", "rev:r2", "priority:high"],
    )
    def test_a_non_integer_option_is_a_parse_error_naming_it(self, option):
        name = option.partition(":")[0]
        # the content modifiers need a content before them; sid keeps its own place
        options = f'content:"abc"; {option};' + ("" if name == "sid" else " sid:1;")
        with pytest.raises(RuleParseError, match=f"^{name} takes an integer"):
            parse_rule(f"alert tcp any any -> any any ({options})")


class TestRuleFile:
    def test_comments_and_blanks_skipped(self):
        text = """
        # a comment
        alert tcp any any -> any 80 (msg:"one"; sid:1;)

        log tcp any any -> any 80 (msg:"two"; sid:2;)
        """
        rules = parse_rules(text)
        assert [rule.sid for rule in rules] == [1, 2]

    def test_error_reports_line_number(self):
        with pytest.raises(RuleParseError, match="line 2"):
            parse_rules("alert tcp any any -> any 80 (sid:1;)\nbroken rule here")
