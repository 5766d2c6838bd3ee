"""Property test: the flow matcher gives the prescan engine's verdicts.

``FlowMatcher`` decides each candidate rule by its contents' in-order
walk and its pcre alone (``SnortRule.payload_matches``); the engine it
replaced prescanned every payload with Aho–Corasick and evaluated only
the rules whose patterns all occurred.  The prescan is a necessary condition, so
the two must agree on everything a packet leaves behind.  For a seeded
random rule set over one flow and a seeded stream of that flow's
payloads, after every packet: the verdict, the alert sids in order, the
log sids in order and the flowbits are the oracle's.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.flow import PROTO_TCP, FiveTuple
from repro.nf.snort.engine import DetectionEngine
from repro.nf.snort.rules import (
    AddressSpec,
    ContentOption,
    FlowbitOp,
    PortSpec,
    RuleAction,
    SnortRule,
)
from tests.integration.aho_corasick import PrescanMatcher

FLOW = FiveTuple.make("10.0.0.1", "10.0.0.2", 40000, 80)

#: overlapping patterns, patterns that are prefixes of one another, mixed
#: case and binary bytes
VOCABULARY = (
    b"ab", b"abc", b"abcd", b"bcd", b"cdab", b"aa", b"aaa",
    b"GET /", b"get", b"Evil", b"EVIL-x", b"\x00\x01", b"\x01\x00\x01",
)

PCRES = tuple(
    re.compile(body, flags)
    for body, flags in (
        (rb"ab+c", 0),
        (rb"evil", re.IGNORECASE),
        (rb"^GET", 0),
        (rb"a.?d", re.DOTALL),
        (rb"\x00\x01$", 0),
    )
)

BITS = ("x", "y")


def _content(rng: random.Random) -> ContentOption:
    pattern = rng.choice(VOCABULARY)
    options = {"nocase": rng.random() < 0.35}
    roll = rng.random()
    if roll < 0.2:
        options["offset"] = rng.randrange(0, 8)
    if 0.15 < roll < 0.35:
        options["depth"] = rng.randrange(1, 16)
    if 0.4 < roll < 0.6:
        options["distance"] = rng.randrange(-2, 6)
    if 0.5 < roll < 0.7:
        options["within"] = rng.randrange(0, 10)
    return ContentOption(pattern, **options)


def _flowbits(rng: random.Random) -> list:
    ops = [
        FlowbitOp(rng.choice(("set", "unset", "isset", "isnotset")), rng.choice(BITS))
        for __ in range(rng.choice((0, 0, 1, 2)))
    ]
    if rng.random() < 0.15:
        ops.append(FlowbitOp("noalert"))
    return ops


def _rule(rng: random.Random, sid: int) -> SnortRule:
    action = rng.choice((RuleAction.ALERT, RuleAction.ALERT, RuleAction.LOG, RuleAction.PASS))
    # one rule in eight covers another port: the flow never sees it
    dst_ports = PortSpec.parse("443") if rng.random() < 0.125 else PortSpec()
    return SnortRule(
        action=action,
        protocol=rng.choice((None, PROTO_TCP)),
        src=AddressSpec(),
        src_ports=PortSpec(),
        dst=AddressSpec(),
        dst_ports=dst_ports,
        contents=[_content(rng) for __ in range(rng.choice((0, 1, 1, 2, 3)))],
        pcre=rng.choice(PCRES) if rng.random() < 0.25 else None,
        flowbits=_flowbits(rng),
        sid=sid,
    )


def _filler(rng: random.Random, length: int) -> bytes:
    return bytes(rng.choice(b"abcdxyz-/ \x00\x01EGT") for __ in range(length))


def _payload(rng: random.Random) -> bytes:
    kind = rng.randrange(4)
    if kind == 0:
        return b""
    if kind == 1:
        return rng.randbytes(rng.randrange(1, 48))
    planted = b"".join(
        _filler(rng, rng.randrange(0, 5)) + rng.choice(VOCABULARY)
        for __ in range(rng.randrange(1, 5))
    ) + _filler(rng, rng.randrange(0, 5))
    return planted.swapcase() if kind == 3 else planted


def _view(result) -> tuple:
    return (
        result.verdict,
        [rule.sid for rule in result.alerts],
        [rule.sid for rule in result.logs],
    )


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_flow_matcher_agrees_with_the_prescan_engine(seed):
    rng = random.Random(seed)
    rules = [_rule(rng, sid) for sid in range(1, rng.randrange(1, 9) + 1)]
    matcher = DetectionEngine(rules).assign_flow_matcher(FLOW)
    oracle = PrescanMatcher(rules, FLOW)
    for index in range(rng.randrange(1, 13)):
        payload = _payload(rng)
        got, want = matcher.inspect(payload), oracle.inspect(payload)
        context = f"seed {seed}, packet {index}, payload {payload!r}"
        assert _view(got) == _view(want), context
        assert matcher.flowbits == oracle.flowbits, context


def test_the_generator_reaches_every_branch():
    """The property is only as strong as its inputs: over the first 200
    seeds the rules and payloads above reach every verdict, every
    flowbits verb and both kinds of content test."""
    verdicts, verbs, tests = set(), set(), set()
    for seed in range(200):
        rng = random.Random(seed)
        rules = [_rule(rng, sid) for sid in range(1, rng.randrange(1, 9) + 1)]
        verbs |= {op.verb for rule in rules for op in rule.flowbits}
        matcher = DetectionEngine(rules).assign_flow_matcher(FLOW)
        tests |= {
            "positional" if any(
                content.offset or content.depth is not None or content.is_relative
                for content in rule.contents
            ) else "plain"
            for rule in matcher.candidates if rule.contents
        }
        for __ in range(rng.randrange(1, 13)):
            verdicts.add(matcher.inspect(_payload(rng)).verdict)
    assert verdicts == {"pass", "alert", "log", "clean"}
    assert verbs == set(FlowbitOp.VERBS)
    assert tests == {"positional", "plain"}


def test_an_empty_content_pattern_is_rejected():
    rule = SnortRule(
        action=RuleAction.ALERT, protocol=None, src=AddressSpec(), src_ports=PortSpec(),
        dst=AddressSpec(), dst_ports=PortSpec(), contents=[ContentOption(b"")],
    )
    with pytest.raises(ValueError, match="empty pattern"):
        DetectionEngine([rule])
