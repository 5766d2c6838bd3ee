"""Tests for Distribution.histogram, near-miss payloads, and event
update_state_functions replacement."""

import pytest

from repro.nf.snort.rules import parse_rules
from repro.stats import Distribution
from repro.traffic import PayloadSynthesizer
from tests.integration.helpers import near_miss

RULES = parse_rules(
    """
    alert tcp any any -> any any (msg:"two part"; content:"alpha"; content:"bravo"; sid:1;)
    alert tcp any any -> any any (msg:"short"; content:"x"; sid:2;)
    """
)


class TestHistogram:
    def test_counts_sum_to_samples(self):
        dist = Distribution(range(100))
        histogram = dist.histogram(bins=7)
        assert sum(count for __, __, count in histogram) == 100
        assert len(histogram) == 7

    def test_uniform_data_roughly_even(self):
        dist = Distribution(range(100))
        histogram = dist.histogram(bins=10)
        for __, __, count in histogram:
            assert count == 10

    def test_max_lands_in_last_bin(self):
        dist = Distribution([0.0, 1.0, 2.0, 10.0])
        histogram = dist.histogram(bins=5)
        assert histogram[-1][2] >= 1

    def test_constant_data_single_bin(self):
        dist = Distribution([5.0] * 8)
        histogram = dist.histogram(bins=4)
        assert histogram == [(5.0, 5.0, 8)]

    def test_empty(self):
        assert Distribution().histogram() == []

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            Distribution([1.0]).histogram(bins=0)

    def test_edges_are_contiguous(self):
        dist = Distribution([1.0, 2.0, 3.0, 9.0])
        histogram = dist.histogram(bins=4)
        for (lo_a, hi_a, __), (lo_b, __, __) in zip(histogram, histogram[1:]):
            assert hi_a == pytest.approx(lo_b)


class TestNearMiss:
    def test_near_miss_does_not_match(self):
        synth = PayloadSynthesizer(RULES)
        payload = near_miss(synth, RULES[0])
        assert not RULES[0].payload_matches(payload)

    def test_near_miss_contains_all_but_last_content(self):
        synth = PayloadSynthesizer(RULES)
        payload = near_miss(synth, RULES[0])
        assert b"alpha" in payload
        assert b"bravo" not in payload

    def test_single_byte_content_rejected(self):
        synth = PayloadSynthesizer(RULES)
        with pytest.raises(ValueError):
            near_miss(synth, RULES[1])

    def test_near_miss_through_detection_engine(self):
        from repro.net.flow import FiveTuple
        from repro.nf.snort import DetectionEngine

        synth = PayloadSynthesizer(RULES)
        engine = DetectionEngine(RULES)
        matcher = engine.assign_flow_matcher(FiveTuple.make("1.1.1.1", "2.2.2.2", 1, 2))
        near = matcher.inspect(near_miss(synth, RULES[0]))
        assert all(rule.sid != 1 for rule in near.alerts)
        hit = matcher.inspect(synth.matching(RULES[0]))
        assert any(rule.sid == 1 for rule in hit.alerts)


class TestEventStateFunctionReplacement:
    def test_update_state_functions_swaps_the_batch(self):
        from repro.core.actions import Drop, Forward
        from repro.core.event_table import Event, EventTable
        from repro.core.local_mat import InstrumentationAPI, LocalMAT
        from repro.core.state_function import PayloadClass, StateFunction

        events = EventTable()
        mat = LocalMAT("nf", events)
        api = InstrumentationAPI(mat, events)
        calls = []

        api.add_header_action(1, Forward())
        api.add_state_function(1, lambda p: calls.append("old"), PayloadClass.IGNORE, name="old")
        replacement = StateFunction(lambda p: calls.append("new"), PayloadClass.IGNORE, name="new")
        api.register_event(
            1,
            lambda: True,
            update_action=Drop(),
            update_state_functions=[replacement],
        )

        fired = events.check_fid(1)
        assert len(fired) == 1
        event, action = fired[0]
        assert event.update_state_functions == [replacement]
        mat.replace_state_functions(1, event.update_state_functions)
        batch = mat.rule_for(1).sf_batch
        assert [fn.name for fn in batch] == ["new"]
