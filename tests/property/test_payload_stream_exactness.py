"""Property test: bulk payload synthesis consumes the RNG stream exactly.

``PayloadSynthesizer`` cuts every payload from one filler stream, drawn
as numpy ``MT19937`` words in bulk where it used to make one
``random.choice`` call per byte.  The claim is stream exactness: for any
seed and any sequence of requests the bytes are the per-byte loop's
**and** the generator is left in the loop's state, so whatever is drawn
next is unchanged.  The per-byte synthesizer lives on here as the
oracle.  The kernel rests on how CPython builds ``choice`` and
``getrandbits`` and on numpy's ``MT19937`` producing CPython's words,
which is why this runs on every interpreter of the CI matrix.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nf.snort.rules import parse_rules
from repro.traffic.payloads import _FILLER_ALPHABET, PayloadSynthesizer


class PerByteSynthesizer:
    """The reference: one ``random.choice`` per filler byte, one call per
    payload, every content-bearing rule checked against a benign draft."""

    def __init__(self, rules, seed: int = 7):
        self.rules = list(rules)
        self._random = random.Random(seed)

    def _filler(self, length: int) -> bytes:
        return bytes(self._random.choice(_FILLER_ALPHABET) for __ in range(length))

    def _is_benign(self, payload: bytes) -> bool:
        for rule in self.rules:
            if rule.contents and rule.payload_matches(payload):
                return False
        return True

    def benign(self, length: int = 64) -> bytes:
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length!r}")
        for __ in range(64):
            payload = self._filler(length)
            if self._is_benign(payload):
                return payload
        raise RuntimeError(
            "could not synthesise a benign payload; rule contents overlap the filler alphabet"
        )

    def matching(self, rule, length: int = 64) -> bytes:
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length!r}")
        body = b"-".join(content.pattern for content in rule.contents)
        if len(body) < length:
            padding = self._filler(length - len(body) - (1 if body else 0))
            payload = body + (b"-" if body else b"") + padding
        else:
            payload = body
        if not rule.payload_matches(payload):
            raise ValueError(
                f"rule sid={rule.sid} cannot be satisfied by embedding its contents "
                "(pcre constrains beyond contents); craft the payload manually"
            )
        return payload


#: a ``random()`` draw between payloads, as ``mixed_stream`` makes them
COIN_FLIP = -1

steps = st.lists(
    st.one_of(
        st.just(COIN_FLIP),
        st.integers(min_value=0, max_value=40),
        st.sampled_from([26, 64, 1400, 3000]),
    ),
    min_size=1,
    max_size=12,
)


@given(seed=st.integers(min_value=0, max_value=2**64), steps=steps)
@settings(max_examples=150, deadline=None)
def test_filler_matches_per_byte_choice_and_leaves_the_same_state(seed, steps):
    kernel = PayloadSynthesizer((), seed=seed)
    oracle = PerByteSynthesizer((), seed=seed)
    for step in steps:
        if step == COIN_FLIP:
            assert kernel._random.random() == oracle._random.random()
        else:
            assert kernel._filler(step) == oracle._filler(step)
        assert kernel._random.getstate() == oracle._random.getstate()


RULE_SETS = {
    # the bench traces' rules: no content fits the filler, so no benign
    # draft is ever checked
    "bench": parse_rules(
        """
alert tcp any any -> any any (msg:"c2 beacon"; content:"malware-beacon"; sid:9001;)
log tcp any any -> any any (msg:"http get"; content:"GET /"; sid:9002;)
"""
    ),
    # content "A" hits most long drafts: benign requests retry, often
    "retry": parse_rules('alert tcp any any -> any any (msg:"a"; content:"A"; sid:1;)'),
    # "q7z" never occurs in filler, but nocase folds it to "Q7Z", which
    # does (in ~6 % of 3000-byte drafts)
    "nocase": parse_rules(
        """
alert tcp any any -> any any (msg:"q"; content:"q7z"; nocase; sid:2;)
log tcp any any -> any any (msg:"lower"; content:"q7z"; sid:3;)
"""
    ),
}

#: one bulk call's requests: (length, index of a content rule or None)
requests = st.lists(
    st.tuples(
        st.one_of(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=3000)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=1)),
    ),
    max_size=10,
)


def resolve(rules, batch):
    """``(length, rule index)`` pairs as ``payloads`` requests."""
    content_rules = [rule for rule in rules if rule.contents]
    return [
        (length, None if pick is None else content_rules[pick % len(content_rules)])
        for length, pick in batch
    ]


def one_at_a_time(oracle, batch):
    return [
        oracle.benign(length) if rule is None else oracle.matching(rule, length)
        for length, rule in batch
    ]


@pytest.mark.parametrize("rule_set", sorted(RULE_SETS))
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    calls=st.lists(st.one_of(st.just(COIN_FLIP), requests), min_size=1, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_bulk_payloads_match_per_byte_single_calls(rule_set, seed, calls):
    rules = RULE_SETS[rule_set]
    if rule_set == "retry":
        # content "A" hits a long draft almost surely: keep benign drafts
        # short enough that 64 tries succeed
        calls = [
            call if call == COIN_FLIP else [(min(length, 12), pick) for length, pick in call]
            for call in calls
        ]
    kernel = PayloadSynthesizer(rules, seed=seed)
    oracle = PerByteSynthesizer(rules, seed=seed)
    for call in calls:
        if call == COIN_FLIP:
            assert kernel._random.random() == oracle._random.random()
        else:
            batch = resolve(rules, call)
            assert kernel.payloads(batch) == one_at_a_time(oracle, batch)
        assert kernel._random.getstate() == oracle._random.getstate()


def test_retries_and_nocase_hits_are_exercised():
    """The retry and nocase rule sets do make benign drafts retry."""
    for name, length in (("retry", 12), ("nocase", 3000)):
        kernel = PayloadSynthesizer(RULE_SETS[name], seed=3)
        oracle = PerByteSynthesizer(RULE_SETS[name], seed=3)
        batch = [(length, None)] * 40
        assert kernel.payloads(batch) == one_at_a_time(oracle, batch)
        assert kernel._random.getstate() == oracle._random.getstate()
        # more filler drawn than the 40 payloads hold: some drafts retried
        drawn = PerByteSynthesizer((), seed=3)
        drawn._filler(40 * length)
        assert oracle._random.getstate() != drawn._random.getstate()


@pytest.mark.parametrize(
    "rules_text,length,error",
    [
        # the pcre holds for a third of the paddings: some request fails
        ('alert tcp any any -> any any (msg:"x"; content:"x"; pcre:"/x-[A-L]/"; sid:4;)',
         30, ValueError),
        # a 400-byte draft always holds an "A": benign runs out of tries
        ('alert tcp any any -> any any (msg:"a"; content:"A"; sid:1;)', 400, RuntimeError),
    ],
)
def test_a_failing_request_leaves_the_state_after_it(rules_text, length, error):
    """A bulk call that fails leaves the generator where the single calls
    leave it when the same request fails: nothing drawn past it."""
    rules = parse_rules(rules_text)
    rule = rules[0] if error is ValueError else None
    batch = [(7, None)] * 3 + [(length, rule)] * 40
    kernel = PayloadSynthesizer(rules, seed=8)
    oracle = PerByteSynthesizer(rules, seed=8)
    with pytest.raises(error):
        kernel.payloads(batch)
    with pytest.raises(error):
        one_at_a_time(oracle, batch)
    assert kernel._random.getstate() == oracle._random.getstate()


def test_cpython_facts_the_kernel_relies_on():
    """Each fact alone, so a new interpreter that breaks one says which."""
    size = len(_FILLER_ALPHABET)
    # 1. choice() over 36 items is a rejection loop over getrandbits(6)
    rng, twin = random.Random(5), random.Random(5)
    for __ in range(100):
        index = rng.getrandbits(size.bit_length())
        while index >= size:
            index = rng.getrandbits(size.bit_length())
        assert twin.choice(_FILLER_ALPHABET) == _FILLER_ALPHABET[index]
    assert rng.getstate() == twin.getstate()
    # 2. getrandbits(6) is the top 6 bits of one 32-bit word
    rng, twin = random.Random(6), random.Random(6)
    assert [rng.getrandbits(6) for __ in range(100)] == [
        twin.getrandbits(32) >> 26 for __ in range(100)
    ]
    # 3. getrandbits(32 * n) is n words, the first drawn least significant
    rng, twin = random.Random(7), random.Random(7)
    words = [rng.getrandbits(32) for __ in range(50)]
    assert twin.getrandbits(32 * 50) == sum(word << (32 * i) for i, word in enumerate(words))
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("warmup", [0, 1, 623, 624, 625, 2000])
def test_numpy_facts_the_kernel_relies_on(warmup):
    """numpy's ``MT19937``, loaded from a CPython state, is that generator:
    ``random_raw`` yields CPython's ``getrandbits(32)`` words, and handing
    the state back leaves CPython where those calls would (at every
    position inside the 624-word block)."""
    rng, twin = random.Random(11), random.Random(11)
    for __ in range(warmup):
        rng.getrandbits(32)
        twin.getrandbits(32)
    rng.gauss(0.0, 1.0)
    twin.gauss(0.0, 1.0)  # a pending gauss_next must survive the round trip
    version, internal, gauss_next = rng.getstate()
    bitgen = np.random.MT19937()
    bitgen.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(internal[:-1], dtype=np.uint32), "pos": internal[-1]},
    }
    words = bitgen.random_raw(1500)
    assert words.tolist() == [twin.getrandbits(32) for __ in range(1500)]
    state = bitgen.state["state"]
    rng.setstate((version, tuple(state["key"].tolist()) + (int(state["pos"]),), gauss_next))
    assert rng.getstate() == twin.getstate()
    assert rng.random() == twin.random()
