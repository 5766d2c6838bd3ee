"""Property test: bulk payload synthesis consumes the RNG stream exactly.

``PayloadSynthesizer._filler`` draws many Mersenne-Twister words per
call where it used to make one ``random.choice`` call per byte.  The
claim is stream exactness: for any seed and any sequence of calls the
bytes are the per-byte loop's **and** the generator is left in the
loop's state, so whatever is drawn next is unchanged.  The per-byte loop
lives on here as the oracle.  The kernel rests on how CPython builds
``choice`` and ``getrandbits``, which is why this runs on every
interpreter of the CI matrix.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.traffic.payloads import _FILLER_ALPHABET, PayloadSynthesizer


class PerByteSynthesizer(PayloadSynthesizer):
    """The reference: one ``random.choice`` per filler byte."""

    def _filler(self, length: int) -> bytes:
        return bytes(self._random.choice(_FILLER_ALPHABET) for __ in range(length))


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
