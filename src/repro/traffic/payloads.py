"""Payload synthesis against a Snort rule set.

The paper replays an anonymised datacenter trace whose payloads are null,
so it "synthesizes the testing traffic with customized payloads according
to the inspection rules in Snort."  This module does the same: given a
rule set, it fabricates payloads that (a) fully match a chosen rule —
every ``content`` embedded in order, and the ``pcre`` satisfied when the
rule was authored content-first — or (b) are verifiably benign (no rule's
content set occurs).

Every payload is cut from one filler stream: :meth:`PayloadSynthesizer.payloads`
answers a whole trace's requests in one pass, and ``benign`` / ``matching``
are one-request calls of it.
"""

from __future__ import annotations

import random
import string
from typing import List, Optional, Sequence, Tuple

from repro.nf.snort.rules import ContentOption, SnortRule
from repro.vector import np

_FILLER_ALPHABET = (string.ascii_uppercase + string.digits).encode()

# ``random.choice`` over the 36 letters is ``_randbelow(36)``: draw one 32-bit
# Mersenne-Twister word, keep its top 6 bits (``getrandbits(6)``), accept
# them as the index if below 36, else draw again.  A draw applies that
# rule to the top *byte* of every word at once: it keeps the bytes below
# ``_ACCEPTED_TOPS`` (top 6 bits below 36), and ``bytes.translate`` maps
# each to its alphabet letter.
_ACCEPTED_TOPS = len(_FILLER_ALPHABET) << 2
_ACCEPT = bytes(_FILLER_ALPHABET[top >> 2] if top < _ACCEPTED_TOPS else 0 for top in range(256))

#: words per draw: bounds the draw's transient arrays (512 KiB of uint64)
_CHUNK_WORDS = 1 << 16
#: drafts a benign request may discard before the rule set is declared
#: to overlap the filler alphabet
_BENIGN_ATTEMPTS = 64

#: ``(length, rule)``: a payload matching ``rule``, or a benign one for None
PayloadRequest = Tuple[int, Optional[SnortRule]]


def _require_length(length: int) -> None:
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length!r}")


def _fits_filler(content: ContentOption) -> bool:
    """Whether ``content`` can occur in a run of filler letters."""
    pattern = content.pattern.upper() if content.nocase else content.pattern
    return not pattern.translate(None, _FILLER_ALPHABET)


def _draw_letters(bitgen, owed: int) -> bytes:
    """Filler letters from at most ``owed`` words (one chunk at most).

    A word yields at most one letter, so a draw never runs past the word
    on which a per-byte ``random.choice`` loop would stop.
    """
    words = bitgen.random_raw(min(owed, _CHUNK_WORDS))
    tops = np.ascontiguousarray(words.astype("<u8", copy=False).view(np.uint8)[3::8])
    return tops.compress(tops < _ACCEPTED_TOPS).tobytes().translate(_ACCEPT)


class PayloadSynthesizer:
    """Deterministic payload factory for a rule set."""

    def __init__(self, rules: Sequence[SnortRule], seed: int = 7):
        self.rules: List[SnortRule] = list(rules)
        self._random = random.Random(seed)
        # The rules a draft of pure filler can match: every content made
        # of filler letters (case-folded for ``nocase``).  No other rule
        # can hit a benign draft, so no other rule is checked.
        self._live = [
            rule
            for rule in self.rules
            if rule.contents and all(_fits_filler(content) for content in rule.contents)
        ]

    def payloads(self, requests: Sequence[PayloadRequest]) -> List[bytes]:
        """One payload per ``(length, rule)`` request, in order.

        Byte for byte what ``matching(rule, length)`` (or ``benign(length)``
        for a None rule) would return called once per request, and the
        generator is left where those calls would leave it.
        """
        return self._draw(requests, self._live)

    def benign(self, length: int = 64) -> bytes:
        """A payload no content-bearing rule matches.

        Filler is drawn from uppercase+digits while rule contents in
        practice contain lowercase/punctuation; a verification pass
        guarantees the property regardless, retrying on (unlikely)
        accidental hits.
        """
        return self._draw([(length, None)], self._live)[0]

    def matching(self, rule: SnortRule, length: int = 64) -> bytes:
        """A payload that fully matches ``rule``'s payload options."""
        return self._draw([(length, rule)], self._live)[0]

    def _filler(self, length: int) -> bytes:
        """``length`` filler bytes, word for word what one
        ``random.choice`` per byte would draw."""
        return self._draw([(length, None)], ())[0]

    def _draw(self, requests: Sequence[PayloadRequest], live: Sequence[SnortRule]) -> List[bytes]:
        """The one kernel: cut every request's payload from one filler stream.

        A matching payload is the rule's contents joined by ``-`` and
        padded with filler; a benign one is a draft of filler, drawn again
        while it hits a rule in ``live``.  The stream's words come from
        numpy's ``MT19937`` loaded from ``self._random``; each draw asks
        for at most the letters still owed, so the state handed back is
        advanced by exactly the words the per-byte loop would consume.
        """
        plan = []
        for length, rule in requests:
            _require_length(length)
            prefix = b""
            if rule is not None:
                prefix = b"-".join(content.pattern for content in rule.contents)
                if len(prefix) < length and prefix:
                    prefix += b"-"
            plan.append((prefix, max(length - len(prefix), 0), rule))
        owed = sum(need for __, need, __ in plan)
        payloads: List[bytes] = []
        letters, cut, drawn = b"", 0, 0
        bitgen = None
        try:
            for prefix, need, rule in plan:
                attempts = 0
                while True:
                    while len(letters) - cut < need:
                        if bitgen is None:
                            bitgen = self._load_bitgen()
                        fresh = _draw_letters(bitgen, owed)
                        owed -= len(fresh)
                        drawn += len(fresh)
                        letters, cut = letters[cut:] + fresh, 0
                    draft = letters[cut : cut + need]
                    cut += need
                    if rule is not None:
                        payload = prefix + draft
                        if not rule.payload_matches(payload):
                            raise ValueError(
                                f"rule sid={rule.sid} cannot be satisfied by embedding its "
                                "contents (pcre constrains beyond contents); "
                                "craft the payload manually"
                            )
                        break
                    if not any(hit.payload_matches(draft) for hit in live):
                        payload = draft
                        break
                    attempts += 1
                    if attempts == _BENIGN_ATTEMPTS:
                        raise RuntimeError(
                            "could not synthesise a benign payload; "
                            "rule contents overlap the filler alphabet"
                        )
                    # the retry is the next ``need`` letters of the stream
                    owed += need
                payloads.append(payload)
        except Exception:
            surplus = len(letters) - cut
            if surplus:
                # The last draw ran past the failing request: draw again,
                # from the start, exactly the letters consumed up to it.
                bitgen = self._load_bitgen()
                owed = drawn - surplus
                while owed:
                    owed -= len(_draw_letters(bitgen, owed))
            raise
        finally:
            if bitgen is not None:
                self._store_bitgen(bitgen)
        return payloads

    def _load_bitgen(self):
        """numpy's ``MT19937`` in ``self._random``'s state."""
        bitgen = np.random.MT19937()
        internal = self._random.getstate()[1]
        bitgen.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.array(internal[:-1], dtype=np.uint32), "pos": internal[-1]},
        }
        return bitgen

    def _store_bitgen(self, bitgen) -> None:
        """Hand ``bitgen``'s state back to ``self._random``."""
        version, __, gauss_next = self._random.getstate()
        state = bitgen.state["state"]
        self._random.setstate(
            (version, tuple(state["key"].tolist()) + (int(state["pos"]),), gauss_next)
        )
