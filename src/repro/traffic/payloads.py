"""Payload synthesis against a Snort rule set.

The paper replays an anonymised datacenter trace whose payloads are null,
so it "synthesizes the testing traffic with customized payloads according
to the inspection rules in Snort."  This module does the same: given a
rule set, it fabricates payloads that (a) fully match a chosen rule —
every ``content`` embedded in order, and the ``pcre`` satisfied when the
rule was authored content-first — or (b) are verifiably benign (no rule's
content set occurs).
"""

from __future__ import annotations

import random
import string
from typing import List, Optional, Sequence

from repro.nf.snort.rules import RuleAction, SnortRule

_FILLER_ALPHABET = (string.ascii_uppercase + string.digits).encode()

# ``random.choice`` over the 36 letters is ``_randbelow(36)``: draw one 32-bit
# Mersenne-Twister word, keep its top 6 bits (``getrandbits(6)``), accept
# them as the index if below 36, else draw again.  The two tables apply
# that rule to the top *byte* of every word at once: ``bytes.translate``
# deletes the bytes whose top 6 bits are rejected and maps the rest to
# their alphabet letter.
_ACCEPT = bytes(
    _FILLER_ALPHABET[top >> 2] if top >> 2 < len(_FILLER_ALPHABET) else 0 for top in range(256)
)
_REJECT = bytes(top for top in range(256) if top >> 2 >= len(_FILLER_ALPHABET))


def _require_length(length: int) -> None:
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length!r}")


class PayloadSynthesizer:
    """Deterministic payload factory for a rule set."""

    def __init__(self, rules: Sequence[SnortRule], seed: int = 7):
        self.rules: List[SnortRule] = list(rules)
        self._random = random.Random(seed)

    def _filler(self, length: int) -> bytes:
        """``length`` filler bytes, word for word what one
        ``random.choice`` per byte would draw.

        ``getrandbits(32 * need)`` is ``need`` consecutive words, the
        first drawn least significant, so byte 3 of every little-endian
        group of four is one word's top byte.  A word yields at most one
        letter, so drawing exactly the outstanding deficit never
        consumes a word past the one the per-byte loop would stop on:
        the generator's state afterwards is the loop's, and everything
        drawn later (the next payload, ``mixed_stream``'s coin flips) is
        unchanged.
        """
        getrandbits = self._random.getrandbits
        filler = b""
        need = length
        while need:
            words = getrandbits(32 * need).to_bytes(4 * need, "little")
            filler += words[3::4].translate(_ACCEPT, _REJECT)
            need = length - len(filler)
        return filler

    def _is_benign(self, payload: bytes) -> bool:
        for rule in self.rules:
            if rule.contents and rule.payload_matches(payload):
                return False
        return True

    def benign(self, length: int = 64) -> bytes:
        """A payload no content-bearing rule matches.

        Filler is drawn from uppercase+digits while rule contents in
        practice contain lowercase/punctuation; a verification pass
        guarantees the property regardless, retrying on (unlikely)
        accidental hits.
        """
        _require_length(length)
        for __ in range(64):
            payload = self._filler(length)
            if self._is_benign(payload):
                return payload
        raise RuntimeError(
            "could not synthesise a benign payload; rule contents overlap the filler alphabet"
        )

    def matching(self, rule: SnortRule, length: int = 64) -> bytes:
        """A payload that fully matches ``rule``'s payload options."""
        _require_length(length)
        parts: List[bytes] = []
        for content in rule.contents:
            parts.append(content.pattern)
        body = b"-".join(parts) if parts else b""
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

    def rule_with_action(self, action: RuleAction) -> SnortRule:
        """The first rule carrying ``action`` (for branch-coverage tests)."""
        for rule in self.rules:
            if rule.action is action:
                return rule
        raise LookupError(f"rule set has no {action.value} rule")

    def matching_action(self, action: RuleAction, length: int = 64) -> bytes:
        return self.matching(self.rule_with_action(action), length=length)

    def near_miss(self, rule: SnortRule, length: int = 64) -> bytes:
        """A payload one byte away from matching ``rule``.

        Embeds every content except the last, and the last with its
        final byte flipped — the hardest negative for a detection engine
        (everything matches except one byte).  Requires a rule with at
        least one content whose pattern is ≥ 2 bytes.
        """
        _require_length(length)
        if not rule.contents:
            raise ValueError(f"rule sid={rule.sid} has no contents to near-miss")
        last = rule.contents[-1].pattern
        if len(last) < 2:
            raise ValueError("near-miss needs a final content of at least 2 bytes")
        corrupted = last[:-1] + bytes([last[-1] ^ 0x01])
        parts = [content.pattern for content in rule.contents[:-1]] + [corrupted]
        body = b"-".join(parts)
        if len(body) < length:
            body = body + b"-" + self._filler(length - len(body) - 1)
        if rule.payload_matches(body):
            raise RuntimeError(
                f"near-miss for sid={rule.sid} accidentally matches; "
                "the corrupted byte completes another occurrence"
            )
        return body

    def mixed_stream(
        self,
        count: int,
        malicious_fraction: float = 0.2,
        length: int = 64,
        rule: Optional[SnortRule] = None,
    ) -> List[bytes]:
        """``count`` payloads with the given fraction matching a rule."""
        if not 0.0 <= malicious_fraction <= 1.0:
            raise ValueError(f"fraction out of range: {malicious_fraction}")
        if rule is None and self.rules:
            candidates = [r for r in self.rules if r.contents]
            rule = candidates[0] if candidates else None
        payloads = []
        for index in range(count):
            malicious = self._random.random() < malicious_fraction and rule is not None
            payloads.append(self.matching(rule, length) if malicious else self.benign(length))
        return payloads
