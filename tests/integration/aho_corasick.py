"""The Snort prescan engine: the reference the detection engine is checked against.

Real Snort prescans each payload for every ``content`` pattern of the
active rule set in one Aho–Corasick pass, then evaluates only the rules
whose patterns all occurred.  ``repro.nf.snort`` tests each candidate
rule's contents directly instead; this module keeps the prescan engine
it replaced, so the tests can hold the two to the same verdicts.

The automaton is built once per rule set (goto/fail/output construction)
and reused for every packet.  Patterns are byte strings; case-insensitive
patterns are supported by normalising both the pattern and the scanned
text through a translation table (ASCII lowercase), which matches
Snort's ``nocase`` semantics.  :class:`PrescanMatcher` is the per-flow
matcher built on it, rule for rule as ``FlowMatcher`` was.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.net.flow import FiveTuple
from repro.nf.snort.engine import InspectionResult
from repro.nf.snort.rules import RuleAction, SnortRule

_LOWER = bytes(
    b + 32 if 0x41 <= b <= 0x5A else b
    for b in range(256)
)


def _normalise(data: bytes) -> bytes:
    return data.translate(_LOWER)


class _Node:
    __slots__ = ("children", "fail", "outputs")

    def __init__(self):
        self.children: Dict[int, "_Node"] = {}
        self.fail: Optional["_Node"] = None
        self.outputs: List[int] = []


class AhoCorasick:
    """An automaton over a set of byte patterns.

    Each added pattern gets an integer id (its insertion index) returned
    by :meth:`add`; :meth:`search` reports (pattern_id, end_offset) hits.
    Build lazily on first search or explicitly with :meth:`build`.
    """

    def __init__(self, case_sensitive: bool = True):
        self.case_sensitive = case_sensitive
        self._root = _Node()
        self._patterns: List[bytes] = []
        self._built = False

    def __len__(self) -> int:
        return len(self._patterns)

    def add(self, pattern: bytes) -> int:
        """Insert a pattern; returns its id.  Rejects empty patterns."""
        if not pattern:
            raise ValueError("empty pattern")
        if self._built:
            raise RuntimeError("cannot add patterns after the automaton is built")
        pattern_id = len(self._patterns)
        self._patterns.append(pattern)
        key = pattern if self.case_sensitive else _normalise(pattern)
        node = self._root
        for byte in key:
            node = node.children.setdefault(byte, _Node())
        node.outputs.append(pattern_id)
        return pattern_id

    def pattern(self, pattern_id: int) -> bytes:
        return self._patterns[pattern_id]

    def build(self) -> None:
        """BFS construction of failure links and output merging."""
        if self._built:
            return
        queue = deque()
        for child in self._root.children.values():
            child.fail = self._root
            queue.append(child)
        while queue:
            node = queue.popleft()
            for byte, child in node.children.items():
                queue.append(child)
                fail = node.fail
                while fail is not None and byte not in fail.children:
                    fail = fail.fail
                child.fail = fail.children[byte] if fail is not None else self._root
                if child.fail is child:
                    child.fail = self._root
                child.outputs.extend(child.fail.outputs)
        self._built = True

    def search(self, text: bytes) -> List[Tuple[int, int]]:
        """All matches as (pattern_id, end_offset) pairs, in text order."""
        if not self._built:
            self.build()
        if not self._patterns:
            return []
        if not self.case_sensitive:
            text = _normalise(text)
        matches: List[Tuple[int, int]] = []
        node = self._root
        for offset, byte in enumerate(text):
            while node is not self._root and byte not in node.children:
                node = node.fail
            node = node.children.get(byte, self._root)
            for pattern_id in node.outputs:
                matches.append((pattern_id, offset + 1))
        return matches

    def matched_ids(self, text: bytes) -> Set[int]:
        """The set of pattern ids occurring anywhere in ``text``."""
        return {pattern_id for pattern_id, __ in self.search(text)}


class MultiPatternIndex:
    """Two automatons — case-sensitive and nocase — behind one interface.

    Snort rule sets mix case-sensitive and ``nocase`` contents; each goes
    to the matching automaton and search results are merged back to the
    caller's opaque pattern keys.
    """

    def __init__(self):
        self._sensitive = AhoCorasick(case_sensitive=True)
        self._insensitive = AhoCorasick(case_sensitive=False)
        self._keys: List[Tuple[bool, int]] = []

    def add(self, pattern: bytes, nocase: bool = False) -> int:
        """Register a pattern; returns a stable key for match lookups."""
        automaton = self._insensitive if nocase else self._sensitive
        inner_id = automaton.add(pattern)
        self._keys.append((nocase, inner_id))
        return len(self._keys) - 1

    def __len__(self) -> int:
        return len(self._keys)

    def build(self) -> None:
        self._sensitive.build()
        self._insensitive.build()

    def matched_keys(self, text: bytes) -> Set[int]:
        sensitive_hits = self._sensitive.matched_ids(text)
        insensitive_hits = self._insensitive.matched_ids(text)
        matched: Set[int] = set()
        for key, (nocase, inner_id) in enumerate(self._keys):
            hits = insensitive_hits if nocase else sensitive_hits
            if inner_id in hits:
                matched.add(key)
        return matched


class PrescanMatcher:
    """A flow's matcher as the prescan engine ran it.

    One prescan per payload yields the set of patterns present; a rule
    is evaluated only when all of its contents occurred, positionally
    (:meth:`SnortRule.payload_matches`) when any content has offset,
    depth, distance or within, else by its pcre alone.  Pass precedence,
    rule order and flowbits timing are ``FlowMatcher``'s.
    """

    def __init__(self, rules: Sequence[SnortRule], flow: FiveTuple):
        self.index = MultiPatternIndex()
        keys = [
            {self.index.add(content.pattern, nocase=content.nocase) for content in rule.contents}
            for rule in rules
        ]
        self.index.build()
        self.candidates = [
            (rule, rule_keys) for rule, rule_keys in zip(rules, keys) if rule.header_matches(flow)
        ]
        self.flowbits: set = set()

    def _payload_matches(
        self, rule: SnortRule, keys: Set[int], payload: bytes, matched: Set[int]
    ) -> bool:
        if not keys.issubset(matched):
            return False
        if any(
            content.offset or content.depth is not None or content.is_relative
            for content in rule.contents
        ):
            return rule.payload_matches(payload)
        return rule.pcre is None or rule.pcre.search(payload) is not None

    def inspect(self, payload: bytes) -> InspectionResult:
        matched = self.index.matched_keys(payload) if payload else set()
        result = InspectionResult()
        for rule, keys in self.candidates:
            if rule.action is not RuleAction.PASS:
                continue
            if rule.flowbits_allow(frozenset(self.flowbits)) and self._payload_matches(
                rule, keys, payload, matched
            ):
                result.passed = True
                return result
        for rule, keys in self.candidates:
            if rule.action is RuleAction.PASS:
                continue
            if not rule.flowbits_allow(frozenset(self.flowbits)):
                continue
            if not self._payload_matches(rule, keys, payload, matched):
                continue
            rule.flowbits_apply(self.flowbits)
            if rule.suppresses_output:
                continue
            if rule.action is RuleAction.ALERT:
                result.alerts.append(rule)
            elif rule.action is RuleAction.LOG:
                result.logs.append(rule)
        return result
