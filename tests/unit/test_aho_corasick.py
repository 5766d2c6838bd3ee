"""Unit tests for the Aho-Corasick engine (repro.nf.snort.aho_corasick)."""

import pytest

from repro.nf.snort.aho_corasick import AhoCorasick, MultiPatternIndex


class TestAhoCorasick:
    def test_single_pattern(self):
        ac = AhoCorasick()
        pid = ac.add(b"abc")
        assert ac.search(b"xxabcxx") == [(pid, 5)]

    def test_multiple_matches_of_same_pattern(self):
        ac = AhoCorasick()
        pid = ac.add(b"ab")
        assert ac.search(b"abab") == [(pid, 2), (pid, 4)]

    def test_overlapping_patterns(self):
        ac = AhoCorasick()
        he = ac.add(b"he")
        she = ac.add(b"she")
        hers = ac.add(b"hers")
        matches = ac.search(b"ushers")
        found = {pid for pid, __ in matches}
        assert found == {he, she, hers}

    def test_pattern_is_prefix_of_another(self):
        ac = AhoCorasick()
        a = ac.add(b"abc")
        b = ac.add(b"abcdef")
        assert ac.matched_ids(b"abcdef") == {a, b}
        assert ac.matched_ids(b"abc") == {a}

    def test_no_match(self):
        ac = AhoCorasick()
        ac.add(b"needle")
        assert ac.search(b"haystack") == []

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            AhoCorasick().add(b"")

    def test_add_after_build_rejected(self):
        ac = AhoCorasick()
        ac.add(b"x")
        ac.build()
        with pytest.raises(RuntimeError):
            ac.add(b"y")

    def test_empty_automaton_matches_nothing(self):
        ac = AhoCorasick()
        assert ac.search(b"anything") == []

    def test_case_insensitive_mode(self):
        ac = AhoCorasick(case_sensitive=False)
        pid = ac.add(b"EvIl")
        assert pid in ac.matched_ids(b"pure eViL payload")

    def test_case_sensitive_mode_respects_case(self):
        ac = AhoCorasick(case_sensitive=True)
        pid = ac.add(b"Evil")
        assert not pid in ac.matched_ids(b"evil")
        assert pid in ac.matched_ids(b"Evil")

    def test_binary_patterns(self):
        ac = AhoCorasick()
        pid = ac.add(bytes([0x00, 0xFF, 0x7F]))
        text = bytes([1, 2, 0x00, 0xFF, 0x7F, 3])
        assert pid in ac.matched_ids(text)

    def test_matches_reference_implementation(self):
        # Brute-force cross-check over a pseudo-random corpus.
        import random

        rng = random.Random(42)
        patterns = [bytes(rng.randrange(97, 100) for __ in range(rng.randrange(1, 4))) for __ in range(8)]
        patterns = list(dict.fromkeys(patterns))
        ac = AhoCorasick()
        ids = {ac.add(p): p for p in patterns}
        text = bytes(rng.randrange(97, 100) for __ in range(200))
        expected = {pid for pid, pattern in ids.items() if pattern in text}
        assert ac.matched_ids(text) == expected


class TestMultiPatternIndex:
    def test_mixed_case_sensitivity(self):
        index = MultiPatternIndex()
        strict = index.add(b"Root", nocase=False)
        loose = index.add(b"Admin", nocase=True)
        matched = index.matched_keys(b"root admin")
        assert strict not in matched
        assert loose in matched

    def test_keys_are_stable(self):
        index = MultiPatternIndex()
        keys = [index.add(bytes([65 + i])) for i in range(5)]
        assert keys == list(range(5))
        assert len(index) == 5

    def test_all_match(self):
        index = MultiPatternIndex()
        a = index.add(b"aa")
        b = index.add(b"BB", nocase=True)
        assert index.matched_keys(b"xxaaxxbbxx") == {a, b}
