"""Tests for word-level text utilities."""

import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concepts.textutil import (
    normalize_word,
    normalized_words,
    squeeze_whitespace,
    words,
)


class TestWords:
    def test_basic_split(self):
        assert words("one two three") == ["one", "two", "three"]

    def test_domain_tokens_kept_whole(self):
        assert words("C++ and C# code") == ["C++", "and", "C#", "code"]
        assert words("B.S. degree") == ["B.S.", "degree"]
        assert words("GPA 3.8/4.0") == ["GPA", "3.8/4.0"]
        assert words("object-oriented design") == ["object-oriented", "design"]

    def test_punctuation_dropped(self):
        assert words("hello, world!") == ["hello", "world"]

    def test_empty(self):
        assert words("") == []
        assert words("   ...   ") == []


class TestNormalization:
    def test_lowercase(self):
        assert normalize_word("University") == "university"

    def test_trailing_periods_stripped(self):
        assert normalize_word("B.S.") == "b.s"
        assert normalize_word("B.S") == "b.s"

    def test_normalized_words_pipeline(self):
        assert normalized_words("B.S. From MIT") == ["b.s", "from", "mit"]


class TestSqueeze:
    def test_runs_collapsed(self):
        assert squeeze_whitespace("a   b\n\tc") == "a b c"

    def test_trimmed(self):
        assert squeeze_whitespace("  x  ") == "x"

    def test_empty(self):
        assert squeeze_whitespace("   ") == ""

    def test_every_whitespace_character_matches_the_regex_form(self):
        for code in range(sys.maxunicode + 1):
            char = chr(code)
            assert char.isspace() == bool(re.match(r"\s", char)), hex(code)

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000\u200bab")) | st.text())
    def test_equals_the_regex_form(self, text):
        assert squeeze_whitespace(text) == re.sub(r"\s+", " ", text).strip()
