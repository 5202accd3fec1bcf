"""Word-level text utilities shared by matching and classification."""

from __future__ import annotations

import re

_WORD_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9+#./'-]*")


def words(text: str) -> list[str]:
    """Split text into word tokens.

    Keeps intra-word punctuation that matters in the resume domain:
    ``C++``, ``C#``, ``B.S.``, ``3.8/4.0``, ``object-oriented``.
    """
    return _WORD_RE.findall(text)


def normalize_word(word: str) -> str:
    """Canonical form of a word for frequency counting: lower-case,
    trailing periods stripped (``B.S.`` and ``B.S`` coincide)."""
    return word.lower().rstrip(".")


def normalized_words(text: str) -> list[str]:
    """Normalized word tokens of ``text``."""
    return [normalize_word(w) for w in words(text)]


def squeeze_whitespace(text: str) -> str:
    r"""Collapse whitespace runs to single spaces and trim (``str.split``
    splits on exactly the characters ``\s`` matches)."""
    return " ".join(text.split())
