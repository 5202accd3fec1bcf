"""The tokenization rule (Section 2.3.1, text rule 1).

"A tokenization rule takes an HTML text node and replaces it by n >= 1
token nodes of the pattern ``<TOKEN>text</TOKEN>``."  Topic sentences are
split at punctuation delimiters (``;``, ``,``, ``:`` by default).  The
token nodes are never built: the rule returns a :class:`TokenPlan` that
the concept instance rule resolves in one sweep (DESIGN.md section 4k).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from repro.concepts.textutil import squeeze_whitespace
from repro.convert.config import ConversionConfig
from repro.dom.node import Element, Node, Text

TOKEN_TAG = "TOKEN"


@lru_cache(maxsize=64)
def _delimiter_class(delimiters: tuple[str, ...]) -> re.Pattern[str] | None:
    """One compiled character class per delimiter tuple."""
    chars = "".join(re.escape(d) for d in delimiters if len(d) == 1)
    return re.compile(f"[{chars}]") if chars else None


def split_topic_sentence(text: str, delimiters: tuple[str, ...]) -> list[str]:
    """Split a topic sentence into token texts at delimiter characters.

    Delimiters inside numbers are protected: the comma in ``10,000`` and
    the colon in ``10:30`` do not separate information components, and
    naive splitting there would shred dates and GPAs.  Empty fragments are
    dropped; whitespace is squeezed.
    """
    pattern = _delimiter_class(tuple(delimiters))
    pieces: list[str] = []
    start = 0
    for match in pattern.finditer(text) if pattern is not None else ():
        index = match.start()
        # "Inside a number" is ``str.isdigit`` on both sides, not ``\d``.
        if 0 < index < len(text) - 1 and text[index - 1].isdigit() and text[index + 1].isdigit():
            continue
        if text[index] == ":" and text.startswith("//", index + 1):
            # URL scheme separator ("http://..."), not a delimiter.
            continue
        pieces.append(text[start:index])
        start = index + 1
    pieces.append(text[start:])
    tokens = [squeeze_whitespace(piece) for piece in pieces]
    return [token for token in tokens if token]


@dataclass
class TokenPlan:
    """Each element with text children -> its child sequence with every
    text node replaced by that node's token strings, in order."""

    root: Element
    children: dict[Element, list[Node | str]] = field(default_factory=dict)
    tokens: int = 0


def apply_tokenization_rule(
    root: Element, config: ConversionConfig | None = None
) -> TokenPlan:
    """Split every text node under ``root`` into token strings.

    The tree is left as it is; the plan's ``tokens`` counts the token
    nodes the rule stands for.
    """
    config = config or ConversionConfig()
    plan = TokenPlan(root)
    stack: list[Element] = [root]
    while stack:
        element = stack.pop()
        children = element.children
        items: list[Node | str] | None = None
        for index, child in enumerate(children):
            if isinstance(child, Text):
                if items is None:
                    items = plan.children[element] = children[:index]
                tokens = split_topic_sentence(child.text, config.delimiters)
                plan.tokens += len(tokens)
                items.extend(tokens)
                continue
            if items is not None:
                items.append(child)
            if isinstance(child, Element) and child.children:
                stack.append(child)
    return plan
