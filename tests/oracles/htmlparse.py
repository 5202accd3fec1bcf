"""Frozen copies of the HTML tokenizer, entity decoder and cleanser as
they were before their one-pass rewrites: the differential oracles for
:mod:`repro.htmlparse`.

* :func:`tokenize` is the per-character scanner (a ``_Scanner`` cursor
  stepped one character at a time, attributes read by
  ``_scan_attributes``).  Like the product it decodes text and
  attribute values with the product :func:`decode_entities`.
* :func:`decode_entities_slow` is the ``re.sub``-with-callback decoder.
* :func:`tidy` is the six-traversal cleanser: one full postorder per
  fix-up pass, ``index_in_parent``/``detach``/``insert_child`` surgery,
  and an ``ancestors()`` scan per text node for ``pre``.
* :func:`parse_html` builds the product's tree from the oracle token
  stream.
* :func:`oracle_htmlparse` makes the product pipeline parse and/or
  cleanse with the oracles, in this process and in every engine worker
  forked inside the block.

The tokenizer, parser and entity walls (``tests/test_html_tokenizer.py``,
``test_html_entities.py``, ``test_parser_properties.py``,
``test_parser_edge_golden.py``, ``test_fast_parser_differential.py``)
and the cleanser walls (``test_html_tidy.py``, ``test_tidy_properties.py``,
``test_tidy_edge_golden.py``, ``test_fast_tidy_differential.py``) hold
the product to these byte for byte.  Do not edit this module to follow
a change in ``src/``: a difference is a finding about the product.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Iterator

import repro.convert.pipeline as pipeline_module
import repro.htmlparse.parser as parser_module
from repro.dom.node import Element, Node, Text
from repro.dom.treeops import iter_postorder
from repro.htmlparse.entities import NAMED_ENTITIES, decode_entities
from repro.htmlparse.taginfo import (
    LIST_CONTAINER_TAGS,
    RAW_TEXT_TAGS,
    is_block,
    is_heading,
    is_inline,
)
from repro.htmlparse.tokenizer import Token, TokenType


# -- tokenizer ------------------------------------------------------------------

_TAG_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9:_-]*")
_ATTR_NAME_RE = re.compile(r"[^\s=/>]+")
_WHITESPACE_RE = re.compile(r"\s+")


class _Scanner:
    """Cursor over the source string."""

    __slots__ = ("source", "pos")

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.source)

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index < len(self.source):
            return self.source[index]
        return ""

    def startswith(self, prefix: str) -> bool:
        return self.source.startswith(prefix, self.pos)

    def take_until(self, needle: str) -> str:
        """Consume up to (not including) ``needle``; to EOF if absent."""
        index = self.source.find(needle, self.pos)
        if index == -1:
            chunk = self.source[self.pos :]
            self.pos = len(self.source)
            return chunk
        chunk = self.source[self.pos : index]
        self.pos = index
        return chunk

    def skip_whitespace(self) -> None:
        match = _WHITESPACE_RE.match(self.source, self.pos)
        if match:
            self.pos = match.end()


def _scan_attributes(scanner: _Scanner) -> tuple[dict[str, str], bool]:
    """Read attributes up to ``>``; returns (attrs, self_closing)."""
    attrs: dict[str, str] = {}
    self_closing = False
    while True:
        scanner.skip_whitespace()
        ch = scanner.peek()
        if ch == "" or ch == ">":
            break
        if ch == "/":
            scanner.pos += 1
            if scanner.peek() == ">":
                self_closing = True
            continue
        match = _ATTR_NAME_RE.match(scanner.source, scanner.pos)
        if not match:
            scanner.pos += 1
            continue
        name = match.group(0).lower()
        scanner.pos = match.end()
        scanner.skip_whitespace()
        value = ""
        if scanner.peek() == "=":
            scanner.pos += 1
            scanner.skip_whitespace()
            quote = scanner.peek()
            if quote in ("'", '"'):
                scanner.pos += 1
                value = scanner.take_until(quote)
                if not scanner.eof():
                    scanner.pos += 1
            else:
                start = scanner.pos
                while not scanner.eof() and scanner.peek() not in (" ", "\t", "\n", "\r", ">"):
                    scanner.pos += 1
                value = scanner.source[start : scanner.pos]
        if name not in attrs:
            attrs[name] = decode_entities(value)
    return attrs, self_closing


def tokenize(source: str) -> Iterator[Token]:
    """The per-character scanner: the token stream, spans included, that
    :func:`repro.htmlparse.tokenizer.tokenize` must reproduce."""
    scanner = _Scanner(source)
    raw_text_tag: str | None = None
    while not scanner.eof():
        token_start = scanner.pos
        if raw_text_tag is not None:
            close = f"</{raw_text_tag}"
            index = scanner.source.lower().find(close, scanner.pos)
            if index == -1:
                text = scanner.source[scanner.pos :]
                scanner.pos = len(scanner.source)
            else:
                text = scanner.source[scanner.pos : index]
                scanner.pos = index
            if text:
                yield Token(
                    TokenType.TEXT, text, start=token_start, end=scanner.pos
                )
            raw_text_tag = None
            continue
        if scanner.peek() != "<":
            text = scanner.take_until("<")
            yield Token(
                TokenType.TEXT,
                decode_entities(text),
                start=token_start,
                end=scanner.pos,
            )
            continue
        # At a '<'.
        if scanner.startswith("<!--"):
            scanner.pos += 4
            body = scanner.take_until("-->")
            if not scanner.eof():
                scanner.pos += 3
            yield Token(
                TokenType.COMMENT, body, start=token_start, end=scanner.pos
            )
            continue
        if scanner.startswith("<![CDATA["):
            scanner.pos += 9
            body = scanner.take_until("]]>")
            if not scanner.eof():
                scanner.pos += 3
            # CDATA content is literal character data (no entity decoding).
            yield Token(
                TokenType.TEXT, body, start=token_start, end=scanner.pos
            )
            continue
        if scanner.startswith("<!"):
            scanner.pos += 2
            body = scanner.take_until(">")
            if not scanner.eof():
                scanner.pos += 1
            yield Token(
                TokenType.DOCTYPE,
                body.strip(),
                start=token_start,
                end=scanner.pos,
            )
            continue
        if scanner.startswith("<?"):
            scanner.pos += 2
            scanner.take_until(">")
            if not scanner.eof():
                scanner.pos += 1
            continue
        if scanner.startswith("</"):
            match = _TAG_NAME_RE.match(scanner.source, scanner.pos + 2)
            if not match:
                # Stray '</' -- emit as text.
                scanner.pos += 2
                yield Token(
                    TokenType.TEXT, "</", start=token_start, end=scanner.pos
                )
                continue
            name = match.group(0).lower()
            scanner.pos = match.end()
            scanner.take_until(">")
            if not scanner.eof():
                scanner.pos += 1
            yield Token(
                TokenType.END_TAG, name, start=token_start, end=scanner.pos
            )
            continue
        match = _TAG_NAME_RE.match(scanner.source, scanner.pos + 1)
        if not match:
            # Stray '<' in text.
            scanner.pos += 1
            yield Token(
                TokenType.TEXT, "<", start=token_start, end=scanner.pos
            )
            continue
        name = match.group(0).lower()
        scanner.pos = match.end()
        attrs, self_closing = _scan_attributes(scanner)
        if scanner.peek() == ">":
            scanner.pos += 1
        yield Token(
            TokenType.START_TAG,
            name,
            attrs,
            self_closing,
            start=token_start,
            end=scanner.pos,
        )
        if name in RAW_TEXT_TAGS and not self_closing:
            raw_text_tag = name


# -- tree construction over the oracle tokens ------------------------------------


@contextmanager
def oracle_htmlparse(*, tokenizer: bool = True, cleanser: bool = True) -> Iterator[None]:
    """Within the block the product parses with :func:`tokenize` (if
    ``tokenizer``) and cleanses with :func:`tidy` (if ``cleanser``).

    Rebinds the names ``repro.htmlparse.parser`` and
    ``repro.convert.pipeline`` look up at call time, so every parse and
    every conversion in this process -- and in every engine worker
    forked inside the block -- runs the oracle in the product's place.
    """
    swaps = []
    if tokenizer:
        swaps.append((parser_module, "tokenize", tokenize))
    if cleanser:
        swaps.append((pipeline_module, "tidy", tidy))
    saved = [(module, name, getattr(module, name)) for module, name, _ in swaps]
    try:
        for module, name, value in swaps:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def parse_html(source: str) -> Element:
    """:func:`repro.htmlparse.parser.parse_html` over :func:`tokenize`."""
    with oracle_htmlparse(cleanser=False):
        return parser_module.parse_html(source)


# -- entity decoder -------------------------------------------------------------

_ENTITY_RE = re.compile(
    r"&(#[xX]?[0-9a-fA-F]+|[a-zA-Z][a-zA-Z0-9]*);?", re.ASCII
)


def _decode_one(match: re.Match[str]) -> str:
    body = match.group(1)
    if body.startswith("#"):
        try:
            if body[1:2] in ("x", "X"):
                code = int(body[2:], 16)
            else:
                code = int(body[1:], 10)
        except ValueError:
            return match.group(0)
        if 0 < code <= 0x10FFFF:
            try:
                return chr(code)
            except ValueError:
                return match.group(0)
        return match.group(0)
    replacement = NAMED_ENTITIES.get(body)
    if replacement is None:
        replacement = NAMED_ENTITIES.get(body.lower())
    if replacement is None:
        return match.group(0)
    return replacement


def decode_entities_slow(text: str) -> str:
    """The ``re.sub``-with-callback decoder: the text
    :func:`repro.htmlparse.entities.decode_entities` must reproduce."""
    if "&" not in text:
        return text
    return _ENTITY_RE.sub(_decode_one, text)


# -- cleanser -------------------------------------------------------------------

_WS_RE = re.compile(r"\s+")
_LI_TAGS = frozenset({"li"})
_DL_ITEMS = frozenset({"dt", "dd"})
_TR_TAGS = frozenset({"tr"})
_TABLE_CELLS = frozenset({"td", "th"})
_TABLE_SECTION_TAGS = frozenset({"table", "thead", "tbody", "tfoot"})


def _is_li(el: Element) -> bool:
    return el.tag in _LI_TAGS


def _is_dl_item(el: Element) -> bool:
    return el.tag in _DL_ITEMS


def _is_tr(el: Element) -> bool:
    return el.tag == "tr"


def _is_table_cell(el: Element) -> bool:
    return el.tag in _TABLE_CELLS


def tidy(root: Element) -> Element:
    """The six-traversal cleanser: the tree
    :func:`repro.htmlparse.tidy.tidy` must reproduce."""
    _repair_heading_nesting(root)
    _repair_inline_block_nesting(root)
    _wrap_orphans(root)
    _drop_empty_inlines(root)
    _collapse_redundant_inlines(root)
    _normalize_whitespace(root)
    return root


# 1. heading nesting


def _repair_heading_nesting(root: Element) -> None:
    for node in list(iter_postorder(root)):
        if not isinstance(node, Element) or not is_heading(node.tag):
            continue
        if node.parent is None:
            continue
        misplaced = [
            child
            for child in node.element_children()
            if is_block(child.tag) or is_heading(child.tag)
        ]
        parent = node.parent
        insert_at = node.index_in_parent() + 1
        for child in misplaced:
            child.detach()
            parent.insert_child(insert_at, child)
            insert_at += 1


def _repair_inline_block_nesting(root: Element) -> None:
    """Move block-level children out of inline elements.

    An unclosed ``<font>`` or ``<b>`` swallows the block elements that
    follow it; HTML Tidy hoists them back out, restoring the sibling
    structure the grouping rule depends on.
    """
    for node in list(iter_postorder(root)):
        if not isinstance(node, Element) or not is_inline(node.tag):
            continue
        if node.parent is None:
            continue
        misplaced = [
            child
            for child in node.element_children()
            if is_block(child.tag) or is_heading(child.tag)
        ]
        parent = node.parent
        insert_at = node.index_in_parent() + 1
        for child in misplaced:
            child.detach()
            parent.insert_child(insert_at, child)
            insert_at += 1


# 2. orphan wrapping


def _wrap_orphans(root: Element) -> None:
    for node in list(iter_postorder(root)):
        if not isinstance(node, Element):
            continue
        _wrap_runs(node, _is_li, "ul", forbidden_parents=LIST_CONTAINER_TAGS)
        _wrap_runs(node, _is_dl_item, "dl", forbidden_parents=LIST_CONTAINER_TAGS)
        _wrap_runs(node, _is_tr, "table", forbidden_parents=_TABLE_SECTION_TAGS)
        _wrap_runs(node, _is_table_cell, "tr", forbidden_parents=_TR_TAGS)


def _wrap_runs(parent, predicate, wrapper_tag: str, *, forbidden_parents: frozenset[str]) -> None:
    """Wrap maximal runs of matching children under a new wrapper element."""
    if parent.tag in forbidden_parents:
        return
    index = 0
    while index < len(parent.children):
        child = parent.children[index]
        if isinstance(child, Element) and predicate(child):
            run = [child]
            scan = index + 1
            while scan < len(parent.children):
                nxt = parent.children[scan]
                if isinstance(nxt, Element) and predicate(nxt):
                    run.append(nxt)
                    scan += 1
                elif isinstance(nxt, Text) and not nxt.text.strip():
                    scan += 1
                else:
                    break
            wrapper = Element(wrapper_tag)
            parent.insert_child(index, wrapper)
            for item in run:
                wrapper.append_child(item)
        index += 1


# 4. empty inline removal


def _drop_empty_inlines(root: Element) -> None:
    for node in list(iter_postorder(root)):
        if (
            isinstance(node, Element)
            and node.parent is not None
            and is_inline(node.tag)
            and not node.children
            and not node.get_val()
        ):
            node.detach()


# 5. redundant inline collapse


def _collapse_redundant_inlines(root: Element) -> None:
    for node in list(iter_postorder(root)):
        if not isinstance(node, Element) or node.parent is None:
            continue
        if not is_inline(node.tag):
            continue
        parent = node.parent
        if isinstance(parent, Element) and parent.tag == node.tag and len(parent.children) == 1:
            # parent is the same inline tag wrapping only this node:
            # splice this node's children into the parent.
            for child in list(node.children):
                parent.append_child(child)
            node.detach()


# 6. whitespace


def _normalize_whitespace(root: Element) -> None:
    for node in iter_postorder(root):
        if isinstance(node, Text) and not _inside_pre(node):
            node.text = _WS_RE.sub(" ", node.text).strip()
    # Remove text nodes that became empty.
    for node in list(iter_postorder(root)):
        if isinstance(node, Text) and not node.text and node.parent is not None:
            node.detach()


def _inside_pre(node: Node) -> bool:
    return any(ancestor.tag == "pre" for ancestor in node.ancestors())
