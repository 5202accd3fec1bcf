"""Tests for the tokenization rule (Section 2.3.1)."""

from repro.convert.config import ConversionConfig
from repro.dom.node import Element, Text
from tests.oracles.rules import (
    TOKEN_TAG,
    apply_tokenization_rule,
    split_topic_sentence,
    token_text,
)

DELIMS = (";", ",", ":")


class TestSplitTopicSentence:
    def test_paper_example(self):
        """The topic sentence from Section 2.3.1."""
        text = (
            "University of California at Davis, B.S.(Computer Science), "
            "June 1996, GPA 3.8/4.0"
        )
        tokens = split_topic_sentence(text, DELIMS)
        assert tokens == [
            "University of California at Davis",
            "B.S.(Computer Science)",
            "June 1996",
            "GPA 3.8/4.0",
        ]

    def test_no_delimiters_single_token(self):
        assert split_topic_sentence("just one phrase", DELIMS) == ["just one phrase"]

    def test_empty_fragments_dropped(self):
        assert split_topic_sentence("a,,b, ,c", DELIMS) == ["a", "b", "c"]

    def test_whitespace_squeezed(self):
        assert split_topic_sentence("a  b ,  c", DELIMS) == ["a b", "c"]

    def test_comma_inside_number_protected(self):
        assert split_topic_sentence("salary 10,000 dollars", DELIMS) == [
            "salary 10,000 dollars"
        ]

    def test_colon_in_url_protected(self):
        assert split_topic_sentence("http://x.org/page", DELIMS) == [
            "http://x.org/page"
        ]

    def test_colon_in_time_protected(self):
        assert split_topic_sentence("at 10:30 sharp", DELIMS) == ["at 10:30 sharp"]

    def test_semicolon_splits(self):
        assert split_topic_sentence("one; two", DELIMS) == ["one", "two"]

    def test_pure_punctuation_yields_nothing(self):
        assert split_topic_sentence(" ;,; ", DELIMS) == []


class TestApplyRule:
    def test_text_replaced_by_token_elements(self):
        root = Element("li")
        root.append_child(Text("UC Davis, B.S., 1996"))
        created = apply_tokenization_rule(root)
        assert created == 3
        assert [c.tag for c in root.element_children()] == [TOKEN_TAG] * 3
        assert token_text(root.element_children()[0]) == "UC Davis"

    def test_empty_text_removed(self):
        root = Element("li")
        root.append_child(Text(" ; "))
        apply_tokenization_rule(root)
        assert root.children == []

    def test_recurses_into_subtree(self):
        root = Element("div")
        p = root.append_child(Element("p"))
        p.append_child(Text("a, b"))
        root.append_child(Text("c"))
        created = apply_tokenization_rule(root)
        assert created == 3

    def test_custom_delimiters(self):
        config = ConversionConfig(delimiters=("|",))
        root = Element("li")
        root.append_child(Text("a|b, still one"))
        apply_tokenization_rule(root, config)
        texts = [token_text(t) for t in root.element_children()]
        assert texts == ["a", "b, still one"]

    def test_token_order_preserved(self):
        root = Element("li")
        root.append_child(Text("first, second, third"))
        apply_tokenization_rule(root)
        assert [token_text(t) for t in root.element_children()] == [
            "first",
            "second",
            "third",
        ]
