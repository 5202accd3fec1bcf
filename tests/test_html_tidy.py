"""Tests for the Tidy-style cleanser and its oracle.

Every behavioral test runs twice -- once through the single-snapshot
cleanser ("fast") and once through the six-traversal oracle in
tests/oracles/htmlparse.py ("legacy") -- so a fix that lands in only
one implementation fails loudly here before the differential suites
ever see it.
"""

import pytest

from repro.dom.node import Element, Text
from repro.htmlparse.parser import body_of, parse_html
from repro.htmlparse.tidy import tidy
from tests.oracles import htmlparse as oracle


@pytest.fixture(params=[True, False], ids=["fast", "legacy"])
def fast(request):
    return request.param


def cleanser(fast):
    return tidy if fast else oracle.tidy


def tidied(source, fast=True):
    doc = parse_html(source)
    cleanser(fast)(doc)
    return body_of(doc)


def tags(element):
    return [c.tag for c in element.element_children()]


class TestHeadingRepair:
    def test_block_moved_out_of_heading(self, fast):
        b = tidied("<h2>Title<p>para</p></h2>", fast)
        assert tags(b) == ["h2", "p"]

    def test_nested_heading_moved_out(self, fast):
        b = tidied("<h1>Big<h2>Small</h2></h1>", fast)
        assert tags(b) == ["h1", "h2"]

    def test_inline_stays_inside_heading(self, fast):
        b = tidied("<h2><b>Bold title</b></h2>", fast)
        h2 = b.element_children()[0]
        assert tags(h2) == ["b"]


class TestOrphanWrapping:
    def test_orphan_li_wrapped_in_ul(self, fast):
        b = tidied("<div><li>a</li><li>b</li></div>", fast)
        div = b.element_children()[0]
        assert tags(div) == ["ul"]
        assert len(div.element_children()[0].element_children()) == 2

    def test_orphan_dt_dd_wrapped_in_dl(self, fast):
        b = tidied("<div><dt>t</dt><dd>d</dd></div>", fast)
        div = b.element_children()[0]
        assert tags(div) == ["dl"]

    def test_orphan_tr_wrapped_in_table(self, fast):
        b = tidied("<div><tr><td>x</td></tr></div>", fast)
        div = b.element_children()[0]
        assert tags(div) == ["table"]

    def test_li_inside_ul_untouched(self, fast):
        b = tidied("<ul><li>a</li></ul>", fast)
        ul = b.element_children()[0]
        assert tags(ul) == ["li"]

    def test_separate_runs_get_separate_wrappers(self, fast):
        b = tidied("<div><li>a</li><p>x</p><li>b</li></div>", fast)
        div = b.element_children()[0]
        assert tags(div) == ["ul", "p", "ul"]


class TestInlineCleanup:
    def test_empty_inline_removed(self, fast):
        b = tidied("<p><b></b>text</p>", fast)
        p = b.element_children()[0]
        assert tags(p) == []

    def test_doubled_bold_collapsed(self, fast):
        b = tidied("<p><b><b>x</b></b></p>", fast)
        p = b.element_children()[0]
        assert tags(p) == ["b"]
        assert tags(p.element_children()[0]) == []

    def test_nonempty_inline_kept(self, fast):
        b = tidied("<p><b>x</b></p>", fast)
        assert tags(b.element_children()[0]) == ["b"]


class TestWhitespace:
    def test_runs_collapsed(self, fast):
        b = tidied("<p>a   b\n\t c</p>", fast)
        p = b.element_children()[0]
        assert p.text_children()[0].text == "a b c"

    def test_pre_preserved(self, fast):
        b = tidied("<pre>a   b</pre>", fast)
        pre = b.element_children()[0]
        assert pre.text_children()[0].text == "a   b"

    def test_tidy_returns_root(self, fast):
        doc = parse_html("<p>x</p>")
        assert cleanser(fast)(doc) is doc


class TestIdempotence:
    def test_double_tidy_stable(self, fast):
        from repro.dom.treeops import deep_equal, clone

        doc = parse_html("<h2>T<p>p</p></h2><div><li>a<li>b</div><p><b><b>x</b></b></p>")
        cleanser(fast)(doc)
        snapshot = clone(doc)
        cleanser(fast)(doc)
        assert deep_equal(doc, snapshot)
