"""Differential tests: the parser must be byte-identical to the oracle.

Same guarantee discipline as the fast-tagger, serial-vs-parallel, and
tracing-on-vs-off harnesses: over the golden corpus (every authorship
style plus the handwritten edge cases) and a generated corpus, the
bulk-scanning tokenizer and the per-character scanner of
``tests/oracles/htmlparse.py`` (run in the product pipeline's place
under :func:`oracle_htmlparse`) must produce

* byte-identical serialized XML, document for document, and
* an identical rendered DTD from discovery over the accumulators,

at worker counts 1 (inline chunked path), 2, and 4 (process pool).
The tokenizer-level equivalence (identical token streams, spans
included) lives in test_parser_properties.py; this file proves the
guarantee survives the whole pipeline and the process boundary.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.convert.config import ConversionConfig
from repro.convert.pipeline import DocumentConverter
from repro.htmlparse.parser import parse_html
from repro.runtime.engine import CorpusEngine, EngineConfig
from tests.oracles import htmlparse as oracle
from tests.oracles.tagger import naive_tagger

GOLDEN_DIR = Path(__file__).parent / "golden"
WORKER_COUNTS = [1, 2, 4]


@pytest.fixture(scope="module")
def golden_html():
    cases = sorted(GOLDEN_DIR.glob("*.html"))
    assert cases, "golden corpus went missing"
    return [path.read_text() for path in cases]


@pytest.fixture(scope="module")
def legacy_baseline(kb, golden_html):
    """XML + DTD via the oracle tokenizer, serial."""
    converter = DocumentConverter(kb, ConversionConfig())
    engine = CorpusEngine(
        kb,
        ConversionConfig(),
        engine_config=EngineConfig(max_workers=1, chunk_size=3),
    )
    with oracle.oracle_htmlparse(cleanser=False):
        xml = [converter.convert(html).to_xml() for html in golden_html]
        corpus = engine.convert_corpus(golden_html)
    assert corpus.xml_documents == xml
    dtd = engine.discover(corpus.accumulator).dtd.render()
    return xml, dtd


def fast_engine(kb, workers: int) -> CorpusEngine:
    return CorpusEngine(
        kb,
        ConversionConfig(),
        engine_config=EngineConfig(max_workers=workers, chunk_size=3),
    )


class TestGoldenCorpusDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_xml_and_dtd_identical(self, kb, golden_html, legacy_baseline, workers):
        legacy_xml, legacy_dtd = legacy_baseline
        engine = fast_engine(kb, workers)
        corpus = engine.convert_corpus(golden_html)
        assert corpus.xml_documents == legacy_xml
        assert engine.discover(corpus.accumulator).dtd.render() == legacy_dtd

    def test_serial_converter_identical(self, kb, golden_html, legacy_baseline):
        legacy_xml, _ = legacy_baseline
        fast = DocumentConverter(kb, ConversionConfig())
        assert [fast.convert(html).to_xml() for html in golden_html] == legacy_xml


class TestGeneratedCorpusDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_generated_corpus_identical(self, kb, small_corpus, workers):
        html = [doc.html for doc in small_corpus]
        legacy = CorpusEngine(
            kb,
            ConversionConfig(),
            engine_config=EngineConfig(max_workers=1, chunk_size=4),
        )
        with oracle.oracle_htmlparse(cleanser=False):
            legacy_corpus = legacy.convert_corpus(html)
        fast = fast_engine(kb, workers)
        fast_corpus = fast.convert_corpus(html)
        assert fast_corpus.xml_documents == legacy_corpus.xml_documents
        assert (
            fast.discover(fast_corpus.accumulator).dtd.render()
            == legacy.discover(legacy_corpus.accumulator).dtd.render()
        )


class TestBothFastPathsOff:
    def test_fully_naive_pipeline_identical(self, kb, golden_html, legacy_baseline):
        """The oracle tokenizer and the naive tagger at once are still
        byte-identical (no hidden coupling between parser and tagger)."""
        legacy_xml, _ = legacy_baseline
        naive = naive_tagger(DocumentConverter(kb, ConversionConfig()))
        with oracle.oracle_htmlparse(cleanser=False):
            assert [naive.convert(html).to_xml() for html in golden_html] == legacy_xml


class TestParseTreeEquivalence:
    def test_golden_trees_identical(self, golden_html):
        """Before any conversion rule runs, the raw parse trees already
        match node for node (tags, attrs, text, order)."""

        def shape(node):
            from repro.dom.node import Element

            if isinstance(node, Element):
                return (node.tag, tuple(sorted(node.attrs.items())),
                        tuple(shape(child) for child in node.children))
            return ("#text", node.text)

        for html in golden_html:
            assert shape(parse_html(html)) == shape(oracle.parse_html(html))
