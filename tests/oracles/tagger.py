"""The naive tagger: the reference the Aho-Corasick tagger is held to.

:class:`~repro.convert.pipeline.DocumentConverter` always tags through
:class:`~repro.concepts.fastmatch.FastSynonymMatcher` and
:class:`~repro.concepts.fastmatch.CachedBayes`.  :func:`naive_tagger`
gives a converter the per-pattern :class:`SynonymMatcher` and the raw,
uncached classifier instead; :func:`serial_baseline` converts a corpus
one document at a time in this process and discovers its DTD, so the
product engine at any worker count can be compared against it.
``tests/test_fast_tagger_differential.py`` and the ``naive-tagger``
case of ``tests/test_rule_sweeps_differential.py`` use both.
"""

from __future__ import annotations

from repro.concepts.matcher import SynonymMatcher
from repro.convert.pipeline import DocumentConverter
from repro.runtime.engine import CorpusEngine
from repro.schema.accumulator import PathAccumulator
from repro.schema.paths import extract_paths


def naive_tagger(converter: DocumentConverter) -> DocumentConverter:
    """Swap ``converter``'s tagger for the naive one, in place."""
    converter._matcher = SynonymMatcher(converter.kb)
    converter._tagger_bayes = converter.bayes
    return converter


def serial_baseline(
    converter: DocumentConverter, sources: list[str]
) -> tuple[list[str], str]:
    """XML per document and the rendered DTD of the corpus, converted
    serially by ``converter``."""
    xml: list[str] = []
    accumulator = PathAccumulator()
    for source in sources:
        result = converter.convert(source)
        xml.append(result.to_xml())
        accumulator.add(extract_paths(result.root))
    engine = CorpusEngine(converter.kb, converter.config, bayes=converter.bayes)
    return xml, engine.discover(accumulator).dtd.render()
