"""Differential wall: the one-sweep rules equal the per-node rules.

``repro.convert`` runs each of the paper's four rules (Section 2.3) as
one sweep that rebuilds each parent's child list once, with no
``<TOKEN>`` elements.  ``tests/oracles/rules.py`` keeps the per-node
rules they replaced.  For every document, under every configuration
that changes what a rule does, both must produce:

* the same XML bytes;
* the same ``tokens_created`` / ``groups_created`` / ``nodes_eliminated``;
* the same :class:`InstanceRuleStats`, ``by_concept`` insertion order
  included;
* the same provenance events in the same order, each concept decision
  at the same ``.../TOKEN[i]`` label path (taken before the rewrite, so
  the index shifts as earlier tokens of the parent resolve).

Inputs are the resume corpus (clean and malformed) and hypothesis tag
soup; ``split_topic_sentence`` gets its own hypothesis differential on
arbitrary Unicode.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concepts.bayes import MultinomialNaiveBayes
from repro.convert.config import ConversionConfig
from repro.convert.pipeline import DocumentConverter
from repro.convert.tokenize_rule import split_topic_sentence
from repro.corpus.generator import ResumeCorpusGenerator
from repro.corpus.noise import NoiseConfig
from repro.dom.treeops import iter_elements
from repro.obs.provenance import ProvenanceLog
from tests.oracles import rules as oracle
from tests.oracles.tagger import naive_tagger

CONFIGS = {
    "default": {},
    "naive-tagger": {},
    "no-split": {"split_multi_instance_tokens": False},
    "no-sibling-constraints": {"use_sibling_constraints": False},
    "min-token-length-4": {"min_token_length": 4},
    "custom-delimiters": {"delimiters": (";", "/", "(", ".")},
    "min-group-leaders-3": {"min_group_leaders": 3},
    "no-tidy": {"apply_tidy": False},
}
TAGGERS = ("synonym", "bayes", "hybrid")


@pytest.fixture(scope="module")
def bayes():
    """A classifier trained on ground-truth token labels of a corpus
    slice that the differential documents do not come from."""
    pairs = [
        (element.get_val(), element.tag)
        for doc in ResumeCorpusGenerator(seed=77).generate(20, start_id=1000)
        for element in iter_elements(doc.ground_truth)
        if element.get_val() and element.tag != "RESUME"
    ]
    return MultinomialNaiveBayes().fit(pairs)


def _outcome(result, provenance: ProvenanceLog) -> dict:
    events = [
        {key: value for key, value in event.items() if key != "seconds"}
        for event in provenance.events
    ]
    stats = result.instance_stats
    return {
        "xml": result.to_xml(),
        "counts": (result.tokens_created, result.groups_created, result.nodes_eliminated),
        "stats": (
            stats.identified,
            stats.unidentified,
            stats.split_tokens,
            stats.elements_created,
            list(stats.by_concept.items()),
        ),
        "events": events,
    }


def assert_sweeps_match_oracle(kb, config, sources, bayes=None, *, naive=False):
    """With ``naive`` the oracle rules tag through the naive tagger."""
    product = DocumentConverter(kb, config, bayes=bayes)
    reference = DocumentConverter(kb, config, bayes=bayes)
    if naive:
        naive_tagger(reference)
    for position, source in enumerate(sources):
        doc_id = f"doc{position:04d}"
        swept_log, oracle_log = ProvenanceLog(), ProvenanceLog()
        swept = product.convert(source, doc_id=doc_id, provenance=swept_log)
        expected = oracle.convert_with_oracle_rules(
            reference, source, doc_id=doc_id, provenance=oracle_log
        )
        assert _outcome(swept, swept_log) == _outcome(expected, oracle_log), doc_id


def resume_sources(seed: int, count: int) -> list[str]:
    """``count`` resumes of ``seed``, every other one malformed."""
    clean = ResumeCorpusGenerator(seed=seed).generate(count)
    noisy = ResumeCorpusGenerator(seed=seed, noise=NoiseConfig(rate=0.6)).generate(count)
    return [
        (noisy if position % 2 else clean)[position].html for position in range(count)
    ]


class TestResumeCorpus:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_configurations(self, kb, name):
        config = ConversionConfig(**CONFIGS[name])
        assert_sweeps_match_oracle(
            kb, config, resume_sources(1966, 24), naive=name == "naive-tagger"
        )

    @pytest.mark.parametrize("tagger", TAGGERS)
    def test_taggers(self, kb, bayes, tagger):
        config = ConversionConfig(tagger=tagger)
        assert_sweeps_match_oracle(kb, config, resume_sources(3, 24), bayes=bayes)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1966, 3, 7, 11])
    def test_four_hundred_documents(self, kb, seed):
        assert_sweeps_match_oracle(kb, ConversionConfig(), resume_sources(seed, 400))


# ---------------------------------------------------------------------------
# tag soup
#
# Repeated group tags at several levels (grouping), list and inline
# markup (consolidation's push-up and first-concept cases), and text
# that mixes concept keywords, connectors, numbers and delimiters
# (tokenization, multi-instance splits, sibling vetoes).

soup_tags = st.sampled_from(
    ["h1", "h2", "h3", "p", "div", "b", "i", "u", "em", "strong", "font",
     "ul", "ol", "li", "dl", "dt", "dd", "table", "tr", "td", "title", "br", "span"]
)
soup_words = st.sampled_from(
    ["University", "of", "California", "at", "Davis", "B.S.", "M.S.", "Ph.D.",
     "June 1996", "1999", "GPA 3.8/4.0", "Java", "C++", "Unix", "Education",
     "Experience", "Skills", "Stanford", "Engineer", "http://x.org", "10,000",
     "10:30", "x", "  ", "\n", "²", "٣"]
)
soup_punctuation = st.sampled_from([",", ";", ":", " ", ", ", "; ", "/", "(", ")"])


@st.composite
def soup_pieces(draw):
    """A deliberately unbalanced fragment: text, an open or a close tag."""
    kind = draw(st.integers(0, 9))
    if kind <= 4:
        words = draw(st.lists(st.tuples(soup_words, soup_punctuation), max_size=5))
        return "".join(word + mark for word, mark in words)
    name = draw(soup_tags)
    return f"</{name}>" if kind <= 6 else f"<{name}>"


soup = st.lists(soup_pieces(), max_size=30).map(lambda pieces: "<body>" + "".join(pieces))


class TestTagSoup:
    @settings(max_examples=150, deadline=None)
    @given(source=soup, name=st.sampled_from(sorted(CONFIGS)))
    def test_configurations(self, kb, source, name):
        assert_sweeps_match_oracle(
            kb, ConversionConfig(**CONFIGS[name]), [source], naive=name == "naive-tagger"
        )

    @settings(max_examples=60, deadline=None)
    @given(source=soup, tagger=st.sampled_from(TAGGERS))
    def test_taggers(self, kb, bayes, source, tagger):
        config = ConversionConfig(tagger=tagger)
        assert_sweeps_match_oracle(kb, config, [source], bayes=bayes)


# ---------------------------------------------------------------------------
# split_topic_sentence

delimiter_sets = st.sampled_from(
    [(";", ",", ":"), (":",), ("|", ","), ("-", "."), ("²",), (";", ",", ":", "/")]
)
# Non-ASCII digits (``²`` is ``str.isdigit`` but not ``\d``; ``٣`` is
# both) beside delimiters, ``://`` and whitespace of every flavour.
edge_text = st.lists(
    st.sampled_from(
        ["1", "9", "²", "٣", ",", ";", ":", "//", "://", "/", "|", "-", ".",
         " ", "\t", "\u00a0", "\u2028", "a", "é", "ß"]
    )
    | st.text(max_size=3),
    max_size=16,
).map("".join)


class TestSplitTopicSentence:
    @settings(max_examples=800, deadline=None)
    @given(text=st.text(), delimiters=delimiter_sets)
    def test_arbitrary_unicode(self, text, delimiters):
        assert split_topic_sentence(text, delimiters) == oracle.split_topic_sentence(
            text, delimiters
        )

    @settings(max_examples=800, deadline=None)
    @given(body=edge_text, lead=st.sampled_from(["", ",", ":", "://", "²,", ";٣"]),
           tail=st.sampled_from(["", ",", ":", "://", ",²", "٣;", ":/"]),
           delimiters=delimiter_sets)
    def test_delimiters_and_guards_at_the_edges(self, body, lead, tail, delimiters):
        text = lead + body + tail
        assert split_topic_sentence(text, delimiters) == oracle.split_topic_sentence(
            text, delimiters
        )

    @pytest.mark.parametrize(
        "text",
        ["²,٣", "1,²", "²:٣", ",1,", ":1:", "http://", "://", "a:/", ":", "1,", ",1"],
    )
    def test_guard_cases(self, text):
        delimiters = (";", ",", ":")
        assert split_topic_sentence(text, delimiters) == oracle.split_topic_sentence(
            text, delimiters
        )
