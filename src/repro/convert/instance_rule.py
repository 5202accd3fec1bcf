"""The concept instance rule (Section 2.3.1, text rule 2).

For each token produced by the tokenization rule:

* **Case 1** -- an instance is identified: the token is replaced by
  ``<C val="text"/>`` where ``C`` is the concept's element name.  When
  *several* instances are found in one token (delimiters were missing or
  inconsistent), the token is decomposed: each identified instance claims
  the text from its position up to the next instance's position, and the
  text before the first instance is passed to the parent's ``val``.
  Sibling constraints, when available, veto decompositions that would put
  forbidden concept pairs next to each other.
* **Case 2** -- no instance is identified: the token node is deleted and
  its text is passed to the parent's ``val`` ("child nodes detail
  information represented by parent nodes at a lower level of
  abstraction"; no text is ever lost).

The rule is one document-order sweep over the tokenization rule's
:class:`~repro.convert.tokenize_rule.TokenPlan` that rebuilds each
parent's child list once (DESIGN.md section 4k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.concepts.bayes import MultinomialNaiveBayes
from repro.concepts.fastmatch import CachedBayes, FastSynonymMatcher
from repro.concepts.knowledge import KnowledgeBase
from repro.concepts.matcher import InstanceMatch, SynonymMatcher

# Either matcher implementation satisfies the rule's contract; the fast
# variant is differentially guaranteed to produce the same match lists.
Matcher = SynonymMatcher | FastSynonymMatcher
Classifier = MultinomialNaiveBayes | CachedBayes
from repro.convert.config import ConversionConfig
from repro.convert.tokenize_rule import TOKEN_TAG, TokenPlan
from repro.dom.node import Element, Node
from repro.obs.provenance import ProvenanceLog, node_label_path

# Bayes margin is +inf when only one class is trained; clamp so the
# provenance JSON stays strictly valid (json.dumps(inf) is not JSON).
_MAX_CONFIDENCE = 1e6


@dataclass
class InstanceRuleStats:
    """Bookkeeping for the user-feedback loop of Section 2.3.1.

    ``identified``/``unidentified`` count tokens; their ratio is the
    signal the paper suggests showing the user ("provide more training
    data ... or associate more concept instances with concepts").
    """

    identified: int = 0
    unidentified: int = 0
    split_tokens: int = 0
    elements_created: int = 0
    by_concept: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.identified + self.unidentified

    @property
    def unidentified_ratio(self) -> float:
        """Fraction of tokens no concept instance was found in."""
        return self.unidentified / self.total if self.total else 0.0

    def _count(self, tag: str) -> None:
        self.by_concept[tag] = self.by_concept.get(tag, 0) + 1


def apply_instance_rule(
    plan: TokenPlan,
    kb: KnowledgeBase,
    config: ConversionConfig | None = None,
    *,
    matcher: Matcher | None = None,
    bayes: Classifier | None = None,
    doc_id: str | None = None,
    provenance: ProvenanceLog | None = None,
) -> InstanceRuleStats:
    """Resolve every token of ``plan`` into concept elements.

    ``matcher`` defaults to a fresh :class:`FastSynonymMatcher` automaton
    over ``kb``.  With ``config.tagger`` in ``("bayes", "hybrid")`` a
    trained ``bayes`` classifier must be supplied.  With a ``provenance``
    log every token decision is recorded as a ``concept`` event keyed by
    ``doc_id`` and the token's label path *before* the rewrite.
    """
    config = config or ConversionConfig()
    if config.tagger in ("bayes", "hybrid") and (bayes is None or not bayes.is_trained()):
        raise ValueError(f"tagger {config.tagger!r} requires a trained Bayes classifier")
    if matcher is None:
        matcher = FastSynonymMatcher(kb)
    stats = InstanceRuleStats()
    resolver = _Resolver(kb, config, matcher, bayes, stats, doc_id, provenance)
    planned, root, tracked = plan.children, plan.root, provenance is not None
    # Frames: (element, its remaining planned children, its rebuilt child
    # list, its label path).  A parent's later tokens wait while the sweep
    # descends, so tokens resolve in document order.  The rebuilt list
    # holds only elements, so its length is the next child's index.
    root_path = node_label_path(root) if tracked else ""
    stack: list[tuple[Element, Iterator[Node | str], list[Node], str]] = [
        (root, iter(planned.get(root, root.children)), [], root_path)
    ]
    while stack:
        element, items, rebuilt, path = stack[-1]
        for item in items:
            if isinstance(item, str):
                token_path = f"{path}/{TOKEN_TAG}[{len(rebuilt)}]" if tracked else ""
                resolver.resolve(item, element, rebuilt, token_path)
                continue
            rebuilt.append(item)
            if isinstance(item, Element) and item.children:
                child_path = f"{path}/{item.tag}[{len(rebuilt) - 1}]" if tracked else ""
                stack.append((item, iter(planned.get(item, item.children)), [], child_path))
                break
        else:
            stack.pop()
            element.children = rebuilt
    return stats


def _match_confidence(matched: str, text: str) -> float:
    """Synonym-decision confidence: fraction of the token text matched."""
    return len(matched) / len(text) if text else 0.0


@dataclass
class _Resolver:
    """One document's token decisions: concept elements go to the
    parent's rebuilt child list, unidentified text to the parent's
    ``val``."""

    kb: KnowledgeBase
    config: ConversionConfig
    matcher: Matcher
    bayes: Classifier | None
    stats: InstanceRuleStats
    doc_id: str | None
    provenance: ProvenanceLog | None

    def record(self, path: str, decision: str, **fields: object) -> None:
        """One provenance ``concept`` event; callers that compute a
        confidence skip the call when provenance is off."""
        if self.provenance is not None:
            self.provenance.concept_event(self.doc_id, path, decision, **fields)

    def emit(self, parent: Element, out: list[Node], tag: str, val: str) -> None:
        element = Element(tag)
        element.set_val(val)
        element.parent = parent
        out.append(element)
        self.stats.elements_created += 1
        self.stats._count(tag)

    def resolve(self, text: str, parent: Element, out: list[Node], path: str) -> None:
        config, stats = self.config, self.stats
        if len(text) < config.min_token_length:
            parent.append_val(text)
            self.record(path, "unlabeled", text=text, reason="short")
            return

        matches: list[InstanceMatch] = []
        if config.tagger in ("synonym", "hybrid"):
            matches = self.matcher.find_all(text)
        if not matches and config.tagger in ("bayes", "hybrid") and self.bayes is not None:
            label, margin = self.bayes.predict(text)
            if label is not None:
                self.emit(parent, out, label, text)
                stats.identified += 1
                if self.provenance is not None:
                    confidence = min(margin, _MAX_CONFIDENCE)
                    self.record(path, "bayes", concept=label, confidence=confidence, text=text)
                return

        if not matches:
            # Case 2: unidentified -- text passes to the parent.
            parent.append_val(text)
            stats.unidentified += 1
            self.record(path, "unlabeled", text=text)
            return

        if len(matches) > 1 and config.split_multi_instance_tokens:
            matches = self.decompose(matches, text)
            if len(matches) > 1:
                # Text before the first identified instance goes to the parent.
                parent.append_val(text[: matches[0].start].strip())
                for i, match in enumerate(matches):
                    end = matches[i + 1].start if i + 1 < len(matches) else len(text)
                    segment = text[match.start : end].strip()
                    self.emit(parent, out, match.concept_tag, segment)
                    if self.provenance is not None:
                        self.record(
                            path,
                            "synonym",
                            concept=match.concept_tag,
                            confidence=_match_confidence(match.matched_text, text),
                            text=segment,
                            matched=match.matched_text,
                            split=True,
                        )
                stats.identified += 1
                stats.split_tokens += 1
                return
        best = matches[0]
        if len(matches) > 1:
            best = max(matches, key=lambda m: (m.specificity, -m.start))
        self.emit(parent, out, best.concept_tag, text)
        stats.identified += 1
        if self.provenance is not None:
            self.record(
                path,
                "synonym",
                concept=best.concept_tag,
                confidence=_match_confidence(best.matched_text, text),
                text=text,
                matched=best.matched_text,
            )

    def decompose(self, matches: list[InstanceMatch], text: str) -> list[InstanceMatch]:
        """Case 1 with several instances: the instances the token splits into.

        Consecutive matches whose concepts may not be siblings (per the
        constraint set) are reduced by dropping the less specific match, so
        its text stays attached to the surviving neighbour -- this is the
        "concept constraints describing typical sibling relationships can be
        employed in order to determine a proper decomposition" refinement.
        """
        kept: list[InstanceMatch] = []
        for match in _merge_connected(matches, text, self.config):
            if (
                self.config.use_sibling_constraints
                and kept
                and not self.kb.constraints.allows_sibling_pair(
                    kept[-1].concept_tag, match.concept_tag
                )
            ):
                if match.specificity > kept[-1].specificity:
                    kept[-1] = match
                continue
            kept.append(match)
        return kept


def _merge_connected(
    matches: list[InstanceMatch], text: str, config: ConversionConfig
) -> list[InstanceMatch]:
    """Merge consecutive matches joined only by connector words.

    "University of California at Davis" yields instance matches for
    ``University`` (institution), ``California`` and ``Davis`` (location);
    the gaps are pure connectors, so the whole phrase is one named entity
    and is claimed by the leftmost match's concept.
    """
    if not config.merge_connectors or len(matches) < 2:
        return matches
    merged = [matches[0]]
    for match in matches[1:]:
        gap = text[merged[-1].end : match.start]
        gap_words = gap.replace(",", " ").split()
        if gap_words and all(
            word.lower() in config.merge_connectors for word in gap_words
        ):
            previous = merged[-1]
            merged[-1] = InstanceMatch(
                previous.concept_tag,
                previous.start,
                match.end,
                text[previous.start : match.end],
            )
        else:
            merged.append(match)
    return merged
