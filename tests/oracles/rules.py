"""Frozen copy of the four conversion rules as they were before the
one-sweep rewrite (Section 2.3): the differential oracle for
:mod:`repro.convert`.

Each rule here is the literal per-node form of the paper's rewrite:
tokenization materializes ``<TOKEN>`` elements, the instance rule
replaces them one by one, grouping is a breadth-first walk, and
consolidation eliminates one node at a time over a postorder snapshot.
``squeeze_whitespace`` is frozen here in its regex form as well.
``tests/test_rule_sweeps_differential.py`` holds the product sweeps to
these functions byte for byte; the rule unit tests run against them.
Do not edit this module to follow a change in ``src/``: a difference is
a finding about the sweeps.
"""

from __future__ import annotations

import re

from repro.concepts.bayes import MultinomialNaiveBayes
from repro.concepts.fastmatch import CachedBayes, FastSynonymMatcher
from repro.concepts.knowledge import KnowledgeBase
from repro.concepts.matcher import InstanceMatch, SynonymMatcher
from repro.convert.config import ConversionConfig
from repro.convert.instance_rule import InstanceRuleStats
from repro.convert.pipeline import ConversionResult, DocumentConverter
from repro.dom.node import Element, Node, Text
from repro.dom.treeops import iter_postorder, iter_preorder, tree_size
from repro.htmlparse.parser import parse_html
from repro.htmlparse.tidy import tidy
from repro.obs.provenance import ProvenanceLog, node_label_path

Matcher = SynonymMatcher | FastSynonymMatcher
Classifier = MultinomialNaiveBayes | CachedBayes


# -- tokenization rule (Section 2.3.1, text rule 1) ---------------------------


def squeeze_whitespace(text: str) -> str:
    """Collapse whitespace runs to single spaces and trim."""
    return re.sub(r"\s+", " ", text).strip()


TOKEN_TAG = "TOKEN"


def split_topic_sentence(text: str, delimiters: tuple[str, ...]) -> list[str]:
    """Split a topic sentence into token texts at delimiter characters.

    Delimiters inside numbers are protected: the comma in ``10,000`` and
    the colon in ``10:30`` do not separate information components, and
    naive splitting there would shred dates and GPAs.  Empty fragments are
    dropped; whitespace is squeezed.
    """
    delimiter_set = set(delimiters)
    pieces: list[str] = []
    current: list[str] = []
    for index, char in enumerate(text):
        if char in delimiter_set:
            prev_char = text[index - 1] if index > 0 else ""
            next_char = text[index + 1] if index + 1 < len(text) else ""
            if prev_char.isdigit() and next_char.isdigit():
                current.append(char)
                continue
            if char == ":" and text[index + 1 : index + 3] == "//":
                # URL scheme separator ("http://..."), not a delimiter.
                current.append(char)
                continue
            pieces.append("".join(current))
            current = []
        else:
            current.append(char)
    pieces.append("".join(current))
    tokens = [squeeze_whitespace(piece) for piece in pieces]
    return [token for token in tokens if token]


def apply_tokenization_rule(
    root: Element, config: ConversionConfig | None = None
) -> int:
    """Replace every text node under ``root`` by ``<TOKEN>`` elements.

    Operates top-down over the whole tree; returns the number of token
    nodes created.  A text node yielding no tokens (pure punctuation or
    whitespace) is simply removed.
    """
    config = config or ConversionConfig()
    created = 0
    for node in list(iter_preorder(root)):
        if not isinstance(node, Text) or node.parent is None:
            continue
        tokens = split_topic_sentence(node.text, config.delimiters)
        replacements = []
        for token_text in tokens:
            token = Element(TOKEN_TAG)
            token.append_child(Text(token_text))
            replacements.append(token)
        node.replace_with(*replacements)
        created += len(replacements)
    return created


def token_text(token: Element) -> str:
    """The text carried by a ``<TOKEN>`` element."""
    return token.inner_text()


# -- concept instance rule (Section 2.3.1, text rule 2) ---------------------

# Bayes margin is +inf when only one class is trained; clamp so the
# provenance JSON stays strictly valid (json.dumps(inf) is not JSON).
_MAX_CONFIDENCE = 1e6


def apply_instance_rule(
    root: Element,
    kb: KnowledgeBase,
    config: ConversionConfig | None = None,
    *,
    matcher: Matcher | None = None,
    bayes: Classifier | None = None,
    doc_id: str | None = None,
    provenance: ProvenanceLog | None = None,
) -> InstanceRuleStats:
    """Resolve every ``<TOKEN>`` under ``root`` into concept elements.

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
    for node in list(iter_preorder(root)):
        if isinstance(node, Element) and node.tag == TOKEN_TAG and node.parent is not None:
            _resolve_token(node, kb, config, matcher, bayes, stats, doc_id, provenance)
    return stats


def _match_confidence(matched: str, text: str) -> float:
    """Synonym-decision confidence: fraction of the token text matched."""
    return len(matched) / len(text) if text else 0.0


def _resolve_token(
    token: Element,
    kb: KnowledgeBase,
    config: ConversionConfig,
    matcher: Matcher,
    bayes: Classifier | None,
    stats: InstanceRuleStats,
    doc_id: str | None = None,
    provenance: ProvenanceLog | None = None,
) -> None:
    parent = token.parent
    assert parent is not None
    text = token_text(token)
    # The label path must be taken while the token is still in the tree.
    node_path = node_label_path(token) if provenance is not None else ""
    if len(text) < config.min_token_length:
        parent.append_val(text)
        token.detach()
        if provenance is not None:
            provenance.concept_event(
                doc_id, node_path, "unlabeled", text=text, reason="short"
            )
        return

    matches: list[InstanceMatch] = []
    if config.tagger in ("synonym", "hybrid"):
        matches = matcher.find_all(text)
    if not matches and config.tagger in ("bayes", "hybrid") and bayes is not None:
        label, margin = bayes.predict(text)
        if label is not None:
            _emit_single(token, label, text, stats)
            if provenance is not None:
                provenance.concept_event(
                    doc_id,
                    node_path,
                    "bayes",
                    concept=label,
                    confidence=min(margin, _MAX_CONFIDENCE),
                    text=text,
                )
            return

    if not matches:
        # Case 2: unidentified -- text passes to the parent.
        parent.append_val(text)
        token.detach()
        stats.unidentified += 1
        if provenance is not None:
            provenance.concept_event(doc_id, node_path, "unlabeled", text=text)
        return

    if len(matches) == 1 or not config.split_multi_instance_tokens:
        best = max(matches, key=lambda m: (m.specificity, -m.start))
        _emit_single(token, best.concept_tag, text, stats)
        if provenance is not None:
            provenance.concept_event(
                doc_id,
                node_path,
                "synonym",
                concept=best.concept_tag,
                confidence=_match_confidence(best.matched_text, text),
                text=text,
                matched=best.matched_text,
            )
        return

    _emit_split(token, matches, text, kb, config, stats, doc_id, node_path, provenance)


def _emit_single(token: Element, tag: str, text: str, stats: InstanceRuleStats) -> None:
    element = Element(tag)
    element.set_val(text)
    token.replace_with(element)
    stats.identified += 1
    stats.elements_created += 1
    stats._count(tag)


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


def _emit_split(
    token: Element,
    matches: list[InstanceMatch],
    text: str,
    kb: KnowledgeBase,
    config: ConversionConfig,
    stats: InstanceRuleStats,
    doc_id: str | None = None,
    node_path: str = "",
    provenance: ProvenanceLog | None = None,
) -> None:
    """Case 1 with several instances: decompose the token.

    Consecutive matches whose concepts may not be siblings (per the
    constraint set) are reduced by dropping the less specific match, so
    its text stays attached to the surviving neighbour -- this is the
    "concept constraints describing typical sibling relationships can be
    employed in order to determine a proper decomposition" refinement.
    """
    parent = token.parent
    assert parent is not None
    matches = _merge_connected(matches, text, config)
    kept: list[InstanceMatch] = []
    for match in matches:
        if (
            config.use_sibling_constraints
            and kept
            and not kb.constraints.allows_sibling_pair(
                kept[-1].concept_tag, match.concept_tag
            )
        ):
            if match.specificity > kept[-1].specificity:
                kept[-1] = match
            continue
        kept.append(match)

    if len(kept) == 1:
        _emit_single(token, kept[0].concept_tag, text, stats)
        if provenance is not None:
            provenance.concept_event(
                doc_id,
                node_path,
                "synonym",
                concept=kept[0].concept_tag,
                confidence=_match_confidence(kept[0].matched_text, text),
                text=text,
                matched=kept[0].matched_text,
            )
        return

    # Text before the first identified instance goes to the parent.
    prefix = text[: kept[0].start].strip()
    if prefix:
        parent.append_val(prefix)

    elements: list[Element] = []
    for i, match in enumerate(kept):
        end = kept[i + 1].start if i + 1 < len(kept) else len(text)
        segment = text[match.start : end].strip()
        element = Element(match.concept_tag)
        element.set_val(segment)
        elements.append(element)
        stats.elements_created += 1
        stats._count(match.concept_tag)
        if provenance is not None:
            provenance.concept_event(
                doc_id,
                node_path,
                "synonym",
                concept=match.concept_tag,
                confidence=_match_confidence(match.matched_text, text),
                text=segment,
                matched=match.matched_text,
                split=True,
            )
    token.replace_with(*elements)
    stats.identified += 1
    stats.split_tokens += 1


# -- grouping rule (Section 2.3.2, structure rule 1) -------------------------

GROUP_TAG = "GROUP"


def apply_grouping_rule(root: Element, config: ConversionConfig | None = None) -> int:
    """Apply the grouping rule top-down under ``root``.

    Returns the number of ``GROUP`` nodes created.  Newly created groups
    are themselves visited (their contents may contain lower-priority
    group tags), so repeated markup at every level of abstraction sinks
    into a logical nesting.
    """
    config = config or ConversionConfig()
    created = 0
    queue: list[Element] = [root]
    while queue:
        element = queue.pop(0)
        created += _group_children(element, config)
        queue.extend(element.element_children())
    return created


def _leader_tag(element: Element, config: ConversionConfig) -> str | None:
    """The highest-weight group tag occurring >= 2 times among children.

    A single occurrence gives no evidence of sectioning, so it never
    drives grouping -- this keeps e.g. a lone ``<p>`` from swallowing the
    rest of the document.
    """
    counts: dict[str, int] = {}
    for child in element.element_children():
        if child.tag in config.group_tag_weights:
            counts[child.tag] = counts.get(child.tag, 0) + 1
    candidates = [
        tag for tag, count in counts.items() if count >= config.min_group_leaders
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda tag: config.group_tag_weights[tag])


def _group_children(element: Element, config: ConversionConfig) -> int:
    tag = _leader_tag(element, config)
    if tag is None:
        return 0
    created = 0
    children = list(element.children)
    leaders = [
        child for child in children if isinstance(child, Element) and child.tag == tag
    ]
    # Partition the siblings after each leader (up to the next leader).
    leader_ids = {id(leader) for leader in leaders}
    current_leader: Element | None = None
    buckets: dict[int, list[Node]] = {id(leader): [] for leader in leaders}
    for child in children:
        if id(child) in leader_ids:
            current_leader = child  # type: ignore[assignment]
        elif current_leader is not None:
            buckets[id(current_leader)].append(child)
        # Siblings left of the first leader stay where they are.
    for leader in leaders:
        members = buckets[id(leader)]
        if not members:
            continue
        group = Element(GROUP_TAG)
        for member in members:
            group.append_child(member)
        leader.append_child(group)
        created += 1
    return created


def is_group(node: Node) -> bool:
    """True for temporary ``GROUP`` nodes."""
    return isinstance(node, Element) and node.tag == GROUP_TAG


# -- consolidation rule (Section 2.3.2, structure rule 2) --------------------

def is_concept_node(node: Node, concept_tags: frozenset[str] | set[str]) -> bool:
    """True when ``node`` is an element already related to a concept."""
    return isinstance(node, Element) and node.tag in concept_tags


def apply_consolidation_rule(
    root: Element,
    kb: KnowledgeBase,
    config: ConversionConfig | None = None,
) -> int:
    """Consolidate the tree under ``root`` (the root itself is kept).

    Returns the number of nodes eliminated.  After this rule, every
    element strictly below ``root`` carries a concept name.
    """
    config = config or ConversionConfig()
    concept_tags = {concept.tag for concept in kb}
    eliminated = 0
    for node in list(iter_postorder(root)):
        if node is root or not isinstance(node, Element) or node.parent is None:
            continue
        if node.tag in concept_tags:
            continue
        _eliminate(node, concept_tags, config)
        eliminated += 1
    return eliminated


def _children_push_up(node: Element, config: ConversionConfig) -> bool:
    """Whether ``node``'s children stay siblings when ``node`` goes away."""
    if node.tag.lower() in config.list_tags:
        return True
    element_children = node.element_children()
    if len(element_children) >= 2 and len(element_children) == len(node.children):
        first_tag = element_children[0].tag
        return all(child.tag == first_tag for child in element_children)
    return False


def _eliminate(
    node: Element,
    concept_tags: set[str],
    config: ConversionConfig,
) -> None:
    parent = node.parent
    assert parent is not None

    if not node.children:
        # Childless markup carries no structure; its text (if any) must
        # survive on the parent.
        parent.append_val(node.get_val())
        node.detach()
        return

    children = list(node.children)
    if _children_push_up(node, config):
        parent.append_val(node.get_val())
        node.replace_with(*children)
        return

    first_concept = next(
        (child for child in children if is_concept_node(child, concept_tags)),
        None,
    )
    if first_concept is None:
        # No concept child to take over: preserve the siblings.
        parent.append_val(node.get_val())
        node.replace_with(*children)
        return

    # The first concept child replaces the node; its former siblings
    # become its children (Figure 1).
    assert isinstance(first_concept, Element)
    first_concept.append_val(node.get_val())
    rest = [child for child in children if child is not first_concept]
    node.replace_with(first_concept)
    for sibling in rest:
        first_concept.append_child(sibling)


def residual_markup_tags(root: Element, kb: KnowledgeBase) -> set[str]:
    """Tags below ``root`` that are neither concepts nor ``GROUP``.

    Diagnostic helper: after consolidation this must be empty for every
    node except the root.
    """
    concept_tags = {concept.tag for concept in kb}
    residual: set[str] = set()
    for node in iter_postorder(root):
        if (
            isinstance(node, Element)
            and node is not root
            and node.tag not in concept_tags
            and node.tag != GROUP_TAG
        ):
            residual.add(node.tag)
    return residual


# -- the pipeline with these rules ----------------------------------------------


def convert_with_oracle_rules(
    converter: DocumentConverter,
    html: str,
    *,
    doc_id: str | None = None,
    provenance: ProvenanceLog | None = None,
) -> ConversionResult:
    """``converter.convert(html)`` with the four rules above in place of
    the product sweeps: same parse, tidy, content root and rooting, same
    provenance rule events (with zero seconds)."""
    config = converter.config
    document = parse_html(html)
    input_nodes = tree_size(document)
    if config.apply_tidy:
        tidy(document)
    work_root = converter._content_root(document)
    tokens = apply_tokenization_rule(work_root, config)
    stats = apply_instance_rule(
        work_root,
        converter.kb,
        config,
        matcher=converter._matcher,
        bayes=converter._tagger_bayes,
        doc_id=doc_id,
        provenance=provenance,
    )
    groups = apply_grouping_rule(work_root, config)
    eliminated = apply_consolidation_rule(work_root, converter.kb, config)
    root = converter._rootify(work_root)
    if provenance is not None:
        provenance.rule_event(doc_id, "tokenize", 0.0, tokens_created=tokens)
        provenance.rule_event(
            doc_id,
            "instance",
            0.0,
            identified=stats.identified,
            unidentified=stats.unidentified,
            split_tokens=stats.split_tokens,
            elements_created=stats.elements_created,
        )
        provenance.rule_event(doc_id, "group", 0.0, groups_created=groups)
        provenance.rule_event(doc_id, "consolidate", 0.0, nodes_eliminated=eliminated)
    return ConversionResult(
        root,
        stats,
        tokens_created=tokens,
        groups_created=groups,
        nodes_eliminated=eliminated,
        input_nodes=input_nodes,
    )
