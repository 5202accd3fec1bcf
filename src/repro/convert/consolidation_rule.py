"""The consolidation rule (Section 2.3.2, structure rule 2).

The final, bottom-up rule.  It eliminates every remaining non-concept
node (residual HTML markup and temporary ``GROUP`` nodes), exploiting the
observation that "often the first object in such a group of semantically
related objects describes the concept of this group":

* a childless non-concept node is deleted;
* a non-concept node whose tag is a *list tag*, or whose children all
  carry the same element name, is replaced by its children (the sibling
  relationship is preserved by "pushing up" the children);
* otherwise the node is replaced by its first concept child, and the
  remaining children become that child's children (Figure 1).

Accumulated ``val`` text on an eliminated node is never dropped: it moves
to the node's replacement (first concept child) or to its parent.

The rule is one bottom-up sweep in which each element eliminates its
non-concept element children in order, rebuilding its child list once
(DESIGN.md section 4k says why this equals the per-node postorder).
"""

from __future__ import annotations

from repro.concepts.knowledge import KnowledgeBase
from repro.convert.config import ConversionConfig
from repro.dom.node import Element, Node


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
    # Every element with children, after all of its descendants (reversed
    # preorder); a leaf has nothing to eliminate below it.
    order: list[Element] = []
    stack: list[Element] = [root]
    while stack:
        element = stack.pop()
        order.append(element)
        stack.extend(c for c in element.children if isinstance(c, Element) and c.children)
    eliminated = 0
    for element in reversed(order):
        rebuilt: list[Node] = []
        for child in element.children:
            if isinstance(child, Element) and child.tag not in concept_tags:
                _eliminate(child, element, rebuilt, concept_tags, config)
                eliminated += 1
            else:
                rebuilt.append(child)
        element.children = rebuilt
    return eliminated


def _children_push_up(node: Element, children: list[Node], config: ConversionConfig) -> bool:
    """Whether ``node``'s ``children`` stay siblings when ``node`` goes
    away: a list tag, or >= 2 children all elements of one name."""
    if node.tag.lower() in config.list_tags:
        return True
    if len(children) >= 2 and isinstance(children[0], Element):
        first_tag = children[0].tag
        return all(isinstance(c, Element) and c.tag == first_tag for c in children)
    return False


def _eliminate(
    node: Element,
    parent: Element,
    out: list[Node],
    concept_tags: set[str],
    config: ConversionConfig,
) -> None:
    """Eliminate ``node``, a child of ``parent``; what replaces it goes
    to ``out``, the parent's rebuilt child list."""
    # Every child gets a new parent below; the node itself is dropped.
    children, node.children = node.children, []
    first_concept: Element | None = None
    if children and not _children_push_up(node, children, config):
        for child in children:
            if isinstance(child, Element) and child.tag in concept_tags:
                first_concept = child
                break
    if first_concept is None:
        # Childless markup carries no structure, and without a concept
        # child to take over the siblings are preserved; either way the
        # node's text (if any) must survive on the parent.
        parent.append_val(node.get_val())
        for child in children:
            child.parent = parent
        out.extend(children)
        return
    # The first concept child replaces the node; its former siblings
    # become its children (Figure 1).
    first_concept.append_val(node.get_val())
    first_concept.parent = parent
    out.append(first_concept)
    first_concept.adopt_all(c for c in children if c is not first_concept)
