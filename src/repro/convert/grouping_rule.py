"""The grouping rule (Section 2.3.2, structure rule 1).

"Given sibling nodes N1,...,Nk in the document tree that all have the
same markup tag.  Then all sibling nodes S1,...,Sn that occur between Ni
and Ni+1 are grouped under a new node with the (temporary) label GROUP,
and this node becomes a child of node Ni.  All sibling nodes right to Nk
are grouped in the same way."

Weights on group tags order the work at each level ("grouping right
siblings of nodes marked with h1 has a higher priority than grouping
right siblings of nodes marked with p at the same level"); because each
group sinks below its leader, lower-priority tags are handled when the
rule reaches the next level down -- the rule operates top-down.

The rule is one walk that partitions each element's children into
leader buckets in one pass (DESIGN.md section 4k).
"""

from __future__ import annotations

from repro.convert.config import ConversionConfig
from repro.dom.node import Element, Node

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
    stack: list[Element] = [root]
    while stack:
        element = stack.pop()
        tag = _leader_tag(element, config)
        if tag is not None:
            created += _group_children(element, tag)
        stack.extend(c for c in element.children if isinstance(c, Element) and c.children)
    return created


def _leader_tag(element: Element, config: ConversionConfig) -> str | None:
    """The highest-weight group tag occurring >= 2 times among children.

    A single occurrence gives no evidence of sectioning, so it never
    drives grouping -- this keeps e.g. a lone ``<p>`` from swallowing the
    rest of the document.
    """
    if len(element.children) < config.min_group_leaders:
        return None
    weights = config.group_tag_weights
    counts: dict[str, int] = {}
    for child in element.children:
        if isinstance(child, Element) and child.tag in weights:
            counts[child.tag] = counts.get(child.tag, 0) + 1
    candidates = [
        tag for tag, count in counts.items() if count >= config.min_group_leaders
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda tag: weights[tag])


def _group_children(element: Element, tag: str) -> int:
    """Sink the siblings after each ``tag`` leader (up to the next
    leader) into a ``GROUP`` appended to that leader; siblings left of
    the first leader stay where they are."""
    kept: list[Node] = []
    buckets: list[tuple[Element, list[Node]]] = []
    for child in element.children:
        if isinstance(child, Element) and child.tag == tag:
            buckets.append((child, []))
            kept.append(child)
        elif buckets:
            buckets[-1][1].append(child)
        else:
            kept.append(child)
    element.children = kept
    created = 0
    for leader, members in buckets:
        if members:
            group = Element(GROUP_TAG)
            group.adopt_all(members)
            leader.adopt_new(group)
            created += 1
    return created
