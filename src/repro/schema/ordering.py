"""The DTD ordering rule (Section 3.3).

"The ordering of the child elements q1,...,qm for p is determined by the
average position an element qi occurs as child of p in the documents
D^p_XML" -- i.e. only documents containing the prefix ``p`` vote, and
they vote with the average child position recorded during path
extraction (the "index structure" of the paper is exactly the
``avg_position`` table of :class:`repro.schema.paths.DocumentPaths`).
"""

from __future__ import annotations

from repro.schema.accumulator import PathAccumulator
from repro.schema.paths import DocumentPaths, LabelPath

PathSource = list[DocumentPaths] | PathAccumulator


def average_child_positions(
    documents: PathSource, parent_path: LabelPath, child_labels: list[str]
) -> dict[str, float]:
    """Average (over documents containing the child path) of the average
    child position of each ``child_label`` under ``parent_path``.

    Children never observed in any document (possible only for an empty
    corpus) default to position ``inf`` so they sort last.
    """
    if isinstance(documents, PathAccumulator):
        return {
            label: documents.avg_position(parent_path + (label,))
            for label in child_labels
        }
    sums: dict[str, float] = {label: 0.0 for label in child_labels}
    counts: dict[str, int] = {label: 0 for label in child_labels}
    for doc in documents:
        for label in child_labels:
            child_path = parent_path + (label,)
            position = doc.avg_position.get(child_path)
            if position is not None:
                sums[label] += position
                counts[label] += 1
    return {
        label: (sums[label] / counts[label]) if counts[label] else float("inf")
        for label in child_labels
    }


def ordered_labels(
    parent_path: LabelPath,
    labels: list[str],
    *,
    documents: PathSource | None = None,
    index=None,
) -> list[str]:
    """Labels in content-model order, from either statistics source.

    ``index`` (a :class:`repro.schema.index.PathIndex`) answers average
    positions in O(occurrences of the child path) without re-touching
    the documents -- the "efficient computation of an ordering" the
    paper attributes to the index structure.  Exactly one of
    ``documents``/``index`` must be provided.
    """
    if (documents is None) == (index is None):
        raise ValueError("provide exactly one of documents or index")
    if index is not None:
        positions = {
            label: index.avg_position(parent_path + (label,)) for label in labels
        }
    else:
        positions = average_child_positions(documents, parent_path, labels)
    return sorted(labels, key=lambda lb: (positions[lb], lb))
