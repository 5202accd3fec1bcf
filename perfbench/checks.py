"""Output checks.  Each returns an error message, or ``None`` when the
program's output is correct; any message fails the whole command."""

from __future__ import annotations


def check_digest(actual: str, pinned: str) -> str | None:
    if actual != pinned:
        return f"XML + DTD digest {actual} differs from the pinned {pinned}"
    return None


def check_identical(actual: list[str], expected: list[str], what: str) -> str | None:
    """Byte-identical documents, in order."""
    if len(actual) != len(expected):
        return f"{what}: {len(actual)} documents, expected {len(expected)}"
    for index, (got, want) in enumerate(zip(actual, expected)):
        if got != want:
            return f"{what}: document {index} differs from the reference"
    return None


def check_accuracy(xml_documents: list[str], truths: list, floor: float) -> tuple[float, str | None]:
    """Logical-error accuracy (Fig. 4's metric) of converted XML against
    the generator's ground truth; below ``floor`` percent, or any
    document that does not read back as XML, fails."""
    from repro.evaluation.accuracy import count_logical_errors
    from repro.mapping.persistence import load_xml_document
    from repro.dom.serialize import to_xml_document

    percentages = []
    for index, (xml, truth) in enumerate(zip(xml_documents, truths)):
        try:
            root = load_xml_document(xml)
        except Exception as exc:  # any parse failure is an output defect
            return 0.0, f"document {index} is not well-formed XML: {exc}"
        # The loader is lenient; a document that does not serialize back
        # to the same bytes was not what the converter emits.
        if to_xml_document(root) != xml:
            return 0.0, f"document {index} does not round-trip as converted XML"
        percentages.append(count_logical_errors(root, truth).error_percentage)
    accuracy = 100.0 - sum(percentages) / max(1, len(percentages))
    if accuracy < floor:
        return accuracy, f"accuracy {accuracy:.2f}% is below the floor {floor}%"
    return accuracy, None


def check_fold(
    total_documents: int, folded: int, live_dtd: str, offline_dtd: str
) -> str | None:
    """The live schema saw exactly the folded documents, and its DTD is
    the one offline discovery derives from them."""
    if total_documents != folded:
        return f"live schema counts {total_documents} documents, writes folded {folded}"
    if live_dtd.strip() != offline_dtd.strip():
        return "live DTD differs from the DTD discovered offline"
    return None
