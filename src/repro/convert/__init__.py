"""Document conversion: HTML trees to concept-tagged XML (Section 2).

The four restructuring rules, applied in order by
:class:`repro.convert.pipeline.DocumentConverter`:

1. :mod:`repro.convert.tokenize_rule` -- text nodes to tokens at
   punctuation delimiters, planned per parent (text rule 1).
2. :mod:`repro.convert.instance_rule` -- tokens to concept elements, with
   unidentified text pushed to the parent's ``val`` (text rule 2).
3. :mod:`repro.convert.grouping_rule` -- siblings between repeated group
   tags sink under ``GROUP`` nodes (structure rule 1).
4. :mod:`repro.convert.consolidation_rule` -- bottom-up elimination of all
   remaining HTML/temporary markup (structure rule 2).

Each rule is one sweep rebuilding each parent's child list at most once
(DESIGN.md section 4k says why each keeps the paper's order).
"""

from repro.convert.config import ConversionConfig
from repro.convert.consolidation_rule import apply_consolidation_rule
from repro.convert.grouping_rule import apply_grouping_rule
from repro.convert.instance_rule import apply_instance_rule
from repro.convert.linked import LinkedConversionResult, LinkedDocumentConverter
from repro.convert.pipeline import ConversionResult, DocumentConverter
from repro.convert.tokenize_rule import TOKEN_TAG, apply_tokenization_rule

__all__ = [
    "ConversionConfig",
    "DocumentConverter",
    "ConversionResult",
    "LinkedDocumentConverter",
    "LinkedConversionResult",
    "apply_tokenization_rule",
    "apply_instance_rule",
    "apply_grouping_rule",
    "apply_consolidation_rule",
    "TOKEN_TAG",
]
